#include "data/workloads.h"

#include <string>

#include "data/genotype_generator.h"
#include "data/phenotype_simulator.h"
#include "util/check.h"

namespace dash {

ScanWorkload MakeRDemoWorkload(const RDemoOptions& options) {
  Rng rng(options.seed);
  ScanWorkload w;
  for (const int64_t n : {options.n1, options.n2, options.n3}) {
    PartyData p;
    p.y = GaussianVector(n, &rng);
    p.x = GaussianMatrix(n, options.num_variants, &rng);
    p.c = GaussianMatrix(n, options.num_covariates, &rng);
    w.parties.push_back(std::move(p));
  }
  return w;
}

Result<ScanWorkload> MakeGwasWorkload(const GwasWorkloadOptions& options) {
  if (options.party_sizes.empty()) {
    return InvalidArgumentError("need at least one party");
  }
  if (options.num_covariates < 1) {
    return InvalidArgumentError("need at least the intercept covariate");
  }
  if (options.num_variants < 0 || options.num_causal < 0) {
    return InvalidArgumentError("variant counts must be non-negative");
  }
  if (options.num_causal > options.num_variants) {
    return InvalidArgumentError("more causal variants than variants");
  }
  if (!(0.0 <= options.maf_min && options.maf_min <= options.maf_max &&
        options.maf_max <= 0.5)) {
    return InvalidArgumentError("need 0 <= maf_min <= maf_max <= 0.5");
  }
  int64_t n = 0;
  for (const int64_t s : options.party_sizes) {
    if (s <= options.num_covariates) {
      return InvalidArgumentError(
          "each party needs more samples than covariates");
    }
    n += s;
  }

  GenotypeOptions geno;
  geno.num_samples = n;
  geno.num_variants = options.num_variants;
  geno.maf_min = options.maf_min;
  geno.maf_max = options.maf_max;
  geno.seed = options.seed;
  const Matrix x = GenerateGenotypes(geno);

  Rng rng(options.seed + 0x9e3779b9);
  Matrix c(n, options.num_covariates);
  for (int64_t i = 0; i < n; ++i) {
    c(i, 0) = 1.0;
    for (int64_t j = 1; j < options.num_covariates; ++j) c(i, j) = rng.Gaussian();
  }

  PhenotypeOptions pheno;
  pheno.noise_sd = options.noise_sd;
  pheno.seed = options.seed + 0x1234;
  // Evenly spaced causal variants with alternating-sign effects.
  if (options.num_causal > 0) {
    const int64_t stride = options.num_variants / options.num_causal;
    for (int64_t i = 0; i < options.num_causal; ++i) {
      pheno.causal_variants.push_back(i * stride);
      pheno.effect_sizes.push_back((i % 2 == 0) ? options.effect_size
                                                : -options.effect_size);
    }
  }
  // Mild covariate effects so the projection step has work to do.
  pheno.covariate_effects.assign(static_cast<size_t>(options.num_covariates),
                                 0.0);
  for (int64_t j = 0; j < options.num_covariates; ++j) {
    pheno.covariate_effects[static_cast<size_t>(j)] = 0.3 * rng.Gaussian();
  }
  DASH_ASSIGN_OR_RETURN(Vector y, SimulatePhenotype(x, c, pheno));

  ScanWorkload w;
  DASH_ASSIGN_OR_RETURN(w.parties, SplitRows(x, y, c, options.party_sizes));
  w.causal_variants = pheno.causal_variants;
  w.effect_sizes = pheno.effect_sizes;
  return w;
}

Result<ScanWorkload> MakeConfoundedWorkload(
    const ConfoundedWorkloadOptions& options) {
  if (options.party_sizes.empty()) {
    return InvalidArgumentError("need at least one party");
  }
  const int64_t num_parties = static_cast<int64_t>(options.party_sizes.size());
  const double top_maf =
      options.maf_base + static_cast<double>(num_parties - 1) * options.maf_gradient;
  if (options.maf_base <= 0.0 || top_maf > 0.5) {
    return InvalidArgumentError(
        "confounded MAF gradient leaves [0, 0.5]: base=" +
        std::to_string(options.maf_base) +
        " top=" + std::to_string(top_maf));
  }

  ScanWorkload w;
  Rng rng(options.seed);
  for (int64_t p = 0; p < num_parties; ++p) {
    const int64_t np = options.party_sizes[static_cast<size_t>(p)];
    PartyData pd;
    pd.x = Matrix(np, options.num_variants);
    // Variant 0: the party-graded allele frequency.
    const double maf0 =
        options.maf_base + static_cast<double>(p) * options.maf_gradient;
    for (int64_t i = 0; i < np; ++i) {
      pd.x(i, 0) = (rng.Bernoulli(maf0) ? 1.0 : 0.0) +
                   (rng.Bernoulli(maf0) ? 1.0 : 0.0);
    }
    // Remaining variants: common frequency across parties (null).
    for (int64_t j = 1; j < options.num_variants; ++j) {
      const double maf = rng.Uniform(0.1, 0.5);
      for (int64_t i = 0; i < np; ++i) {
        pd.x(i, j) = (rng.Bernoulli(maf) ? 1.0 : 0.0) +
                     (rng.Bernoulli(maf) ? 1.0 : 0.0);
      }
    }
    // Intercept-only permanent covariates: the confounder (party) is NOT
    // observable inside the pooled design.
    pd.c = Matrix(np, 1);
    for (int64_t i = 0; i < np; ++i) pd.c(i, 0) = 1.0;
    // Phenotype: within-party effect plus the party-level shift.
    pd.y.resize(static_cast<size_t>(np));
    for (int64_t i = 0; i < np; ++i) {
      pd.y[static_cast<size_t>(i)] =
          options.within_effect * pd.x(i, 0) +
          options.party_shift * static_cast<double>(p) +
          rng.Gaussian(0.0, options.noise_sd);
    }
    w.parties.push_back(std::move(pd));
  }
  w.causal_variants = {0};
  w.effect_sizes = {options.within_effect};
  return w;
}

}  // namespace dash
