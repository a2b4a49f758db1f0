// Workload generators and the party partition machinery.

#include <gtest/gtest.h>

#include <cmath>

#include "core/association_scan.h"
#include "core/secure_scan.h"
#include "data/genotype_generator.h"
#include "data/party_split.h"
#include "data/phenotype_simulator.h"
#include "data/workloads.h"
#include "stats/descriptive.h"
#include "util/random.h"

namespace dash {
namespace {

TEST(GenotypeGeneratorTest, DosagesAreValidAndFrequenciesMatch) {
  GenotypeOptions opts;
  opts.num_samples = 4000;
  opts.num_variants = 5;
  opts.maf_min = 0.25;
  opts.maf_max = 0.25;
  opts.seed = 1;
  Vector mafs;
  const Matrix g = GenerateGenotypes(opts, &mafs);
  ASSERT_EQ(mafs.size(), 5u);
  for (int64_t j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(mafs[static_cast<size_t>(j)], 0.25);
    double sum = 0.0;
    for (int64_t i = 0; i < 4000; ++i) {
      const double d = g(i, j);
      EXPECT_TRUE(d == 0.0 || d == 1.0 || d == 2.0);
      sum += d;
    }
    // Mean dosage 2 * MAF = 0.5.
    EXPECT_NEAR(sum / 4000.0, 0.5, 0.05);
  }
}

TEST(GenotypeGeneratorTest, DeterministicInSeed) {
  GenotypeOptions opts;
  opts.num_samples = 20;
  opts.num_variants = 8;
  opts.seed = 2;
  EXPECT_TRUE(GenerateGenotypes(opts) == GenerateGenotypes(opts));
}

TEST(GenotypeGeneratorTest, RejectsBadMafRange) {
  GenotypeOptions opts;
  opts.num_samples = 1;
  opts.num_variants = 1;
  opts.maf_min = 0.4;
  opts.maf_max = 0.3;
  EXPECT_DEATH(GenerateGenotypes(opts), "DASH_CHECK");
}

TEST(PhenotypeSimulatorTest, RespectsEffectsAndNoise) {
  Rng rng(3);
  const Matrix x = GaussianMatrix(5000, 3, &rng);
  const Matrix c = GaussianMatrix(5000, 2, &rng);
  PhenotypeOptions opts;
  opts.causal_variants = {1};
  opts.effect_sizes = {2.0};
  opts.covariate_effects = {0.0, -1.0};
  opts.noise_sd = 0.5;
  opts.seed = 4;
  const Vector y = SimulatePhenotype(x, c, opts).value();
  // Var(y) = 4 + 1 + 0.25 = 5.25 for standard-normal columns.
  EXPECT_NEAR(SampleVariance(y), 5.25, 0.3);
  EXPECT_GT(PearsonCorrelation(y, x.Col(1)), 0.7);
  EXPECT_LT(PearsonCorrelation(y, c.Col(1)), -0.3);
}

TEST(PhenotypeSimulatorTest, NoiselessIsDeterministicLinear) {
  Rng rng(5);
  const Matrix x = GaussianMatrix(10, 2, &rng);
  PhenotypeOptions opts;
  opts.causal_variants = {0};
  opts.effect_sizes = {1.5};
  opts.noise_sd = 0.0;
  const Vector y = SimulatePhenotype(x, Matrix(10, 0), opts).value();
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(y[static_cast<size_t>(i)], 1.5 * x(i, 0), 1e-12);
  }
}

TEST(PhenotypeSimulatorTest, Validation) {
  const Matrix x(10, 2);
  const Matrix c(10, 1);
  PhenotypeOptions opts;
  opts.causal_variants = {5};
  opts.effect_sizes = {1.0};
  EXPECT_FALSE(SimulatePhenotype(x, c, opts).ok());
  opts.causal_variants = {0, 1};
  EXPECT_FALSE(SimulatePhenotype(x, c, opts).ok());  // ragged effects
  opts.causal_variants = {0};
  opts.covariate_effects = {1.0, 2.0};
  EXPECT_FALSE(SimulatePhenotype(x, c, opts).ok());  // wrong covariate count
  PhenotypeOptions neg;
  neg.noise_sd = -1.0;
  EXPECT_FALSE(SimulatePhenotype(x, c, neg).ok());
}

TEST(PartySplitTest, SplitAndPoolRoundTrip) {
  Rng rng(6);
  const Matrix x = GaussianMatrix(60, 4, &rng);
  const Matrix c = GaussianMatrix(60, 2, &rng);
  const Vector y = GaussianVector(60, &rng);
  const auto parties = SplitRows(x, y, c, {10, 30, 20}).value();
  ASSERT_EQ(parties.size(), 3u);
  EXPECT_EQ(parties[1].num_samples(), 30);
  const PooledData pooled = PoolParties(parties).value();
  EXPECT_TRUE(pooled.x == x);
  EXPECT_TRUE(pooled.c == c);
  EXPECT_EQ(pooled.y, y);
}

TEST(PartySplitTest, Validation) {
  const Matrix x(10, 2);
  const Vector y(10);
  const Matrix c(10, 1);
  EXPECT_FALSE(SplitRows(x, y, c, {4, 4}).ok());   // doesn't sum to N
  EXPECT_FALSE(SplitRows(x, y, c, {-1, 11}).ok()); // negative
  EXPECT_FALSE(SplitRows(x, Vector(9), c, {5, 5}).ok());
  EXPECT_TRUE(SplitRows(x, y, c, {0, 10}).ok());   // empty party allowed here
  EXPECT_FALSE(ValidateParties({}).ok());
}

TEST(PartySplitTest, CenterPerPartyZerosTheMeans) {
  Rng rng(7);
  std::vector<PartyData> parties;
  for (const int64_t n : {int64_t{20}, int64_t{30}}) {
    PartyData pd;
    pd.x = GaussianMatrix(n, 3, &rng);
    pd.c = GaussianMatrix(n, 2, &rng);
    pd.y = GaussianVector(n, &rng);
    for (auto& v : pd.y) v += 10.0;
    parties.push_back(std::move(pd));
  }
  CenterPerParty(&parties);
  for (const auto& pd : parties) {
    EXPECT_NEAR(Mean(pd.y), 0.0, 1e-10);
    for (int64_t j = 0; j < pd.c.cols(); ++j) {
      EXPECT_NEAR(Mean(pd.c.Col(j)), 0.0, 1e-10);
    }
    for (int64_t j = 0; j < pd.x.cols(); ++j) {
      EXPECT_NEAR(Mean(pd.x.Col(j)), 0.0, 1e-10);
    }
  }
}

TEST(WorkloadsTest, RDemoShapesMatchPaper) {
  const ScanWorkload w = MakeRDemoWorkload();
  ASSERT_EQ(w.parties.size(), 3u);
  EXPECT_EQ(w.parties[0].num_samples(), 1000);
  EXPECT_EQ(w.parties[1].num_samples(), 2000);
  EXPECT_EQ(w.parties[2].num_samples(), 1500);
  EXPECT_EQ(w.num_variants(), 10000);
  EXPECT_EQ(w.num_covariates(), 3);
  EXPECT_EQ(w.total_samples(), 4500);
  EXPECT_TRUE(w.causal_variants.empty());
}

TEST(WorkloadsTest, GwasWorkloadPlantsRecoverableEffects) {
  GwasWorkloadOptions opts;
  opts.party_sizes = {400, 400};
  opts.num_variants = 50;
  opts.num_covariates = 2;
  opts.num_causal = 2;
  opts.effect_size = 0.5;
  opts.seed = 8;
  const ScanWorkload w = MakeGwasWorkload(opts).value();
  ASSERT_EQ(w.causal_variants.size(), 2u);
  const PooledData pooled = PoolParties(w.parties).value();
  const ScanResult scan =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();
  for (size_t i = 0; i < w.causal_variants.size(); ++i) {
    const size_t v = static_cast<size_t>(w.causal_variants[i]);
    EXPECT_LT(scan.pval[v], 1e-6) << "causal variant " << v;
    EXPECT_GT(scan.beta[v] * w.effect_sizes[i], 0.0) << "sign recovered";
  }
}

TEST(WorkloadsTest, GwasWorkloadValidation) {
  GwasWorkloadOptions opts;
  opts.party_sizes = {};
  EXPECT_FALSE(MakeGwasWorkload(opts).ok());
  opts.party_sizes = {3};
  opts.num_covariates = 4;
  EXPECT_FALSE(MakeGwasWorkload(opts).ok());
  opts.party_sizes = {100};
  opts.num_covariates = 2;
  opts.num_causal = 1000;
  opts.num_variants = 10;
  EXPECT_FALSE(MakeGwasWorkload(opts).ok());
  // A shape the genotype generator would abort on is a typed error.
  opts.num_causal = -5;
  opts.num_variants = -5;
  EXPECT_EQ(MakeGwasWorkload(opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.num_causal = 1;
  opts.num_variants = 10;
  opts.maf_max = 0.7;
  EXPECT_EQ(MakeGwasWorkload(opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WorkloadsTest, ConfoundedWorkloadInducesSimpsonsParadox) {
  ConfoundedWorkloadOptions opts;
  opts.party_sizes = {500, 500, 500};
  opts.within_effect = 0.0;
  opts.party_shift = 2.0;
  opts.seed = 9;
  const ScanWorkload w = MakeConfoundedWorkload(opts).value();

  // Naive pooled analysis (intercept only): spurious hit on variant 0.
  const PooledData pooled = PoolParties(w.parties).value();
  const ScanResult naive =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();
  EXPECT_LT(naive.pval[0], 1e-6);
  EXPECT_GT(std::fabs(naive.beta[0]), 0.2);

  // DASH with per-party centering: no effect, as constructed.
  std::vector<PartyData> centered = w.parties;
  for (auto& p : centered) p.c = Matrix(p.num_samples(), 0);
  SecureScanOptions scan_opts;
  scan_opts.aggregation = AggregationMode::kPublicShare;
  scan_opts.center_per_party = true;
  const ScanResult adjusted =
      SecureAssociationScan(scan_opts).Run(centered).value().result;
  EXPECT_GT(adjusted.pval[0], 1e-3);
  EXPECT_LT(std::fabs(adjusted.beta[0]), 0.15);
}

TEST(WorkloadsTest, ConfoundedWorkloadValidation) {
  ConfoundedWorkloadOptions opts;
  opts.maf_base = 0.3;
  opts.maf_gradient = 0.2;  // party 2 would need MAF 0.7
  EXPECT_FALSE(MakeConfoundedWorkload(opts).ok());
  opts.party_sizes = {};
  EXPECT_FALSE(MakeConfoundedWorkload(opts).ok());
}

}  // namespace
}  // namespace dash
