#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <thread>

#include "stats/ols.h"
#include "util/random.h"

namespace perfbench {
namespace {

// Independent stream per (purpose, index) so every party, column and
// covariate block is reproducible on its own.
uint64_t StreamSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  uint64_t state = seed ^ (purpose * 0x9E3779B97F4A7C15ull) ^
                   (index * 0xC2B2AE3D27D4EB4Full + 0x165667B19E3779F9ull);
  return dash::SplitMix64(&state);
}

enum Purpose : uint64_t {
  kMafStream = 1,
  kCausalStream = 2,
  kGenotypeStream = 3,  // + party
  kCovariateStream = 100,
  kNoiseStream = 200,
  kSampleStream = 300,
};

void FillGenotypes(const std::vector<double>& mafs, int party, uint64_t seed,
                   dash::PackedGenotypeMatrix* x) {
  const int64_t n = x->rows();
  const int64_t words = x->words_per_column();
  for (int64_t j = 0; j < x->cols(); ++j) {
    dash::Rng rng(StreamSeed(seed, kGenotypeStream + static_cast<uint64_t>(party),
                             static_cast<uint64_t>(j)));
    // Two Bernoulli(maf) alleles per call: each 32-bit half of one
    // draw is compared against maf * 2^32.
    const auto threshold = static_cast<uint64_t>(
        mafs[static_cast<size_t>(j)] * 4294967296.0);
    uint64_t* out = x->mutable_column_words(j);
    for (int64_t w = 0; w < words; ++w) {
      const int64_t rows_here = std::min<int64_t>(
          dash::PackedGenotypeMatrix::kRowsPerWord,
          n - w * dash::PackedGenotypeMatrix::kRowsPerWord);
      uint64_t word = 0;
      for (int64_t b = 0; b < rows_here; ++b) {
        const uint64_t u = rng.NextU64();
        const uint64_t g = static_cast<uint64_t>((u & 0xFFFFFFFFull) < threshold) +
                           static_cast<uint64_t>((u >> 32) < threshold);
        word |= g << (2 * b);
      }
      out[w] = word;
    }
  }
}

void FillParty(const StudyShape& shape, const std::vector<double>& mafs,
               const std::vector<int64_t>& causal, int party, uint64_t seed,
               PartySlice* slice) {
  const int64_t n = shape.samples_per_party;
  const int64_t k = shape.covariates;
  slice->x = dash::PackedGenotypeMatrix(n, shape.variants);
  FillGenotypes(mafs, party, seed, &slice->x);

  slice->c = dash::Matrix(n, k);
  dash::Rng cov_rng(StreamSeed(seed, kCovariateStream,
                               static_cast<uint64_t>(party)));
  for (int64_t i = 0; i < n; ++i) {
    slice->c(i, 0) = 1.0;
    for (int64_t kk = 1; kk < k; ++kk) slice->c(i, kk) = cov_rng.Gaussian();
  }

  // y = C gamma + sum_causal 0.1 * x_c + N(0, 1).
  dash::Rng noise_rng(StreamSeed(seed, kNoiseStream,
                                 static_cast<uint64_t>(party)));
  slice->y.assign(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    double v = noise_rng.Gaussian();
    for (int64_t kk = 0; kk < k; ++kk) {
      v += (kk == 0 ? 0.5 : 0.1 * static_cast<double>(kk)) * slice->c(i, kk);
    }
    for (const int64_t j : causal) v += 0.1 * slice->x.Code(i, j);
    slice->y[static_cast<size_t>(i)] = v;
  }
}

}  // namespace

Study GenerateStudy(const StudyShape& shape, uint64_t seed) {
  Study study;
  study.shape = shape;

  std::vector<double> mafs(static_cast<size_t>(shape.variants));
  dash::Rng maf_rng(StreamSeed(seed, kMafStream, 0));
  for (double& f : mafs) f = maf_rng.Uniform(0.05, 0.5);

  dash::Rng causal_rng(StreamSeed(seed, kCausalStream, 0));
  std::set<int64_t> causal;
  const int64_t want = std::min(shape.causal, shape.variants);
  while (static_cast<int64_t>(causal.size()) < want) {
    causal.insert(static_cast<int64_t>(
        causal_rng.UniformInt(static_cast<uint64_t>(shape.variants))));
  }
  study.causal.assign(causal.begin(), causal.end());

  study.parties.resize(static_cast<size_t>(shape.num_parties));
  std::vector<std::thread> threads;
  for (int p = 0; p < shape.num_parties; ++p) {
    threads.emplace_back([&, p] {
      FillParty(shape, mafs, study.causal, p, seed,
                &study.parties[static_cast<size_t>(p)]);
    });
  }
  for (auto& t : threads) t.join();
  return study;
}

dash::Result<std::vector<ReferenceFit>> FitReference(const Study& study,
                                                     int count, uint64_t seed) {
  const int64_t m = study.shape.variants;
  std::vector<int64_t> variants;
  for (const int64_t j : study.causal) {
    if (static_cast<int>(variants.size()) >= count / 2) break;
    variants.push_back(j);
  }
  dash::Rng rng(StreamSeed(seed, kSampleStream, 0));
  while (static_cast<int>(variants.size()) < std::min<int64_t>(count, m)) {
    const auto j = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(m)));
    if (std::find(variants.begin(), variants.end(), j) == variants.end()) {
      variants.push_back(j);
    }
  }

  std::vector<dash::Matrix> c_blocks;
  dash::Vector y;
  for (const PartySlice& slice : study.parties) {
    c_blocks.push_back(slice.c);
    y.insert(y.end(), slice.y.begin(), slice.y.end());
  }
  const dash::Matrix c = dash::VStack(c_blocks);

  std::vector<ReferenceFit> fits;
  for (const int64_t j : variants) {
    dash::Vector x;
    x.reserve(y.size());
    for (const PartySlice& slice : study.parties) {
      for (int64_t i = 0; i < slice.x.rows(); ++i) {
        x.push_back(static_cast<double>(slice.x.Code(i, j)));
      }
    }
    DASH_ASSIGN_OR_RETURN(const dash::SingleCoefficientFit fit,
                          dash::FitTransientCoefficient(x, c, y));
    fits.push_back({j, fit.beta, fit.standard_error});
  }
  return fits;
}

dash::Status CheckAgainstReference(const dash::ScanResult& result,
                                   const std::vector<ReferenceFit>& reference) {
  for (const ReferenceFit& ref : reference) {
    if (ref.variant >= result.num_variants()) {
      return dash::InternalError("scan result has only " +
                                 std::to_string(result.num_variants()) +
                                 " variants");
    }
    const auto i = static_cast<size_t>(ref.variant);
    const double beta_err = std::abs(result.beta[i] - ref.beta);
    const double se_err = std::abs(result.se[i] - ref.se);
    const double bound = kReferenceTolerance * ref.se;
    if (!(beta_err <= bound) || !(se_err <= bound)) {
      return dash::DataLossError(
          "variant " + std::to_string(ref.variant) + ": scan beta/se " +
          std::to_string(result.beta[i]) + "/" + std::to_string(result.se[i]) +
          " vs pooled OLS " + std::to_string(ref.beta) + "/" +
          std::to_string(ref.se));
    }
  }
  return dash::Status::Ok();
}

}  // namespace perfbench
