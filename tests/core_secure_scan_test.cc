// The paper's central claim (§3-§4): the secure multi-party scan equals
// the pooled "primary analysis" exactly, for every aggregation mode and
// R-combination strategy, while exchanging only O(M) bytes.

#include "core/secure_scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/association_scan.h"
#include "data/genotype_generator.h"
#include "data/panel_stream.h"
#include "data/workloads.h"
#include "net/network.h"
#include "stats/ols.h"
#include "transport/party_runner.h"
#include "util/random.h"

namespace dash {
namespace {

ScanWorkload SmallDemo(uint64_t seed = 0) {
  RDemoOptions opts;
  opts.n1 = 60;
  opts.n2 = 90;
  opts.n3 = 75;
  opts.num_variants = 25;
  opts.num_covariates = 3;
  opts.seed = seed;
  return MakeRDemoWorkload(opts);
}

// Sweep the protocol configuration space.
class SecureScanConfigTest
    : public testing::TestWithParam<std::tuple<AggregationMode, RCombineMode>> {
};

TEST_P(SecureScanConfigTest, MatchesPooledPlaintextScan) {
  const auto [aggregation, r_combine] = GetParam();
  const ScanWorkload w = SmallDemo();
  const PooledData pooled = PoolParties(w.parties).value();
  const ScanResult plain =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();

  SecureScanOptions opts;
  opts.aggregation = aggregation;
  opts.r_combine = r_combine;
  const SecureScanOutput secure =
      SecureAssociationScan(opts).Run(w.parties).value();

  ASSERT_EQ(secure.result.num_variants(), plain.num_variants());
  EXPECT_EQ(secure.result.dof, plain.dof);
  // Public sharing is exact in doubles; ring/field modes are exact up to
  // fixed-point quantization of the aggregated statistics.
  const double tol =
      (aggregation == AggregationMode::kPublicShare) ? 1e-10 : 1e-6;
  EXPECT_LT(MaxAbsDiff(secure.result.beta, plain.beta), tol);
  EXPECT_LT(MaxAbsDiff(secure.result.se, plain.se), tol);
  EXPECT_LT(MaxAbsDiff(secure.result.pval, plain.pval), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SecureScanConfigTest,
    testing::Combine(testing::Values(AggregationMode::kPublicShare,
                                     AggregationMode::kAdditive,
                                     AggregationMode::kMasked),
                     testing::Values(RCombineMode::kBroadcastStack,
                                     RCombineMode::kBinaryTree)));

TEST(SecureScanTest, MatchesPerColumnOlsGroundTruth) {
  // The full §4 check: secure estimates equal lm(y ~ X_m + C - 1).
  const ScanWorkload w = SmallDemo(42);
  const PooledData pooled = PoolParties(w.parties).value();

  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureScanOutput secure =
      SecureAssociationScan(opts).Run(w.parties).value();

  for (int64_t j = 0; j < 5; ++j) {
    const SingleCoefficientFit ols =
        FitTransientCoefficient(pooled.x.Col(j), pooled.c, pooled.y).value();
    const size_t i = static_cast<size_t>(j);
    EXPECT_NEAR(secure.result.beta[i], ols.beta, 1e-7);
    EXPECT_NEAR(secure.result.se[i], ols.standard_error, 1e-7);
    EXPECT_NEAR(secure.result.tstat[i], ols.t_statistic, 1e-5);
    EXPECT_NEAR(secure.result.pval[i], ols.p_value, 1e-7);
    EXPECT_EQ(secure.result.dof, ols.dof);
  }
}

TEST(SecureScanTest, PartyOrderDoesNotChangeResults) {
  const ScanWorkload w = SmallDemo(7);
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kAdditive;
  const SecureAssociationScan scan(opts);
  const ScanResult forward = scan.Run(w.parties).value().result;
  std::vector<PartyData> reversed(w.parties.rbegin(), w.parties.rend());
  const ScanResult backward = scan.Run(reversed).value().result;
  EXPECT_LT(MaxAbsDiff(forward.beta, backward.beta), 1e-9);
  EXPECT_LT(MaxAbsDiff(forward.pval, backward.pval), 1e-9);
}

TEST(SecureScanTest, FinerPartitionsAgree) {
  // Splitting the same pooled data into 2 or 6 parties gives one answer.
  const ScanWorkload w = SmallDemo(8);
  const PooledData pooled = PoolParties(w.parties).value();
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureAssociationScan scan(opts);

  const auto two = SplitRows(pooled.x, pooled.y, pooled.c, {100, 125}).value();
  const auto six =
      SplitRows(pooled.x, pooled.y, pooled.c, {40, 40, 40, 40, 40, 25}).value();
  const ScanResult r2 = scan.Run(two).value().result;
  const ScanResult r6 = scan.Run(six).value().result;
  EXPECT_LT(MaxAbsDiff(r2.beta, r6.beta), 1e-7);
  EXPECT_LT(MaxAbsDiff(r2.se, r6.se), 1e-7);
}

TEST(SecureScanTest, SinglePartyDegeneratesToPlainScan) {
  const ScanWorkload w = SmallDemo(9);
  const PooledData pooled = PoolParties(w.parties).value();
  const std::vector<PartyData> one = {{pooled.x, pooled.y, pooled.c}};
  const SecureScanOutput out = SecureAssociationScan().Run(one).value();
  const ScanResult plain =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();
  EXPECT_LT(MaxAbsDiff(out.result.beta, plain.beta), 1e-12);
  EXPECT_EQ(out.metrics.total_bytes, 0);
}

TEST(SecureScanTest, CommunicationIsIndependentOfSampleCount) {
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureAssociationScan scan(opts);

  RDemoOptions small;
  small.n1 = 30;
  small.n2 = 40;
  small.n3 = 35;
  small.num_variants = 20;
  RDemoOptions large = small;
  large.n1 = 300;
  large.n2 = 400;
  large.n3 = 350;

  const auto bytes_small =
      scan.Run(MakeRDemoWorkload(small).parties).value().metrics.total_bytes;
  const auto bytes_large =
      scan.Run(MakeRDemoWorkload(large).parties).value().metrics.total_bytes;
  EXPECT_EQ(bytes_small, bytes_large);
}

TEST(SecureScanTest, CommunicationScalesLinearlyInVariants) {
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureAssociationScan scan(opts);

  RDemoOptions base;
  base.n1 = 30;
  base.n2 = 30;
  base.n3 = 30;
  base.num_variants = 50;
  RDemoOptions wide = base;
  wide.num_variants = 500;

  const auto small =
      scan.Run(MakeRDemoWorkload(base).parties).value().metrics;
  const auto large =
      scan.Run(MakeRDemoWorkload(wide).parties).value().metrics;
  const double ratio = static_cast<double>(large.total_bytes) /
                       static_cast<double>(small.total_bytes);
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 10.5);
}

TEST(SecureScanTest, CenteringEqualsExplicitBatchIndicators) {
  // Build a 3-party study with party-level shifts; compare per-party
  // centering against pooled OLS with explicit indicator covariates.
  Rng rng(15);
  const std::vector<int64_t> sizes = {40, 55, 45};
  std::vector<PartyData> parties;
  for (size_t p = 0; p < sizes.size(); ++p) {
    PartyData pd;
    const int64_t n = sizes[p];
    pd.x = GaussianMatrix(n, 6, &rng);
    pd.c = GaussianMatrix(n, 2, &rng);  // no intercept column!
    pd.y.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      pd.y[static_cast<size_t>(i)] = 0.3 * pd.x(i, 0) +
                                     2.0 * static_cast<double>(p) +
                                     rng.Gaussian();
    }
    parties.push_back(std::move(pd));
  }

  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kPublicShare;
  opts.center_per_party = true;
  const ScanResult centered =
      SecureAssociationScan(opts).Run(parties).value().result;

  // Pooled design with explicit per-party indicator columns.
  const PooledData pooled = PoolParties(parties).value();
  const int64_t n_total = pooled.x.rows();
  Matrix c_with_batch(n_total, 2 + 3);
  int64_t row = 0;
  for (size_t p = 0; p < sizes.size(); ++p) {
    for (int64_t i = 0; i < sizes[p]; ++i, ++row) {
      c_with_batch(row, 0) = pooled.c(row, 0);
      c_with_batch(row, 1) = pooled.c(row, 1);
      c_with_batch(row, 2 + static_cast<int64_t>(p)) = 1.0;
    }
  }
  for (int64_t j = 0; j < 6; ++j) {
    const SingleCoefficientFit ols =
        FitTransientCoefficient(pooled.x.Col(j), c_with_batch, pooled.y)
            .value();
    const size_t i = static_cast<size_t>(j);
    EXPECT_NEAR(centered.beta[i], ols.beta, 1e-9) << "variant " << j;
    EXPECT_NEAR(centered.se[i], ols.standard_error, 1e-9) << "variant " << j;
    EXPECT_EQ(centered.dof, ols.dof);
  }
}

TEST(SecureScanTest, CenteringRejectsExplicitIntercept) {
  ScanWorkload w = SmallDemo(10);
  for (auto& p : w.parties) p.c = WithInterceptColumn(p.c);
  SecureScanOptions opts;
  opts.center_per_party = true;
  const auto result = SecureAssociationScan(opts).Run(w.parties);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SecureScanTest, ValidatesPartyShapes) {
  ScanWorkload w = SmallDemo(11);
  w.parties[1].x = Matrix(w.parties[1].x.rows(), 7);  // wrong M
  EXPECT_FALSE(SecureAssociationScan().Run(w.parties).ok());
  EXPECT_FALSE(SecureAssociationScan().Run({}).ok());
}

TEST(SecureScanTest, TinyPartyStillWorksIfTallEnoughForQr) {
  // A party with K <= N_p < K+2 samples contributes without breaking the
  // global scan (only the pooled N matters for dof).
  Rng rng(16);
  std::vector<PartyData> parties;
  for (const int64_t n : {int64_t{3}, int64_t{100}}) {
    PartyData pd;
    pd.x = GaussianMatrix(n, 4, &rng);
    pd.c = GaussianMatrix(n, 3, &rng);
    pd.y = GaussianVector(n, &rng);
    parties.push_back(std::move(pd));
  }
  const auto out = SecureAssociationScan().Run(parties);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out.value().result.dof, 103 - 3 - 1);
}

TEST(SecureScanTest, RoundsCountedPerMode) {
  const ScanWorkload w = SmallDemo(12);
  SecureScanOptions masked;
  masked.aggregation = AggregationMode::kMasked;
  masked.r_combine = RCombineMode::kBroadcastStack;
  const auto m = SecureAssociationScan(masked).Run(w.parties).value().metrics;
  // 1 sample-count round + 1 R round + 1 DH setup round + 1 masked
  // reduce round + 1 gather round + 1 commit round.
  EXPECT_EQ(m.rounds, 6);

  SecureScanOptions additive;
  additive.aggregation = AggregationMode::kAdditive;
  const auto a =
      SecureAssociationScan(additive).Run(w.parties).value().metrics;
  // 1 sample-count round + 1 R round + 2 additive rounds + 1 gather
  // round + 1 commit round.
  EXPECT_EQ(a.rounds, 6);
}

TEST(SecureScanTest, OutputCarriesItsResultChecksum) {
  // Every producer fills result_checksum once, P = 1 runs (which skip
  // the commit round) included.
  const ScanWorkload w = SmallDemo(21);
  const std::vector<PartyData> single = {w.parties[0]};
  for (const AggregationMode mode :
       {AggregationMode::kPublicShare, AggregationMode::kAdditive,
        AggregationMode::kMasked}) {
    SecureScanOptions options;
    options.aggregation = mode;
    for (const std::vector<PartyData>* parties : {&single, &w.parties}) {
      const auto out = SecureAssociationScan(options).Run(*parties);
      ASSERT_TRUE(out.ok()) << out.status();
      EXPECT_EQ(out->result_checksum, ScanResultChecksum(out->result))
          << AggregationModeName(mode) << " P=" << parties->size();
    }
  }
}

// frac_bits outside the codec's [1, 62] is refused by every per-party
// entry point before round 1: InvalidArgument at every party, alone or
// in a mesh where every party is configured the same way, and nothing
// sent — not even an abort.
TEST(SecureScanTest, OutOfRangeFracBitsIsInvalidArgumentAtEveryParty) {
  GwasWorkloadOptions workload_options;
  workload_options.party_sizes = {40, 50, 45};
  workload_options.num_variants = 8;
  workload_options.num_covariates = 2;
  workload_options.num_causal = 1;
  workload_options.seed = 23;
  const ScanWorkload w = MakeGwasWorkload(workload_options).value();
  std::vector<PackedGenotypeMatrix> packed;
  for (const PartyData& party : w.parties) {
    packed.push_back(PackedGenotypeMatrix::TryFromDense(party.x).value());
  }
  for (const int frac_bits : {0, 63}) {
    SecureScanOptions options;
    options.frac_bits = frac_bits;
    const std::string named = "frac_bits " + std::to_string(frac_bits);
    for (const int parties : {1, 3}) {
      const Status run = RunPartiesInProcess(parties, [&](Transport* t) {
        const size_t i = static_cast<size_t>(t->local_party());
        const PartyData& party = w.parties[i];
        InMemoryPanelSource source(packed[i], party.y, party.c);
        StreamingPartyScan stream;
        stream.source = &source;
        const Status refused[] = {
            RunPartySecureScan(t, party, options).status(),
            RunPartySecureScanStreamed(t, party.y, party.c, stream, options)
                .status(),
            RunPartySummandProtocol(t, party.c, options, /*seed_salt=*/0,
                                    [](const Matrix&) { return Vector{1.0}; })
                .status()};
        for (const Status& status : refused) {
          EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
              << "P=" << parties << " party " << i << ": " << status;
          EXPECT_NE(status.message().find(named), std::string::npos)
              << status;
        }
        EXPECT_EQ(t->metrics().total_bytes(), 0);
        return Status::Ok();
      });
      EXPECT_TRUE(run.ok()) << run;
    }
  }
}

// One party of N = 64 whose three covariate columns are independent
// ±(j+1) patterns with an exact zero mean, so per-party centering
// leaves C bit for bit as it is and changes only absorbed_params.
PartyData ZeroMeanCovariateParty() {
  constexpr int64_t kRows = 64;
  GwasWorkloadOptions options;
  options.party_sizes = {kRows};
  options.num_variants = 8;
  options.num_covariates = 3;
  options.num_causal = 1;
  options.seed = 5;
  PartyData party = MakeGwasWorkload(options).value().parties[0];
  for (int64_t i = 0; i < kRows; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      const bool negative = ((i >> j) & 1) != 0;
      party.c(i, j) = static_cast<double>(j + 1) * (negative ? -1.0 : 1.0);
    }
  }
  return party;
}

Matrix FlipLowestBit(const Matrix& c, int64_t i, int64_t j) {
  Matrix flipped = c;
  uint64_t bits = 0;
  std::memcpy(&bits, &flipped(i, j), sizeof(bits));
  bits ^= 1;
  std::memcpy(&flipped(i, j), &bits, sizeof(bits));
  return flipped;
}

TEST(Phase1FingerprintTest, SeesEveryPhase1Input) {
  const PartyData party = ZeroMeanCovariateParty();
  SecureScanOptions stack;
  stack.r_combine = RCombineMode::kBroadcastStack;
  SecureScanOptions tree = stack;
  tree.r_combine = RCombineMode::kBinaryTree;
  const uint64_t base = Phase1Fingerprint(party.c, 0, stack);
  EXPECT_EQ(Phase1Fingerprint(party.c, 0, stack), base);
  EXPECT_NE(Phase1Fingerprint(FlipLowestBit(party.c, 37, 1), 0, stack), base);
  EXPECT_NE(Phase1Fingerprint(party.c, 0, tree), base);
  EXPECT_NE(Phase1Fingerprint(party.c, 1, stack), base);
  // The same words read as cols x rows.
  Matrix swapped(party.c.cols(), party.c.rows());
  std::copy(party.c.data(), party.c.data() + party.c.size(), swapped.data());
  EXPECT_NE(Phase1Fingerprint(swapped, 0, stack), base);
}

TEST(Phase1FingerprintTest, EveryChangedInputTurnsACacheHitIntoAMiss) {
  const PartyData party = ZeroMeanCovariateParty();
  PartyData flipped = party;
  flipped.c = FlipLowestBit(party.c, 37, 1);
  SecureScanOptions plain;
  plain.r_combine = RCombineMode::kBroadcastStack;
  SecureScanOptions tree = plain;
  tree.r_combine = RCombineMode::kBinaryTree;
  SecureScanOptions centered = plain;  // absorbed_params 0 -> 1, same C
  centered.center_per_party = true;

  Phase1State state;
  const auto hit = [&state](const PartyData& data,
                            const SecureScanOptions& options) {
    InProcessMesh mesh(1);
    const auto out =
        RunPartySecureScan(mesh.endpoint(0), data, options, &state);
    EXPECT_TRUE(out.ok()) << out.status();
    return out.ok() && out->metrics.phase1_cache_hit;
  };
  EXPECT_FALSE(hit(party, plain));  // cold
  EXPECT_EQ(state.local_fingerprint, Phase1Fingerprint(party.c, 0, plain));
  struct Change {
    const char* name;
    const PartyData* data;
    const SecureScanOptions* options;
  };
  for (const Change& change : {Change{"one bit of C", &flipped, &plain},
                               Change{"r_combine", &party, &tree},
                               Change{"absorbed_params", &party, &centered}}) {
    // Warm the state on the unchanged inputs, then change one of them.
    (void)hit(party, plain);
    ASSERT_TRUE(hit(party, plain)) << change.name;
    EXPECT_FALSE(hit(*change.data, *change.options)) << change.name;
  }
}

}  // namespace
}  // namespace dash
