#include "mpc/secure_sum.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mesh_sum_util.h"
#include "net/network.h"
#include "util/random.h"

namespace dash {
namespace {

std::vector<Vector> RandomInputs(int parties, size_t len, uint64_t seed,
                                 double scale = 100.0) {
  Rng rng(seed);
  std::vector<Vector> inputs(static_cast<size_t>(parties), Vector(len));
  for (auto& v : inputs) {
    for (auto& x : v) x = rng.Uniform(-scale, scale);
  }
  return inputs;
}

Vector PlainSum(const std::vector<Vector>& inputs) {
  Vector total(inputs[0].size(), 0.0);
  for (const auto& v : inputs) {
    for (size_t i = 0; i < v.size(); ++i) total[i] += v[i];
  }
  return total;
}

// Bytes each party sends for one Run() after the one-time setup.
std::vector<int64_t> SteadyStateBytesPerParty(AggregationMode mode,
                                              int parties, size_t len,
                                              uint64_t seed) {
  SecureSumOptions opts;
  opts.mode = mode;
  opts.frac_bits = 24;
  const auto inputs = RandomInputs(parties, len, seed);
  std::vector<int64_t> bytes(static_cast<size_t>(parties), 0);
  const Status status = RunPartiesInProcess(parties, [&](Transport* t) {
    const int p = t->local_party();
    PartySecureVectorSum sum(t, opts);
    DASH_RETURN_IF_ERROR(sum.Setup());
    const int64_t setup = t->metrics().BytesSentBy(p);
    DASH_RETURN_IF_ERROR(
        sum.Run(Secret<Vector>(inputs[static_cast<size_t>(p)])).status());
    bytes[static_cast<size_t>(p)] = t->metrics().BytesSentBy(p) - setup;
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status;
  return bytes;
}

// Bytes all parties send for one Run() after the one-time setup.
int64_t SteadyStateBytes(AggregationMode mode, int parties, size_t len,
                         uint64_t seed) {
  int64_t total = 0;
  for (const int64_t b : SteadyStateBytesPerParty(mode, parties, len, seed)) {
    total += b;
  }
  return total;
}

// Sweep: every aggregation mode, several party counts.
class SecureSumModeTest
    : public testing::TestWithParam<std::tuple<AggregationMode, int>> {};

TEST_P(SecureSumModeTest, SumsMatchPlainComputation) {
  const auto [mode, parties] = GetParam();
  SecureSumOptions opts;
  opts.mode = mode;
  opts.frac_bits = 32;

  const auto inputs = RandomInputs(parties, 37, 1000 + parties);
  const Vector expected = PlainSum(inputs);
  const Vector got = MeshSecureSum(inputs, opts).value();
  ASSERT_EQ(got.size(), expected.size());
  const double tol = (mode == AggregationMode::kPublicShare)
                         ? 1e-12
                         : parties * std::ldexp(1.0, -32) * 2;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], tol) << "element " << i;
  }
}

TEST_P(SecureSumModeTest, RepeatedRunsStayCorrect) {
  const auto [mode, parties] = GetParam();
  SecureSumOptions opts;
  opts.mode = mode;
  opts.frac_bits = 32;
  const Status status = RunPartiesInProcess(parties, [&](Transport* t) {
    PartySecureVectorSum sum(t, opts);
    for (int round = 0; round < 3; ++round) {
      const auto inputs =
          RandomInputs(parties, 5, 2000 + round * 10 + parties);
      const Vector expected = PlainSum(inputs);
      DASH_ASSIGN_OR_RETURN(
          Vector got,
          sum.Run(Secret<Vector>(
              inputs[static_cast<size_t>(t->local_party())])));
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], expected[i], 1e-6);
      }
    }
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status;
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndParties, SecureSumModeTest,
    testing::Combine(testing::Values(AggregationMode::kPublicShare,
                                     AggregationMode::kAdditive,
                                     AggregationMode::kMasked),
                     testing::Values(2, 3, 5, 8)));

TEST(SecureSumTest, SinglePartyShortCircuits) {
  SecureSumOptions opts;
  opts.mode = AggregationMode::kMasked;
  MeshTraffic traffic;
  const Vector got = MeshSecureSum({{1.0, 2.0}}, opts, &traffic).value();
  EXPECT_EQ(got, (Vector{1.0, 2.0}));
  EXPECT_EQ(traffic.total_bytes, 0);
}

// One party contributes a vector of another length: in every mode each
// party detects the desync from the lengths it receives and fails with
// FailedPrecondition; nobody hangs.
TEST(SecureSumTest, RaggedInputFailsEveryPartyWithDesync) {
  for (const AggregationMode mode :
       {AggregationMode::kPublicShare, AggregationMode::kAdditive,
        AggregationMode::kMasked}) {
    SecureSumOptions opts;
    opts.mode = mode;
    const std::vector<Vector> inputs = {{1.0}, {2.0}, {3.0, 4.0}};
    std::vector<Status> status(inputs.size());
    const Status cause = RunPartiesInProcess(3, [&](Transport* t) {
      const size_t p = static_cast<size_t>(t->local_party());
      PartySecureVectorSum sum(t, opts);
      status[p] = sum.Run(Secret<Vector>(inputs[p])).status();
      return status[p];
    });
    EXPECT_EQ(cause.code(), StatusCode::kFailedPrecondition)
        << AggregationModeName(mode) << ": " << cause;
    for (size_t p = 0; p < status.size(); ++p) {
      EXPECT_EQ(status[p].code(), StatusCode::kFailedPrecondition)
          << AggregationModeName(mode) << " party " << p << ": "
          << status[p];
    }
  }
}

TEST(SecureSumTest, FixedPointOverflowIsReported) {
  SecureSumOptions opts;
  opts.mode = AggregationMode::kAdditive;
  opts.frac_bits = 50;  // headroom only 2^13
  EXPECT_FALSE(MeshSecureSum({{1e6}, {1e6}}, opts).ok());
}

TEST(SecureSumTest, MaskedSetupIsIdempotentAndCostsOnce) {
  SecureSumOptions opts;
  opts.mode = AggregationMode::kMasked;
  const auto inputs = RandomInputs(4, 10, 5);
  const Status status = RunPartiesInProcess(4, [&](Transport* t) {
    PartySecureVectorSum sum(t, opts);
    DASH_RETURN_IF_ERROR(sum.Setup());
    const int64_t setup_bytes = t->metrics().total_bytes();
    EXPECT_GT(setup_bytes, 0);
    DASH_RETURN_IF_ERROR(sum.Setup());
    EXPECT_EQ(t->metrics().total_bytes(), setup_bytes);

    const Secret<Vector> input(inputs[static_cast<size_t>(t->local_party())]);
    DASH_RETURN_IF_ERROR(sum.Run(input).status());
    const int64_t after_first = t->metrics().total_bytes();
    DASH_RETURN_IF_ERROR(sum.Run(input).status());
    const int64_t after_second = t->metrics().total_bytes();
    // Steady-state cost per run excludes key agreement.
    EXPECT_EQ(after_second - after_first, after_first - setup_bytes);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status;
}

TEST(SecureSumTest, BytesScaleLinearlyInLength) {
  for (const AggregationMode mode :
       {AggregationMode::kAdditive, AggregationMode::kMasked}) {
    const int64_t bytes_small = SteadyStateBytes(mode, 3, 100, 6);
    const int64_t bytes_large = SteadyStateBytes(mode, 3, 1000, 7);
    // Fixed per-message overhead keeps the ratio just under 10x.
    EXPECT_GT(bytes_large, 9 * bytes_small) << AggregationModeName(mode);
    EXPECT_LT(bytes_large, 11 * bytes_small) << AggregationModeName(mode);
  }
}

// Party p's bytes in the reduce and gather rounds of one sum, each
// message with its 16-byte header: to every owner o it sends the full
// length, a length prefix and chunk o of its vector; then it sends its
// own opened chunk, length-prefixed, to every peer. Chunk o of an L-word
// vector is [o*L/P, (o+1)*L/P).
int64_t ReduceGatherBytes(size_t len, int parties, int p) {
  const auto chunk = [&](int o) {
    return static_cast<int64_t>(len * static_cast<size_t>(o + 1) /
                                    static_cast<size_t>(parties) -
                                len * static_cast<size_t>(o) /
                                    static_cast<size_t>(parties));
  };
  int64_t bytes = 0;
  for (int o = 0; o < parties; ++o) {
    if (o == p) continue;
    bytes += 16 + 8 + 8 + 8 * chunk(o);
    bytes += 16 + 8 + 8 * chunk(p);
  }
  return bytes;
}

// Reduce-scatter + all-gather: a party sends about 2(P-1)/P vectors'
// worth of words per sum, so its bytes stay below two vectors whatever
// P is. Additive pays a full share vector per peer first; its reduce and
// gather then cost what masked's do. L is prime, so the chunks are
// uneven.
TEST(SecureSumTest, MaskedBytesPerPartyIndependentOfP) {
  constexpr size_t kLen = 10007;
  for (const int parties : {3, 5, 8}) {
    for (const AggregationMode mode :
         {AggregationMode::kMasked, AggregationMode::kAdditive}) {
      const int64_t share_round =
          mode == AggregationMode::kMasked
              ? 0
              : (parties - 1) * (16 + 8 + 8 * static_cast<int64_t>(kLen));
      const std::vector<int64_t> bytes =
          SteadyStateBytesPerParty(mode, parties, kLen, 11);
      for (int p = 0; p < parties; ++p) {
        const int64_t reveal = bytes[static_cast<size_t>(p)] - share_round;
        EXPECT_EQ(reveal, ReduceGatherBytes(kLen, parties, p))
            << AggregationModeName(mode) << " P=" << parties << " party "
            << p;
        EXPECT_LT(reveal, 2 * 8 * static_cast<int64_t>(kLen) + 64 * parties)
            << AggregationModeName(mode) << " P=" << parties << " party "
            << p;
      }
    }
  }
}

TEST(SecureSumTest, MaskedIsCheapestSecureMode) {
  const int64_t masked = SteadyStateBytes(AggregationMode::kMasked, 4, 500, 8);
  const int64_t additive =
      SteadyStateBytes(AggregationMode::kAdditive, 4, 500, 8);
  EXPECT_LT(masked, additive);
}

TEST(SecureSumTest, NegativeAndTinyValuesSurviveQuantization) {
  SecureSumOptions opts;
  opts.mode = AggregationMode::kMasked;
  opts.frac_bits = 48;
  const std::vector<Vector> inputs = {{-1e-10}, {2e-10}, {-0.5e-10}};
  EXPECT_NEAR(MeshSecureSum(inputs, opts).value()[0], 0.5e-10,
              std::ldexp(3.0, -48));
}

}  // namespace
}  // namespace dash
