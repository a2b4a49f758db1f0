#include "core/distributed_qr.h"

#include <gtest/gtest.h>

#include "core/party_local.h"
#include "data/genotype_generator.h"
#include "linalg/qr.h"
#include "net/network.h"
#include "util/random.h"

namespace dash {
namespace {

std::vector<PartyData> MakeParties(const std::vector<int64_t>& sizes,
                                   int64_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<PartyData> parties;
  for (const int64_t n : sizes) {
    PartyData pd;
    pd.c = GaussianMatrix(n, k, &rng);
    pd.x = Matrix(n, 1);
    pd.y = Vector(static_cast<size_t>(n), 0.0);
    parties.push_back(std::move(pd));
  }
  return parties;
}

// Runs the combination as P threads, party p holding local_r[p]; every
// party must end with the same factor. Returns party 0's result.
Result<DistributedQrResult> Combine(const std::vector<Matrix>& local_r,
                                    RCombineMode mode,
                                    MeshTraffic* traffic = nullptr) {
  std::vector<DistributedQrResult> out(local_r.size());
  DASH_RETURN_IF_ERROR(RunPartiesInProcess(
      static_cast<int>(local_r.size()),
      [&](Transport* t) -> Status {
        const size_t p = static_cast<size_t>(t->local_party());
        DASH_ASSIGN_OR_RETURN(out[p],
                              CombineRFactorsOverNetwork(t, local_r[p], mode));
        return Status::Ok();
      },
      traffic));
  for (const auto& r : out) EXPECT_EQ(MaxAbsDiff(r.r, out[0].r), 0.0);
  return out[0];
}

class DistributedQrModeTest : public testing::TestWithParam<RCombineMode> {};

TEST_P(DistributedQrModeTest, MatchesPooledFactorization) {
  const auto parties = MakeParties({12, 20, 9, 15}, 3, 1);
  std::vector<Matrix> local_r;
  std::vector<Matrix> blocks;
  for (const auto& p : parties) {
    local_r.push_back(PartyLocalRFactor(p).value());
    blocks.push_back(p.c);
  }
  const DistributedQrResult result = Combine(local_r, GetParam()).value();
  const Matrix pooled_r = QrRFactor(VStack(blocks)).value();
  EXPECT_LT(MaxAbsDiff(result.r, pooled_r), 1e-11);
  EXPECT_LT(MaxAbsDiff(MatMul(result.r, result.r_inverse),
                       Matrix::Identity(3)),
            1e-11);
}

TEST_P(DistributedQrModeTest, PartyLocalQsAssembleGlobalBasis) {
  const auto parties = MakeParties({8, 30, 14}, 2, 2);
  std::vector<Matrix> local_r;
  for (const auto& p : parties) local_r.push_back(PartyLocalRFactor(p).value());
  const DistributedQrResult result = Combine(local_r, GetParam()).value();
  std::vector<Matrix> qs;
  for (const auto& p : parties) qs.push_back(PartyLocalQ(p, result.r_inverse));
  const Matrix q = VStack(qs);
  EXPECT_LT(MaxAbsDiff(TransposeMatMul(q, q), Matrix::Identity(2)), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Modes, DistributedQrModeTest,
                         testing::Values(RCombineMode::kBroadcastStack,
                                         RCombineMode::kBinaryTree));

TEST(DistributedQrTest, TreeUsesLogRounds) {
  for (const int p : {2, 3, 4, 8, 13}) {
    std::vector<int64_t> sizes(static_cast<size_t>(p), 10);
    const auto parties = MakeParties(sizes, 2, 50 + static_cast<uint64_t>(p));
    std::vector<Matrix> local_r;
    for (const auto& pd : parties) {
      local_r.push_back(PartyLocalRFactor(pd).value());
    }
    MeshTraffic traffic;
    ASSERT_TRUE(Combine(local_r, RCombineMode::kBinaryTree, &traffic).ok());
    int expected = 0;
    int cover = 1;
    while (cover < p) {
      cover *= 2;
      ++expected;
    }
    EXPECT_EQ(traffic.rounds, expected + 1) << "P=" << p;  // +1 final broadcast
  }
}

TEST(DistributedQrTest, TreeMovesFewerBytesThanBroadcastForManyParties) {
  const int p = 16;
  std::vector<int64_t> sizes(p, 8);
  const auto parties = MakeParties(sizes, 4, 3);
  std::vector<Matrix> local_r;
  for (const auto& pd : parties) local_r.push_back(PartyLocalRFactor(pd).value());

  MeshTraffic broadcast;
  ASSERT_TRUE(Combine(local_r, RCombineMode::kBroadcastStack, &broadcast).ok());
  MeshTraffic tree;
  ASSERT_TRUE(Combine(local_r, RCombineMode::kBinaryTree, &tree).ok());
  // Broadcast: P(P-1) R messages; tree: (P-1) merges + (P-1) broadcast.
  EXPECT_LT(tree.total_bytes, broadcast.total_bytes);
}

TEST(DistributedQrTest, RBytesAreIndependentOfSampleCounts) {
  const auto small = MakeParties({5, 6, 7}, 3, 4);
  const auto large = MakeParties({500, 600, 700}, 3, 5);
  int64_t bytes_small = 0;
  int64_t bytes_large = 0;
  {
    std::vector<Matrix> rs;
    for (const auto& pd : small) rs.push_back(PartyLocalRFactor(pd).value());
    MeshTraffic traffic;
    ASSERT_TRUE(Combine(rs, RCombineMode::kBroadcastStack, &traffic).ok());
    bytes_small = traffic.total_bytes;
  }
  {
    std::vector<Matrix> rs;
    for (const auto& pd : large) rs.push_back(PartyLocalRFactor(pd).value());
    MeshTraffic traffic;
    ASSERT_TRUE(Combine(rs, RCombineMode::kBroadcastStack, &traffic).ok());
    bytes_large = traffic.total_bytes;
  }
  EXPECT_EQ(bytes_small, bytes_large);
}

TEST(DistributedQrTest, SinglePartySkipsTheNetwork) {
  const auto parties = MakeParties({25}, 3, 6);
  MeshTraffic traffic;
  const DistributedQrResult result =
      Combine({PartyLocalRFactor(parties[0]).value()},
              RCombineMode::kBroadcastStack, &traffic)
          .value();
  EXPECT_EQ(traffic.total_bytes, 0);
  EXPECT_LT(MaxAbsDiff(result.r, QrRFactor(parties[0].c).value()), 1e-13);
}

TEST(DistributedQrTest, Validation) {
  // A party's own factor must be square.
  EXPECT_EQ(Combine({Matrix(2, 3), Matrix(2, 2)}, RCombineMode::kBroadcastStack)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Parties whose factors disagree in K are out of sync, in both modes.
  for (const RCombineMode mode :
       {RCombineMode::kBroadcastStack, RCombineMode::kBinaryTree}) {
    EXPECT_EQ(Combine({Matrix::Identity(2), Matrix::Identity(3)}, mode)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition)
        << RCombineModeName(mode);
  }
}

TEST(DistributedQrTest, RFactorDisclosureIsTiny) {
  // The paper's point: R_p is K x K regardless of N_p.
  const auto parties = MakeParties({100000 / 100, 7}, 4, 7);
  const Matrix r_big = PartyLocalRFactor(parties[0]).value();
  const Matrix r_small = PartyLocalRFactor(parties[1]).value();
  EXPECT_EQ(r_big.rows(), 4);
  EXPECT_EQ(r_big.cols(), 4);
  EXPECT_EQ(r_small.rows(), 4);
}

}  // namespace
}  // namespace dash
