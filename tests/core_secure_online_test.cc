// Secure online GWAS: streaming enrollment with repeated, cheap,
// secure re-finalization.

#include "core/secure_online_scan.h"

#include <gtest/gtest.h>

#include "core/association_scan.h"
#include "data/genotype_generator.h"
#include "util/random.h"

namespace dash {
namespace {

struct Batch {
  Matrix x;
  Vector y;
  Matrix c;
};

Batch MakeBatch(int64_t n, int64_t m, int64_t k, Rng* rng) {
  Batch b;
  b.x = GaussianMatrix(n, m, rng);
  b.c = GaussianMatrix(n, k, rng);
  b.y.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    b.y[static_cast<size_t>(i)] = 0.3 * b.x(i, 1) + rng->Gaussian();
  }
  return b;
}

TEST(SecureOnlineScanTest, StreamedEqualsFromScratch) {
  Rng rng(1);
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  SecureOnlineScan online(3, 8, 2, opts);

  std::vector<Matrix> all_x;
  std::vector<Matrix> all_c;
  Vector all_y;
  // Interleaved enrollment: parties receive batches in arbitrary order.
  const int owners[] = {0, 2, 1, 0, 1, 2, 2};
  for (const int owner : owners) {
    const Batch b = MakeBatch(15 + static_cast<int64_t>(rng.UniformInt(20)),
                              8, 2, &rng);
    ASSERT_TRUE(online.AddBatch(owner, b.x, b.y, b.c).ok());
    all_x.push_back(b.x);
    all_c.push_back(b.c);
    all_y.insert(all_y.end(), b.y.begin(), b.y.end());
  }
  EXPECT_EQ(online.batches_seen(), 7);

  const auto out = online.Finalize().value();
  EXPECT_EQ(out.result_checksum, ScanResultChecksum(out.result));
  const ScanResult direct =
      AssociationScan(VStack(all_x), all_y, VStack(all_c)).value();
  EXPECT_EQ(out.result.dof, direct.dof);
  EXPECT_LT(MaxAbsDiff(out.result.beta, direct.beta), 1e-5);
  EXPECT_LT(MaxAbsDiff(out.result.pval, direct.pval), 1e-5);
}

TEST(SecureOnlineScanTest, RefinalizationCostIsConstantInSamples) {
  Rng rng(2);
  SecureOnlineScan online(2, 10, 1, {});
  const Batch first = MakeBatch(30, 10, 1, &rng);
  ASSERT_TRUE(online.AddBatch(0, first.x, first.y, first.c).ok());
  const Batch second = MakeBatch(25, 10, 1, &rng);
  ASSERT_TRUE(online.AddBatch(1, second.x, second.y, second.c).ok());
  const int64_t bytes_small = online.Finalize().value().metrics.total_bytes;

  // Pour in 10x more data; the aggregation bytes must not change.
  for (int wave = 0; wave < 10; ++wave) {
    const Batch b = MakeBatch(60, 10, 1, &rng);
    ASSERT_TRUE(online.AddBatch(wave % 2, b.x, b.y, b.c).ok());
  }
  const int64_t bytes_large = online.Finalize().value().metrics.total_bytes;
  EXPECT_EQ(bytes_small, bytes_large);
}

TEST(SecureOnlineScanTest, IntermediateFinalizationsTrackPrefixes) {
  Rng rng(3);
  SecureOnlineScan online(2, 5, 1, {});
  std::vector<Matrix> xs;
  std::vector<Matrix> cs;
  Vector ys;
  for (int wave = 0; wave < 3; ++wave) {
    for (int party = 0; party < 2; ++party) {
      const Batch b = MakeBatch(20, 5, 1, &rng);
      ASSERT_TRUE(online.AddBatch(party, b.x, b.y, b.c).ok());
      xs.push_back(b.x);
      cs.push_back(b.c);
      ys.insert(ys.end(), b.y.begin(), b.y.end());
    }
    const auto out = online.Finalize().value();
    const ScanResult direct =
        AssociationScan(VStack(xs), ys, VStack(cs)).value();
    EXPECT_LT(MaxAbsDiff(out.result.beta, direct.beta), 1e-5)
        << "wave " << wave;
    EXPECT_EQ(online.samples_seen(), static_cast<int64_t>(ys.size()));
  }
}

TEST(SecureOnlineScanTest, PartiesWithoutDataYetAreFine) {
  // Party 1 never enrolls anyone; its zero accumulator contributes
  // nothing and the protocol still runs.
  Rng rng(4);
  SecureOnlineScan online(3, 4, 1, {});
  const Batch b = MakeBatch(40, 4, 1, &rng);
  ASSERT_TRUE(online.AddBatch(0, b.x, b.y, b.c).ok());
  const auto out = online.Finalize().value();
  const ScanResult direct = AssociationScan(b.x, b.y, b.c).value();
  EXPECT_LT(MaxAbsDiff(out.result.beta, direct.beta), 1e-5);
}

TEST(SecureOnlineScanTest, Validation) {
  SecureOnlineScan online(2, 5, 1, {});
  EXPECT_FALSE(online.Finalize().ok());  // no data yet
  Rng rng(5);
  const Batch b = MakeBatch(10, 5, 1, &rng);
  EXPECT_FALSE(online.AddBatch(7, b.x, b.y, b.c).ok());   // bad party
  EXPECT_FALSE(online.AddBatch(-1, b.x, b.y, b.c).ok());
  const Batch wrong = MakeBatch(10, 6, 1, &rng);
  EXPECT_FALSE(online.AddBatch(0, wrong.x, wrong.y, wrong.c).ok());
  EXPECT_FALSE(online.AddBatch(0, b.x, Vector(9), b.c).ok());
}

}  // namespace
}  // namespace dash
