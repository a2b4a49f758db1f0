// Missing-data handling and the secure mean-imputation protocol.

#include "core/imputation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/association_scan.h"
#include "data/genotype_generator.h"
#include "data/missing_data.h"
#include "util/random.h"

namespace dash {
namespace {

TEST(MissingDataTest, SumsCountsAndImputation) {
  Matrix x = {{1.0, std::nan("")}, {std::nan(""), 4.0}, {2.0, 6.0}};
  EXPECT_EQ(CountMissing(x), 2);
  const ColumnMoments m = ColumnSumsAndCounts(x);
  EXPECT_DOUBLE_EQ(m.sums[0], 3.0);
  EXPECT_DOUBLE_EQ(m.counts[0], 2.0);
  EXPECT_DOUBLE_EQ(m.sums[1], 10.0);
  EXPECT_DOUBLE_EQ(m.counts[1], 2.0);
  ImputeWithMeans({1.5, 5.0}, &x);
  EXPECT_EQ(CountMissing(x), 0);
  EXPECT_DOUBLE_EQ(x(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(x(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(x(2, 1), 6.0);  // observed entries untouched
}

TEST(MissingDataTest, InjectMissingnessRate) {
  Rng rng(1);
  Matrix x(200, 50);
  InjectMissingness(0.1, &rng, &x);
  const double rate =
      static_cast<double>(CountMissing(x)) / static_cast<double>(x.size());
  EXPECT_NEAR(rate, 0.1, 0.02);
  Matrix y(10, 10);
  InjectMissingness(0.0, &rng, &y);
  EXPECT_EQ(CountMissing(y), 0);
}

std::vector<PartyData> MakePartiesWithMissingness(uint64_t seed,
                                                  double rate) {
  Rng rng(seed);
  std::vector<PartyData> parties;
  for (const int64_t n : {int64_t{60}, int64_t{80}, int64_t{70}}) {
    PartyData p;
    GenotypeOptions geno;
    geno.num_samples = n;
    geno.num_variants = 15;
    geno.seed = rng.NextU64();
    p.x = GenerateGenotypes(geno);
    InjectMissingness(rate, &rng, &p.x);
    p.c = WithInterceptColumn(GaussianMatrix(n, 1, &rng));
    p.y = GaussianVector(n, &rng);
    parties.push_back(std::move(p));
  }
  return parties;
}

TEST(SecureImputationTest, MatchesPooledImputation) {
  auto parties = MakePartiesWithMissingness(2, 0.08);
  // Reference: pool, compute global means in the clear, impute.
  auto reference = parties;
  const PooledData pooled = PoolParties(reference).value();
  const ColumnMoments global = ColumnSumsAndCounts(pooled.x);
  Vector means(global.sums.size());
  for (size_t j = 0; j < means.size(); ++j) {
    means[j] = (global.counts[j] > 0) ? global.sums[j] / global.counts[j] : 0.0;
  }
  for (auto& p : reference) ImputeWithMeans(means, &p.x);

  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureImputationOutput out =
      SecureMeanImpute(&parties, opts).value();
  EXPECT_GT(out.total_missing, 0);
  EXPECT_LT(MaxAbsDiff(out.means, means), 1e-8);
  for (size_t p = 0; p < parties.size(); ++p) {
    EXPECT_EQ(CountMissing(parties[p].x), 0);
    EXPECT_LT(MaxAbsDiff(parties[p].x, reference[p].x), 1e-8);
  }
  // Call rates in (0, 1], roughly 1 - rate.
  for (const double cr : out.call_rates) {
    EXPECT_GT(cr, 0.8);
    EXPECT_LE(cr, 1.0);
  }
}

TEST(SecureImputationTest, ImputedScanMatchesPooledImputedScan) {
  auto parties = MakePartiesWithMissingness(3, 0.05);
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kAdditive;
  ASSERT_TRUE(SecureMeanImpute(&parties, opts).ok());
  const auto secure = SecureAssociationScan(opts).Run(parties).value();

  // Pooled reference with the same imputation.
  const PooledData pooled = PoolParties(parties).value();
  const ScanResult plain =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();
  EXPECT_LT(MaxAbsDiff(secure.result.beta, plain.beta), 1e-6);
  EXPECT_LT(MaxAbsDiff(secure.result.pval, plain.pval), 1e-6);
}

TEST(SecureImputationTest, AcceptsTheScansCentering) {
  // dash_scan_cli --impute hands the scan's options to the imputation;
  // centering configures the scan, not the column means.
  auto plain_parties = MakePartiesWithMissingness(6, 0.1);
  auto parties = plain_parties;
  const SecureImputationOutput plain =
      SecureMeanImpute(&plain_parties, {}).value();
  SecureScanOptions opts;
  opts.center_per_party = true;
  const auto out = SecureMeanImpute(&parties, opts);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->means, plain.means);
}

TEST(SecureImputationTest, FullyMissingColumnImputesToZero) {
  auto parties = MakePartiesWithMissingness(4, 0.0);
  for (auto& p : parties) {
    for (int64_t i = 0; i < p.x.rows(); ++i) p.x(i, 3) = std::nan("");
  }
  const SecureImputationOutput out = SecureMeanImpute(&parties, {}).value();
  EXPECT_DOUBLE_EQ(out.means[3], 0.0);
  EXPECT_DOUBLE_EQ(out.call_rates[3], 0.0);
  // The dead column becomes constant zero -> untestable in the scan.
  SecureScanOptions opts;
  const auto scan = SecureAssociationScan(opts).Run(parties).value();
  EXPECT_TRUE(std::isnan(scan.result.beta[3]));
}

TEST(SecureImputationTest, NoMissingnessIsIdentity) {
  auto parties = MakePartiesWithMissingness(5, 0.0);
  const auto before = parties;
  const SecureImputationOutput out = SecureMeanImpute(&parties, {}).value();
  EXPECT_EQ(out.total_missing, 0);
  for (size_t p = 0; p < parties.size(); ++p) {
    EXPECT_LT(MaxAbsDiff(parties[p].x, before[p].x), 1e-8);
  }
}

}  // namespace
}  // namespace dash
