// Randomized property sweeps across the protocol configuration space —
// the "does the central equivalence survive everything we throw at it"
// suite, plus statistical invariances of the scan itself.

#include <gtest/gtest.h>

#include <cmath>

#include "core/association_scan.h"
#include "core/secure_scan.h"
#include "data/genotype_generator.h"
#include "data/party_split.h"
#include "stats/ols.h"
#include "util/random.h"

namespace dash {
namespace {

// ---------------------------------------------------------------------
// Sweep 1: the central equivalence over random shapes and configs.
// ---------------------------------------------------------------------

struct SweepConfig {
  uint64_t seed;
  int parties;
  int64_t k;
  AggregationMode mode;
};

class EquivalenceSweepTest : public testing::TestWithParam<SweepConfig> {};

TEST_P(EquivalenceSweepTest, SecureEqualsPooledOls) {
  const SweepConfig cfg = GetParam();
  Rng rng(cfg.seed);
  // Random per-party sizes in [k+2, k+40].
  std::vector<PartyData> parties;
  const int64_t m = 8 + static_cast<int64_t>(rng.UniformInt(10));
  for (int p = 0; p < cfg.parties; ++p) {
    const int64_t n = cfg.k + 2 + static_cast<int64_t>(rng.UniformInt(39));
    PartyData pd;
    pd.x = GaussianMatrix(n, m, &rng);
    pd.c = GaussianMatrix(n, cfg.k, &rng);
    pd.y = GaussianVector(n, &rng);
    parties.push_back(std::move(pd));
  }

  SecureScanOptions opts;
  opts.aggregation = cfg.mode;
  opts.seed = cfg.seed * 31 + 7;
  const auto out = SecureAssociationScan(opts).Run(parties);
  ASSERT_TRUE(out.ok()) << out.status();

  const PooledData pooled = PoolParties(parties).value();
  // Spot-check three random columns against full per-column OLS.
  for (int check = 0; check < 3; ++check) {
    const int64_t j = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(m)));
    const SingleCoefficientFit ols =
        FitTransientCoefficient(pooled.x.Col(j), pooled.c, pooled.y).value();
    const size_t i = static_cast<size_t>(j);
    EXPECT_NEAR(out->result.beta[i], ols.beta, 1e-5) << "col " << j;
    EXPECT_NEAR(out->result.se[i], ols.standard_error, 1e-5) << "col " << j;
    EXPECT_EQ(out->result.dof, ols.dof);
  }
}

std::vector<SweepConfig> MakeSweep() {
  std::vector<SweepConfig> configs;
  const AggregationMode modes[] = {AggregationMode::kPublicShare,
                                   AggregationMode::kAdditive,
                                   AggregationMode::kMasked};
  uint64_t seed = 1000;
  for (const auto mode : modes) {
    for (const int parties : {2, 4, 7}) {
      for (const int64_t k : {int64_t{1}, int64_t{3}}) {
        configs.push_back({++seed, parties, k, mode});
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(Configs, EquivalenceSweepTest,
                         testing::ValuesIn(MakeSweep()));

// ---------------------------------------------------------------------
// Sweep 2: statistical invariances of the scan.
// ---------------------------------------------------------------------

struct Study {
  Matrix x;
  Vector y;
  Matrix c;
};

Study MakeStudy(uint64_t seed) {
  Rng rng(seed);
  Study s;
  s.x = GaussianMatrix(80, 10, &rng);
  s.c = WithInterceptColumn(GaussianMatrix(80, 2, &rng));
  s.y.resize(80);
  for (int64_t i = 0; i < 80; ++i) {
    s.y[static_cast<size_t>(i)] = 0.3 * s.x(i, 4) + rng.Gaussian();
  }
  return s;
}

class InvarianceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(InvarianceTest, ScalingX) {
  const Study s = MakeStudy(GetParam());
  const ScanResult base = AssociationScan(s.x, s.y, s.c).value();
  Matrix scaled = s.x;
  for (int64_t i = 0; i < scaled.size(); ++i) scaled.data()[i] *= 4.0;
  const ScanResult out = AssociationScan(scaled, s.y, s.c).value();
  for (int64_t j = 0; j < 10; ++j) {
    const size_t i = static_cast<size_t>(j);
    // beta scales by 1/4, t and p are invariant.
    EXPECT_NEAR(out.beta[i], base.beta[i] / 4.0, 1e-10);
    EXPECT_NEAR(out.tstat[i], base.tstat[i], 1e-8);
    EXPECT_NEAR(out.pval[i], base.pval[i], 1e-10);
  }
}

TEST_P(InvarianceTest, ScalingY) {
  const Study s = MakeStudy(GetParam() + 100);
  const ScanResult base = AssociationScan(s.x, s.y, s.c).value();
  Vector scaled = s.y;
  Scale(2.5, &scaled);
  const ScanResult out = AssociationScan(s.x, scaled, s.c).value();
  for (int64_t j = 0; j < 10; ++j) {
    const size_t i = static_cast<size_t>(j);
    EXPECT_NEAR(out.beta[i], 2.5 * base.beta[i], 1e-9);
    EXPECT_NEAR(out.tstat[i], base.tstat[i], 1e-8);
  }
}

TEST_P(InvarianceTest, ShiftingYWithInterceptPresent) {
  const Study s = MakeStudy(GetParam() + 200);
  const ScanResult base = AssociationScan(s.x, s.y, s.c).value();
  Vector shifted = s.y;
  for (auto& v : shifted) v += 100.0;
  const ScanResult out = AssociationScan(s.x, shifted, s.c).value();
  // The intercept absorbs the shift entirely.
  for (int64_t j = 0; j < 10; ++j) {
    const size_t i = static_cast<size_t>(j);
    EXPECT_NEAR(out.beta[i], base.beta[i], 1e-7);
    EXPECT_NEAR(out.pval[i], base.pval[i], 1e-7);
  }
}

TEST_P(InvarianceTest, CovariateBasisChange) {
  // Replacing C by C*T for invertible T changes nothing (same span).
  const Study s = MakeStudy(GetParam() + 300);
  const ScanResult base = AssociationScan(s.x, s.y, s.c).value();
  Rng rng(GetParam() + 400);
  Matrix t(3, 3);
  do {
    t = GaussianMatrix(3, 3, &rng);
  } while (std::fabs(t(0, 0) * (t(1, 1) * t(2, 2) - t(1, 2) * t(2, 1)) -
                     t(0, 1) * (t(1, 0) * t(2, 2) - t(1, 2) * t(2, 0)) +
                     t(0, 2) * (t(1, 0) * t(2, 1) - t(1, 1) * t(2, 0))) <
           0.1);
  const Matrix transformed = MatMul(s.c, t);
  const ScanResult out = AssociationScan(s.x, s.y, transformed).value();
  EXPECT_LT(MaxAbsDiff(out.beta, base.beta), 1e-8);
  EXPECT_LT(MaxAbsDiff(out.pval, base.pval), 1e-8);
}

TEST_P(InvarianceTest, RowPermutation) {
  // Sample order is statistically irrelevant.
  const Study s = MakeStudy(GetParam() + 500);
  const ScanResult base = AssociationScan(s.x, s.y, s.c).value();
  // Reverse all rows.
  Study rev = s;
  for (int64_t i = 0; i < 80; ++i) {
    for (int64_t j = 0; j < 10; ++j) rev.x(i, j) = s.x(79 - i, j);
    for (int64_t j = 0; j < 3; ++j) rev.c(i, j) = s.c(79 - i, j);
    rev.y[static_cast<size_t>(i)] = s.y[static_cast<size_t>(79 - i)];
  }
  const ScanResult out = AssociationScan(rev.x, rev.y, rev.c).value();
  EXPECT_LT(MaxAbsDiff(out.beta, base.beta), 1e-10);
  EXPECT_LT(MaxAbsDiff(out.tstat, base.tstat), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvarianceTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------
// Sweep 3: numerical stress.
// ---------------------------------------------------------------------

TEST(NumericalStressTest, NearCollinearCovariatesStillFactor) {
  Rng rng(7);
  for (const double eps : {1e-2, 1e-4, 1e-6}) {
    Matrix c(60, 3);
    for (int64_t i = 0; i < 60; ++i) {
      const double base = rng.Gaussian();
      c(i, 0) = 1.0;
      c(i, 1) = base;
      c(i, 2) = base + eps * rng.Gaussian();  // nearly collinear
    }
    const Matrix x = GaussianMatrix(60, 4, &rng);
    const Vector y = GaussianVector(60, &rng);
    const auto scan = AssociationScan(x, y, c);
    ASSERT_TRUE(scan.ok()) << "eps=" << eps << ": " << scan.status();
    for (const double p : scan->pval) {
      EXPECT_FALSE(std::isnan(p)) << "eps=" << eps;
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(NumericalStressTest, WildlyScaledCovariates) {
  // Columns spanning 12 orders of magnitude (e.g. raw age vs genotype
  // PCs) must not destabilize the QR-based path.
  Rng rng(8);
  Matrix c(100, 3);
  for (int64_t i = 0; i < 100; ++i) {
    c(i, 0) = 1.0;
    c(i, 1) = 1e6 * rng.Gaussian();
    c(i, 2) = 1e-6 * rng.Gaussian();
  }
  const Matrix x = GaussianMatrix(100, 5, &rng);
  Vector y(100);
  for (int64_t i = 0; i < 100; ++i) {
    y[static_cast<size_t>(i)] = 0.4 * x(i, 1) + rng.Gaussian();
  }
  const ScanResult scan = AssociationScan(x, y, c).value();
  EXPECT_EQ(scan.TopHit(), 1);
  EXPECT_LT(scan.pval[1], 1e-3);
  // Cross-check one column against OLS at these scales.
  const SingleCoefficientFit ols =
      FitTransientCoefficient(x.Col(1), c, y).value();
  EXPECT_NEAR(scan.beta[1], ols.beta, 1e-7);
}

TEST(NumericalStressTest, TinyResidualVarianceStaysFinite) {
  // y almost exactly in the span of [x_m, C]: sigma² near zero must not
  // produce negative variances or NaN p-values.
  Rng rng(9);
  const Matrix x = GaussianMatrix(50, 2, &rng);
  const Matrix c = WithInterceptColumn(GaussianMatrix(50, 1, &rng));
  Vector y(50);
  for (int64_t i = 0; i < 50; ++i) {
    y[static_cast<size_t>(i)] =
        2.0 * x(i, 0) + c(i, 1) + 1e-9 * rng.Gaussian();
  }
  const ScanResult scan = AssociationScan(x, y, c).value();
  EXPECT_NEAR(scan.beta[0], 2.0, 1e-6);
  EXPECT_GE(scan.se[0], 0.0);
  EXPECT_LE(scan.pval[0], 1e-30);
}

}  // namespace
}  // namespace dash
