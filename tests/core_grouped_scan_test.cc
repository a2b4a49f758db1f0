// The grouped (multiple transient covariates) scan and its F tests.

#include "core/grouped_scan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/association_scan.h"
#include "data/genotype_generator.h"
#include "stats/distributions.h"
#include "stats/ols.h"
#include "util/random.h"

namespace dash {
namespace {

struct Study {
  Matrix x;
  Vector y;
  Matrix c;
};

Study MakeStudy(int64_t n, int64_t cols, int64_t k, uint64_t seed) {
  Rng rng(seed);
  Study s;
  s.x = GaussianMatrix(n, cols, &rng);
  s.c = WithInterceptColumn(GaussianMatrix(n, k - 1, &rng));
  s.y = GaussianVector(n, &rng);
  return s;
}

// Reference F statistic from two explicit OLS fits (full vs null).
double ReferenceF(const Matrix& xg, const Vector& y, const Matrix& c) {
  Matrix full(c.rows(), xg.cols() + c.cols());
  for (int64_t i = 0; i < c.rows(); ++i) {
    for (int64_t j = 0; j < xg.cols(); ++j) full(i, j) = xg(i, j);
    for (int64_t j = 0; j < c.cols(); ++j) full(i, xg.cols() + j) = c(i, j);
  }
  const OlsFit full_fit = FitOls(full, y).value();
  const OlsFit null_fit = FitOls(c, y).value();
  const double t = static_cast<double>(xg.cols());
  return ((null_fit.rss - full_fit.rss) / t) /
         (full_fit.rss / static_cast<double>(full_fit.dof));
}

TEST(GroupedScanTest, MatchesExplicitFTest) {
  const Study s = MakeStudy(120, 12, 3, 1);  // 4 groups of 3
  const GroupedScanResult g = GroupedScan(s.x, 3, s.y, s.c).value();
  ASSERT_EQ(g.num_groups(), 4);
  EXPECT_EQ(g.dof1, 3);
  EXPECT_EQ(g.dof2, 120 - 3 - 3);
  for (int64_t grp = 0; grp < 4; ++grp) {
    const Matrix xg = SliceCols(s.x, grp * 3, (grp + 1) * 3);
    const double f_ref = ReferenceF(xg, s.y, s.c);
    EXPECT_NEAR(g.fstat[static_cast<size_t>(grp)], f_ref, 1e-8)
        << "group " << grp;
    EXPECT_NEAR(g.pval[static_cast<size_t>(grp)],
                FSf(f_ref, 3.0, static_cast<double>(g.dof2)), 1e-10);
  }
}

TEST(GroupedScanTest, CoefficientsMatchJointOls) {
  const Study s = MakeStudy(90, 4, 2, 2);  // 2 groups of 2
  const GroupedScanResult g = GroupedScan(s.x, 2, s.y, s.c).value();
  for (int64_t grp = 0; grp < 2; ++grp) {
    const Matrix xg = SliceCols(s.x, grp * 2, (grp + 1) * 2);
    Matrix full(s.c.rows(), 2 + s.c.cols());
    for (int64_t i = 0; i < s.c.rows(); ++i) {
      full(i, 0) = xg(i, 0);
      full(i, 1) = xg(i, 1);
      for (int64_t j = 0; j < s.c.cols(); ++j) full(i, 2 + j) = s.c(i, j);
    }
    const OlsFit fit = FitOls(full, s.y).value();
    for (int64_t a = 0; a < 2; ++a) {
      EXPECT_NEAR(g.beta(a, grp), fit.coefficients[static_cast<size_t>(a)],
                  1e-9);
      // The grouped scan's sigma² uses dof2 = N-K-T; the full OLS fit's
      // dof differs only through the shared covariates -> same here.
      EXPECT_NEAR(g.se(a, grp), fit.standard_errors[static_cast<size_t>(a)],
                  1e-9);
    }
  }
}

TEST(GroupedScanTest, GroupSizeOneMatchesPlainScan) {
  const Study s = MakeStudy(100, 7, 3, 3);
  const GroupedScanResult g = GroupedScan(s.x, 1, s.y, s.c).value();
  const ScanResult plain = AssociationScan(s.x, s.y, s.c).value();
  for (int64_t j = 0; j < 7; ++j) {
    const size_t i = static_cast<size_t>(j);
    EXPECT_NEAR(g.beta(0, j), plain.beta[i], 1e-10);
    EXPECT_NEAR(g.se(0, j), plain.se[i], 1e-10);
    // F on (1, dof) equals t² and the p-values coincide.
    EXPECT_NEAR(g.fstat[i], plain.tstat[i] * plain.tstat[i], 1e-8);
    EXPECT_NEAR(g.pval[i], plain.pval[i], 1e-10);
  }
}

TEST(GroupedScanTest, SecureMatchesPlaintext) {
  const Study s = MakeStudy(150, 10, 2, 4);
  const auto parties = SplitRows(s.x, s.y, s.c, {50, 60, 40}).value();
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureGroupedScanOutput secure =
      SecureGroupedScan(parties, 2, opts).value();
  const GroupedScanResult plain = GroupedScan(s.x, 2, s.y, s.c).value();
  EXPECT_LT(MaxAbsDiff(secure.result.fstat, plain.fstat), 1e-4);
  EXPECT_LT(MaxAbsDiff(secure.result.pval, plain.pval), 1e-6);
  EXPECT_LT(MaxAbsDiff(secure.result.beta, plain.beta), 1e-6);
  EXPECT_GT(secure.metrics.total_bytes, 0);
}

TEST(GroupedScanTest, SecureRejectsProjectionAndCentering) {
  // The grouped summand is summed and revealed as it is, so options that
  // would hide Qᵀy and QᵀX_g or absorb P degrees of freedom must fail
  // loudly instead of being ignored.
  const Study s = MakeStudy(150, 10, 2, 4);
  const auto parties = SplitRows(s.x, s.y, s.c, {50, 60, 40}).value();
  SecureScanOptions beaver;
  beaver.projection = ProjectionSecurity::kBeaverDotProducts;
  SecureScanOptions centered;
  centered.center_per_party = true;
  for (const auto& [opts, option] :
       {std::pair{beaver, "projection"}, std::pair{centered, "center_per_party"}}) {
    const auto out = SecureGroupedScan(parties, 2, opts);
    ASSERT_FALSE(out.ok()) << option;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().message().find(option), std::string::npos)
        << out.status();
  }
}

TEST(GroupedScanTest, DetectsPureInteractionEffect) {
  Rng rng(5);
  const int64_t n = 1200;
  const Matrix x = GaussianMatrix(n, 6, &rng);
  Vector e(static_cast<size_t>(n));
  Matrix c(n, 2);
  for (int64_t i = 0; i < n; ++i) {
    e[static_cast<size_t>(i)] = rng.Bernoulli(0.5) ? 0.5 : -0.5;
    c(i, 0) = 1.0;
    c(i, 1) = e[static_cast<size_t>(i)];
  }
  Vector y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    y[static_cast<size_t>(i)] =
        0.5 * x(i, 2) * e[static_cast<size_t>(i)] + rng.Gaussian();
  }
  const Matrix x_gxe = WithInteractionTerms(x, e).value();
  ASSERT_EQ(x_gxe.cols(), 12);
  const GroupedScanResult g = GroupedScan(x_gxe, 2, y, c).value();
  // Group 2 carries the interaction; marginal scan misses it.
  EXPECT_LT(g.pval[2], 1e-8);
  const ScanResult marginal = AssociationScan(x, y, c).value();
  EXPECT_GT(marginal.pval[2], 1e-4);
  // The interaction coefficient is recovered with the right sign.
  EXPECT_NEAR(g.beta(1, 2), 0.5, 0.15);
}

TEST(GroupedScanTest, CollinearGroupIsUntestable) {
  Study s = MakeStudy(80, 4, 2, 6);
  // Make group 1's two columns identical -> singular residual Gram.
  for (int64_t i = 0; i < 80; ++i) s.x(i, 3) = s.x(i, 2);
  const GroupedScanResult g = GroupedScan(s.x, 2, s.y, s.c).value();
  EXPECT_EQ(g.num_untestable, 1);
  EXPECT_TRUE(std::isnan(g.pval[1]));
  EXPECT_FALSE(std::isnan(g.pval[0]));
}

TEST(GroupedScanTest, Validation) {
  const Study s = MakeStudy(50, 6, 2, 7);
  EXPECT_FALSE(GroupedScan(s.x, 4, s.y, s.c).ok());   // 6 % 4 != 0
  EXPECT_FALSE(GroupedScan(s.x, 0, s.y, s.c).ok());
  EXPECT_FALSE(GroupedScan(Matrix(50, 0), 1, s.y, s.c).ok());
  EXPECT_FALSE(GroupedScan(s.x, 2, Vector(49), s.c).ok());
  // N <= K + T.
  const Study tiny = MakeStudy(5, 4, 3, 8);
  EXPECT_FALSE(GroupedScan(tiny.x, 4, tiny.y, tiny.c).ok());
  // Interaction builder shape check.
  EXPECT_FALSE(WithInteractionTerms(s.x, Vector(49)).ok());
}

TEST(FDistributionTest, KnownValues) {
  // F(1, d) = t(d)²: P(F <= f) = P(|T| <= sqrt(f)).
  for (const double f : {0.5, 2.0, 5.0}) {
    const double via_t =
        1.0 - StudentTTwoSidedPValue(std::sqrt(f), 10.0);
    EXPECT_NEAR(FCdf(f, 1.0, 10.0), via_t, 1e-12);
  }
  // 95th percentile of F(2, 20) is 3.492828.
  EXPECT_NEAR(FSf(3.4928, 2.0, 20.0), 0.05, 1e-4);
  EXPECT_DOUBLE_EQ(FCdf(0.0, 3.0, 7.0), 0.0);
  EXPECT_DOUBLE_EQ(FSf(-1.0, 3.0, 7.0), 1.0);
  for (const double f : {0.3, 1.0, 4.0}) {
    EXPECT_NEAR(FCdf(f, 5.0, 9.0) + FSf(f, 5.0, 9.0), 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace dash
