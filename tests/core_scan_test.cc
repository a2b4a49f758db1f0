// The plaintext association scan against the per-column OLS ground truth
// (the single-site version of the paper's §4 check).

#include "core/association_scan.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "data/genotype_generator.h"
#include "stats/ols.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/strings.h"

namespace dash {
namespace {

struct Study {
  Matrix x;
  Vector y;
  Matrix c;
};

Study MakeGaussianStudy(int64_t n, int64_t m, int64_t k, uint64_t seed) {
  Rng rng(seed);
  Study s;
  s.x = GaussianMatrix(n, m, &rng);
  s.c = GaussianMatrix(n, k, &rng);
  s.y = GaussianVector(n, &rng);
  return s;
}

void ExpectMatchesOls(const Study& s, const ScanResult& scan,
                      int64_t columns_to_check, double tol = 1e-9) {
  for (int64_t j = 0; j < columns_to_check; ++j) {
    const size_t i = static_cast<size_t>(j);
    const SingleCoefficientFit ols =
        FitTransientCoefficient(s.x.Col(j), s.c, s.y).value();
    EXPECT_NEAR(scan.beta[i], ols.beta, tol * std::max(1.0, std::fabs(ols.beta)))
        << "variant " << j;
    EXPECT_NEAR(scan.se[i], ols.standard_error, tol) << "variant " << j;
    EXPECT_NEAR(scan.tstat[i], ols.t_statistic,
                tol * std::max(1.0, std::fabs(ols.t_statistic)))
        << "variant " << j;
    EXPECT_NEAR(scan.pval[i], ols.p_value, tol) << "variant " << j;
    EXPECT_EQ(scan.dof, ols.dof);
  }
}

TEST(AssociationScanTest, MatchesPerColumnOls) {
  const Study s = MakeGaussianStudy(120, 20, 3, 1);
  const ScanResult scan = AssociationScan(s.x, s.y, s.c).value();
  EXPECT_EQ(scan.num_variants(), 20);
  EXPECT_EQ(scan.dof, 120 - 3 - 1);
  ExpectMatchesOls(s, scan, 20);
}

TEST(AssociationScanTest, WithInterceptCovariate) {
  Study s = MakeGaussianStudy(80, 10, 2, 2);
  s.c = WithInterceptColumn(s.c);
  // Shift y so the intercept matters.
  for (auto& v : s.y) v += 5.0;
  const ScanResult scan = AssociationScan(s.x, s.y, s.c).value();
  ExpectMatchesOls(s, scan, 10);
}

TEST(AssociationScanTest, RecoversPlantedEffect) {
  Study s = MakeGaussianStudy(2000, 5, 2, 3);
  // Plant a strong effect on variant 2.
  for (int64_t i = 0; i < 2000; ++i) s.y[static_cast<size_t>(i)] += 0.5 * s.x(i, 2);
  const ScanResult scan = AssociationScan(s.x, s.y, s.c).value();
  EXPECT_EQ(scan.TopHit(), 2);
  EXPECT_NEAR(scan.beta[2], 0.5, 0.1);
  EXPECT_LT(scan.pval[2], 1e-10);
  // Null variants stay unremarkable.
  EXPECT_GT(scan.pval[0], 1e-4);
}

TEST(AssociationScanTest, SparseMatchesDense) {
  GenotypeOptions geno;
  geno.num_samples = 150;
  geno.num_variants = 40;
  geno.maf_min = 0.02;
  geno.maf_max = 0.3;
  geno.seed = 4;
  const Matrix dense = GenerateGenotypes(geno);
  const SparseColumnMatrix sparse = SparseColumnMatrix::FromDense(dense);
  Rng rng(5);
  const Matrix c = WithInterceptColumn(GaussianMatrix(150, 2, &rng));
  const Vector y = GaussianVector(150, &rng);

  const ScanResult a = AssociationScan(dense, y, c).value();
  const ScanResult b = AssociationScanSparse(sparse, y, c).value();
  EXPECT_LT(MaxAbsDiff(a.beta, b.beta), 1e-12);
  EXPECT_LT(MaxAbsDiff(a.se, b.se), 1e-12);
  EXPECT_LT(MaxAbsDiff(a.pval, b.pval), 1e-12);
}

TEST(AssociationScanTest, ThreadedMatchesSerial) {
  const Study s = MakeGaussianStudy(100, 64, 3, 6);
  const ScanResult serial = AssociationScan(s.x, s.y, s.c).value();
  ScanOptions opts;
  opts.num_threads = 4;
  const ScanResult threaded = AssociationScan(s.x, s.y, s.c, opts).value();
  EXPECT_LT(MaxAbsDiff(serial.beta, threaded.beta), 0.0 + 1e-15);
  EXPECT_LT(MaxAbsDiff(serial.pval, threaded.pval), 0.0 + 1e-15);
}

TEST(AssociationScanTest, CollinearVariantIsFlaggedUntestable) {
  Study s = MakeGaussianStudy(50, 3, 2, 7);
  // Variant 1 is a linear combination of the permanent covariates.
  for (int64_t i = 0; i < 50; ++i) s.x(i, 1) = 2.0 * s.c(i, 0) - s.c(i, 1);
  const ScanResult scan = AssociationScan(s.x, s.y, s.c).value();
  EXPECT_EQ(scan.num_untestable, 1);
  EXPECT_TRUE(std::isnan(scan.beta[1]));
  EXPECT_TRUE(std::isnan(scan.pval[1]));
  EXPECT_FALSE(std::isnan(scan.beta[0]));
}

TEST(AssociationScanTest, MonomorphicVariantAgainstInterceptIsUntestable) {
  Study s = MakeGaussianStudy(40, 2, 1, 8);
  s.c = Matrix(40, 1);
  for (int64_t i = 0; i < 40; ++i) {
    s.c(i, 0) = 1.0;
    s.x(i, 0) = 2.0;  // constant dosage
  }
  const ScanResult scan = AssociationScan(s.x, s.y, s.c).value();
  EXPECT_TRUE(std::isnan(scan.beta[0]));
  EXPECT_FALSE(std::isnan(scan.beta[1]));
}

TEST(AssociationScanTest, PerfectFitHasZeroResidual) {
  Study s = MakeGaussianStudy(30, 2, 1, 9);
  // y exactly equals variant 0: residual variance after fitting is ~0.
  for (int64_t i = 0; i < 30; ++i) s.y[static_cast<size_t>(i)] = 3.0 * s.x(i, 0);
  const ScanResult scan = AssociationScan(s.x, s.y, s.c).value();
  EXPECT_NEAR(scan.beta[0], 3.0, 1e-10);
  EXPECT_LT(scan.pval[0], 1e-30);
}

TEST(AssociationScanTest, InputValidation) {
  EXPECT_FALSE(AssociationScan(Matrix(10, 2), Vector(9), Matrix(10, 1)).ok());
  EXPECT_FALSE(AssociationScan(Matrix(10, 2), Vector(10), Matrix(9, 1)).ok());
  // N <= K + 1.
  EXPECT_FALSE(AssociationScan(Matrix(4, 2), Vector(4), Matrix(4, 3)).ok());
  // Rank-deficient covariates.
  Matrix c(20, 2);
  for (int64_t i = 0; i < 20; ++i) {
    c(i, 0) = 1.0;
    c(i, 1) = 2.0;
  }
  EXPECT_FALSE(AssociationScan(Matrix(20, 2), Vector(20, 1.0), c).ok());
}

TEST(AssociationScanTest, ZeroCovariateRegressionThroughOrigin) {
  Rng rng(10);
  const Matrix x = GaussianMatrix(50, 3, &rng);
  Vector y(50);
  for (int64_t i = 0; i < 50; ++i) {
    y[static_cast<size_t>(i)] = 2.0 * x(i, 1) + rng.Gaussian(0.0, 0.1);
  }
  const ScanResult scan = AssociationScan(x, y, Matrix(50, 0)).value();
  EXPECT_EQ(scan.dof, 49);
  EXPECT_NEAR(scan.beta[1], 2.0, 0.05);
}

TEST(ScanResultTest, TopHitSkipsNans) {
  ScanResult r;
  r.beta = {1.0, std::nan(""), 2.0};
  r.se = {1.0, std::nan(""), 1.0};
  r.tstat = {1.0, std::nan(""), 2.0};
  r.pval = {0.3, std::nan(""), 0.04};
  EXPECT_EQ(r.TopHit(), 2);
  ScanResult empty;
  EXPECT_EQ(empty.TopHit(), -1);
}

TEST(ScanResultTest, WriteCsvProducesParsableTable) {
  Rng rng(11);
  const Study s = MakeGaussianStudy(30, 4, 1, 12);
  const ScanResult scan = AssociationScan(s.x, s.y, s.c).value();
  const std::string path = testing::TempDir() + "/scan_result.csv";
  ASSERT_TRUE(scan.WriteCsv(path).ok());
  const auto table = CsvTable::ReadFile(path).value();
  EXPECT_EQ(table.num_rows(), 4u);
  EXPECT_NEAR(table.DoubleAt(2, 1).value(), scan.beta[2], 1e-12);
  std::remove(path.c_str());
}

std::string Printf17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(ScanResultTest, WriteCsvBytesArePrintf17g) {
  // The edge cases of "%.17g": both NaN signs, both infinities, negative
  // zero, the smallest subnormal, the largest double, a value whose
  // shortest form is shorter than 17 digits, and both exponent switches.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {
      std::nan(""), -std::nan(""), inf, -inf, -0.0, 4.9406564584124654e-324,
      DBL_MAX, 0.1, 1.0, 1e21, 1e-5};
  const size_t n = values.size();
  ScanResult r;
  for (size_t i = 0; i < n; ++i) {
    // Each column sees every value, in a different row.
    r.beta.push_back(values[i]);
    r.se.push_back(values[(i + 1) % n]);
    r.tstat.push_back(values[(i + 2) % n]);
    r.pval.push_back(values[(i + 3) % n]);
  }
  std::ostringstream want;
  want << "variant,beta,se,tstat,pval\n";
  for (size_t i = 0; i < n; ++i) {
    want << i << ',' << Printf17g(r.beta[i]) << ',' << Printf17g(r.se[i])
         << ',' << Printf17g(r.tstat[i]) << ',' << Printf17g(r.pval[i])
         << '\n';
  }
  const std::string path = testing::TempDir() + "/scan_result_bytes.csv";
  ASSERT_TRUE(r.WriteCsv(path).ok());
  EXPECT_EQ(ReadFileBytes(path), want.str());
  std::remove(path.c_str());
  for (const double v : values) EXPECT_EQ(DoubleToString(v), Printf17g(v));
}

}  // namespace
}  // namespace dash
