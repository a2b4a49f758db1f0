// Cᵀ-compression with post-hoc covariate/phenotype selection.

#include "core/compressed_study.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/association_scan.h"
#include "data/genotype_generator.h"
#include "util/random.h"

namespace dash {
namespace {

struct Study {
  Matrix x;
  Matrix ys;
  Matrix c;
};

Study MakeStudy(int64_t n, int64_t m, int64_t k, int64_t t, uint64_t seed) {
  Rng rng(seed);
  Study s;
  s.x = GaussianMatrix(n, m, &rng);
  s.c = WithInterceptColumn(GaussianMatrix(n, k - 1, &rng));
  s.ys = GaussianMatrix(n, t, &rng);
  return s;
}

TEST(CompressedStudyTest, AllCovariatesMatchesDirectScan) {
  const Study s = MakeStudy(100, 12, 4, 2, 1);
  const CompressedStudy study =
      CompressedStudy::Compress(s.x, s.ys, s.c).value();
  EXPECT_EQ(study.num_samples(), 100);
  EXPECT_EQ(study.num_variants(), 12);
  EXPECT_EQ(study.num_covariates(), 4);
  EXPECT_EQ(study.num_phenotypes(), 2);
  for (int64_t t = 0; t < 2; ++t) {
    const ScanResult compressed = study.ScanAllCovariates(t).value();
    const ScanResult direct =
        AssociationScan(s.x, s.ys.Col(t), s.c).value();
    EXPECT_EQ(compressed.dof, direct.dof);
    EXPECT_LT(MaxAbsDiff(compressed.beta, direct.beta), 1e-9);
    EXPECT_LT(MaxAbsDiff(compressed.se, direct.se), 1e-9);
    EXPECT_LT(MaxAbsDiff(compressed.pval, direct.pval), 1e-9);
  }
}

TEST(CompressedStudyTest, EveryCovariateSubsetMatchesDirectScan) {
  const Study s = MakeStudy(80, 6, 3, 1, 2);
  const CompressedStudy study =
      CompressedStudy::Compress(s.x, s.ys, s.c).value();
  // All 8 subsets of {0, 1, 2}.
  for (int mask = 0; mask < 8; ++mask) {
    std::vector<int64_t> subset;
    for (int64_t j = 0; j < 3; ++j) {
      if (mask & (1 << j)) subset.push_back(j);
    }
    const ScanResult compressed = study.Scan(0, subset).value();
    // Direct scan with the selected covariate columns.
    Matrix c_sub(80, static_cast<int64_t>(subset.size()));
    for (size_t a = 0; a < subset.size(); ++a) {
      for (int64_t i = 0; i < 80; ++i) c_sub(i, static_cast<int64_t>(a)) = s.c(i, subset[a]);
    }
    const ScanResult direct =
        AssociationScan(s.x, s.ys.Col(0), c_sub).value();
    EXPECT_EQ(compressed.dof, direct.dof) << "mask " << mask;
    EXPECT_LT(MaxAbsDiff(compressed.beta, direct.beta), 1e-8)
        << "mask " << mask;
    EXPECT_LT(MaxAbsDiff(compressed.pval, direct.pval), 1e-8)
        << "mask " << mask;
  }
}

TEST(CompressedStudyTest, SecureCompressionMatchesPooled) {
  Rng rng(3);
  std::vector<MultiPhenotypePartyData> parties;
  std::vector<Matrix> xs, cs, yss;
  for (const int64_t n : {int64_t{50}, int64_t{70}, int64_t{60}}) {
    MultiPhenotypePartyData pd;
    pd.x = GaussianMatrix(n, 10, &rng);
    pd.c = GaussianMatrix(n, 3, &rng);
    pd.ys = GaussianMatrix(n, 2, &rng);
    xs.push_back(pd.x);
    cs.push_back(pd.c);
    yss.push_back(pd.ys);
    parties.push_back(std::move(pd));
  }
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const auto secure = CompressedStudy::SecureCompress(parties, opts).value();
  EXPECT_GT(secure.metrics.total_bytes, 0);

  const Matrix x = VStack(xs);
  const Matrix c = VStack(cs);
  const Matrix ys = VStack(yss);
  // Post-hoc: scan phenotype 1 with covariate {0, 2} only — decided
  // AFTER the one aggregation round, with zero further communication.
  const ScanResult from_secure = secure.study.Scan(1, {0, 2}).value();
  Matrix c_sub(x.rows(), 2);
  for (int64_t i = 0; i < x.rows(); ++i) {
    c_sub(i, 0) = c(i, 0);
    c_sub(i, 1) = c(i, 2);
  }
  const ScanResult direct = AssociationScan(x, ys.Col(1), c_sub).value();
  EXPECT_LT(MaxAbsDiff(from_secure.beta, direct.beta), 1e-5);
  EXPECT_LT(MaxAbsDiff(from_secure.pval, direct.pval), 1e-5);
}

TEST(CompressedStudyTest, SecureRejectsCentering) {
  // The compressed study reveals the summed Cᵀ statistics themselves, so
  // centering, which would absorb P degrees of freedom, must fail loudly
  // instead of being ignored — in both secure entry points.
  std::vector<MultiPhenotypePartyData> parties;
  std::vector<CompressedStudy> locals;
  for (const uint64_t seed : {uint64_t{11}, uint64_t{12}}) {
    const Study s = MakeStudy(40, 5, 2, 1, seed);
    parties.push_back({s.x, s.ys, s.c});
    locals.push_back(CompressedStudy::Compress(s.x, s.ys, s.c).value());
  }
  SecureScanOptions centered;
  centered.center_per_party = true;
  for (const auto& out : {CompressedStudy::SecureCompress(parties, centered),
                          CompressedStudy::SecureAggregate(locals, centered)}) {
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().message().find("center_per_party"),
              std::string::npos)
        << out.status();
  }
}

TEST(CompressedStudyTest, MergeEqualsCompressingTheUnion) {
  const Study a = MakeStudy(40, 5, 2, 1, 4);
  const Study b = MakeStudy(60, 5, 2, 1, 5);
  CompressedStudy merged = CompressedStudy::Compress(a.x, a.ys, a.c).value();
  ASSERT_TRUE(
      merged.Merge(CompressedStudy::Compress(b.x, b.ys, b.c).value()).ok());
  EXPECT_EQ(merged.num_samples(), 100);

  const Matrix x = VStack({a.x, b.x});
  const Matrix c = VStack({a.c, b.c});
  const Matrix ys = VStack({a.ys, b.ys});
  const CompressedStudy whole = CompressedStudy::Compress(x, ys, c).value();
  const ScanResult from_merge = merged.ScanAllCovariates().value();
  const ScanResult from_whole = whole.ScanAllCovariates().value();
  EXPECT_LT(MaxAbsDiff(from_merge.beta, from_whole.beta), 1e-11);
  EXPECT_LT(MaxAbsDiff(from_merge.pval, from_whole.pval), 1e-11);
}

TEST(CompressedStudyTest, Validation) {
  const Study s = MakeStudy(30, 4, 2, 1, 6);
  EXPECT_FALSE(CompressedStudy::Compress(s.x, Matrix(29, 1), s.c).ok());
  EXPECT_FALSE(CompressedStudy::Compress(s.x, Matrix(30, 0), s.c).ok());
  const CompressedStudy study =
      CompressedStudy::Compress(s.x, s.ys, s.c).value();
  EXPECT_FALSE(study.Scan(5, {}).ok());       // phenotype out of range
  EXPECT_FALSE(study.Scan(0, {7}).ok());      // covariate out of range
  EXPECT_FALSE(study.Scan(0, {0, 0}).ok());   // duplicate
  const Study other = MakeStudy(30, 9, 2, 1, 7);
  CompressedStudy mutable_study = study;
  EXPECT_FALSE(
      mutable_study
          .Merge(CompressedStudy::Compress(other.x, other.ys, other.c).value())
          .ok());
  EXPECT_FALSE(CompressedStudy::SecureCompress({}).ok());
}

TEST(CompressedStudyTest, ZeroCovariateScan) {
  const Study s = MakeStudy(50, 3, 2, 1, 8);
  const CompressedStudy study =
      CompressedStudy::Compress(s.x, s.ys, s.c).value();
  const ScanResult none = study.Scan(0, {}).value();
  const ScanResult direct =
      AssociationScan(s.x, s.ys.Col(0), Matrix(50, 0)).value();
  EXPECT_EQ(none.dof, 49);
  EXPECT_LT(MaxAbsDiff(none.beta, direct.beta), 1e-11);
}

}  // namespace
}  // namespace dash
