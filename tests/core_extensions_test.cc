// The §5 generalizations: meta baseline, gene burden, multiple
// phenotypes, mixed models, and the online Cᵀ-compression scan.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/association_scan.h"
#include "core/burden_scan.h"
#include "core/meta_scan.h"
#include "core/mixed_model.h"
#include "core/multi_phenotype_scan.h"
#include "core/online_scan.h"
#include "core/secure_scan.h"
#include "data/genotype_generator.h"
#include "data/workloads.h"
#include "util/random.h"

namespace dash {
namespace {

ScanWorkload SmallGwas(uint64_t seed = 21) {
  GwasWorkloadOptions opts;
  opts.party_sizes = {80, 120, 100};
  opts.num_variants = 60;
  opts.num_covariates = 3;
  opts.num_causal = 3;
  opts.effect_size = 0.4;
  opts.seed = seed;
  return MakeGwasWorkload(opts).value();
}

// --- Meta-analysis scan ---

TEST(MetaScanTest, HomogeneousDataAgreesWithPooledDirection) {
  const ScanWorkload w = SmallGwas();
  const MetaScanResult meta = MetaAnalysisScan(w.parties).value();
  const PooledData pooled = PoolParties(w.parties).value();
  const ScanResult pooled_scan =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();

  int compared = 0;
  for (int64_t j = 0; j < meta.num_variants(); ++j) {
    const size_t i = static_cast<size_t>(j);
    if (std::isnan(meta.beta[i]) || std::isnan(pooled_scan.beta[i])) continue;
    // Same estimand: estimates track within a few joint standard errors.
    EXPECT_NEAR(meta.beta[i], pooled_scan.beta[i],
                5.0 * (meta.se[i] + pooled_scan.se[i]))
        << "variant " << j;
    ++compared;
  }
  EXPECT_GT(compared, 50);
}

TEST(MetaScanTest, MetaSeIsNeverMeaningfullySmallerThanPooled) {
  const ScanWorkload w = SmallGwas(22);
  const MetaScanResult meta = MetaAnalysisScan(w.parties).value();
  const PooledData pooled = PoolParties(w.parties).value();
  const ScanResult pooled_scan =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();
  int meta_larger = 0;
  int total = 0;
  for (int64_t j = 0; j < meta.num_variants(); ++j) {
    const size_t i = static_cast<size_t>(j);
    if (std::isnan(meta.se[i]) || std::isnan(pooled_scan.se[i])) continue;
    ++total;
    meta_larger += (meta.se[i] > 0.97 * pooled_scan.se[i]);
  }
  // Pooling is (weakly) more efficient; allow a small noise margin.
  EXPECT_GT(meta_larger, total * 9 / 10);
}

TEST(MetaScanTest, DetectsPlantedHeterogeneity) {
  // Same variant, opposite effects in two parties -> large Cochran's Q.
  Rng rng(23);
  std::vector<PartyData> parties;
  for (const double effect : {0.8, -0.8}) {
    PartyData pd;
    pd.x = GaussianMatrix(300, 4, &rng);
    pd.c = Matrix(300, 1);
    pd.y.resize(300);
    for (int64_t i = 0; i < 300; ++i) {
      pd.c(i, 0) = 1.0;
      pd.y[static_cast<size_t>(i)] = effect * pd.x(i, 0) + rng.Gaussian();
    }
    parties.push_back(std::move(pd));
  }
  const MetaScanResult meta = MetaAnalysisScan(parties).value();
  EXPECT_LT(meta.q_pval[0], 1e-6);      // heterogeneity detected
  EXPECT_GT(meta.q_pval[1], 0.001);     // null variant looks homogeneous
  EXPECT_GT(meta.tau2[0], 0.1);         // random-effects sees variance
  EXPECT_GT(meta.re_se[0], meta.se[0]); // and widens the interval
}

TEST(MetaScanTest, RequiresEveryPartyToBeFittable) {
  ScanWorkload w = SmallGwas(24);
  // Shrink one party below K+2 samples.
  w.parties[0].x = SliceRows(w.parties[0].x, 0, 4);
  w.parties[0].c = SliceRows(w.parties[0].c, 0, 4);
  w.parties[0].y.resize(4);
  EXPECT_FALSE(MetaAnalysisScan(w.parties).ok());
}

// --- Gene burden ---

TEST(BurdenScanTest, WeightMatrixFromAssignment) {
  const Matrix w =
      BurdenWeightsFromGeneAssignment({0, 1, 0, 2}, 3).value();
  EXPECT_EQ(w.rows(), 4);
  EXPECT_EQ(w.cols(), 3);
  EXPECT_DOUBLE_EQ(w(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(w(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(w(1, 0), 0.0);
  EXPECT_FALSE(BurdenWeightsFromGeneAssignment({0, 5}, 3).ok());
  EXPECT_FALSE(BurdenWeightsFromGeneAssignment({0}, 0).ok());
}

TEST(BurdenScanTest, EqualsScanOnProjectedMatrix) {
  const ScanWorkload w = SmallGwas(25);
  const PooledData pooled = PoolParties(w.parties).value();
  std::vector<int64_t> genes(60);
  for (size_t v = 0; v < genes.size(); ++v) genes[v] = static_cast<int64_t>(v % 10);
  const Matrix weights = BurdenWeightsFromGeneAssignment(genes, 10).value();

  const ScanResult direct =
      AssociationScan(MatMul(pooled.x, weights), pooled.y, pooled.c).value();
  const ScanResult burden =
      BurdenScan(pooled.x, weights, pooled.y, pooled.c).value();
  EXPECT_LT(MaxAbsDiff(direct.beta, burden.beta), 1e-13);
  EXPECT_LT(MaxAbsDiff(direct.pval, burden.pval), 1e-13);
}

TEST(BurdenScanTest, SecureMatchesPlaintext) {
  const ScanWorkload w = SmallGwas(26);
  const PooledData pooled = PoolParties(w.parties).value();
  std::vector<int64_t> genes(60);
  for (size_t v = 0; v < genes.size(); ++v) genes[v] = static_cast<int64_t>(v / 6);
  const Matrix weights = BurdenWeightsFromGeneAssignment(genes, 10).value();

  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const SecureScanOutput secure =
      SecureBurdenScan(w.parties, weights, opts).value();
  const ScanResult plain =
      BurdenScan(pooled.x, weights, pooled.y, pooled.c).value();
  EXPECT_EQ(secure.result.num_variants(), 10);
  EXPECT_LT(MaxAbsDiff(secure.result.beta, plain.beta), 1e-6);
  EXPECT_LT(MaxAbsDiff(secure.result.pval, plain.pval), 1e-6);
}

TEST(BurdenScanTest, ValidatesWeightShape) {
  const ScanWorkload w = SmallGwas(27);
  EXPECT_FALSE(ApplyBurdenWeights(w.parties, Matrix(7, 3)).ok());
  const PooledData pooled = PoolParties(w.parties).value();
  EXPECT_FALSE(
      BurdenScan(pooled.x, Matrix(7, 3), pooled.y, pooled.c).ok());
}

// --- Multiple phenotypes ---

TEST(MultiPhenotypeTest, EachPhenotypeMatchesSingleScan) {
  Rng rng(28);
  const Matrix x = GaussianMatrix(100, 12, &rng);
  const Matrix c = WithInterceptColumn(GaussianMatrix(100, 2, &rng));
  Matrix ys(100, 3);
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t i = 0; i < 100; ++i) {
      ys(i, t) = 0.2 * static_cast<double>(t) * x(i, t) + rng.Gaussian();
    }
  }
  const auto multi = MultiPhenotypeScan(x, ys, c).value();
  ASSERT_EQ(multi.size(), 3u);
  for (int64_t t = 0; t < 3; ++t) {
    const ScanResult single = AssociationScan(x, ys.Col(t), c).value();
    EXPECT_LT(MaxAbsDiff(multi[static_cast<size_t>(t)].beta, single.beta),
              1e-11);
    EXPECT_LT(MaxAbsDiff(multi[static_cast<size_t>(t)].pval, single.pval),
              1e-11);
  }
}

TEST(MultiPhenotypeTest, SecureMatchesPlaintextPerPhenotype) {
  Rng rng(29);
  std::vector<MultiPhenotypePartyData> parties;
  std::vector<Matrix> xs;
  std::vector<Matrix> cs;
  std::vector<Matrix> yss;
  for (const int64_t n : {int64_t{50}, int64_t{70}}) {
    MultiPhenotypePartyData pd;
    pd.x = GaussianMatrix(n, 8, &rng);
    pd.c = GaussianMatrix(n, 2, &rng);
    pd.ys = GaussianMatrix(n, 4, &rng);
    xs.push_back(pd.x);
    cs.push_back(pd.c);
    yss.push_back(pd.ys);
    parties.push_back(std::move(pd));
  }
  SecureScanOptions opts;
  opts.aggregation = AggregationMode::kMasked;
  const auto secure = SecureMultiPhenotypeScan(parties, opts).value();
  ASSERT_EQ(secure.results.size(), 4u);

  const Matrix x = VStack(xs);
  const Matrix c = VStack(cs);
  const Matrix ys = VStack(yss);
  const auto plain = MultiPhenotypeScan(x, ys, c).value();
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_LT(MaxAbsDiff(secure.results[t].beta, plain[t].beta), 1e-6);
    EXPECT_LT(MaxAbsDiff(secure.results[t].pval, plain[t].pval), 1e-6);
  }
}

TEST(MultiPhenotypeTest, MarginalPhenotypeCostIsSmall) {
  Rng rng(30);
  std::vector<MultiPhenotypePartyData> one;
  std::vector<MultiPhenotypePartyData> eight;
  for (const int64_t n : {int64_t{40}, int64_t{40}}) {
    MultiPhenotypePartyData pd;
    pd.x = GaussianMatrix(n, 100, &rng);
    pd.c = GaussianMatrix(n, 2, &rng);
    pd.ys = GaussianMatrix(n, 1, &rng);
    one.push_back(pd);
    pd.ys = GaussianMatrix(n, 8, &rng);
    eight.push_back(std::move(pd));
  }
  const auto m1 = SecureMultiPhenotypeScan(one).value().metrics;
  const auto m8 = SecureMultiPhenotypeScan(eight).value().metrics;
  // X-side statistics dominate: 8 phenotypes cost far less than 8x.
  EXPECT_LT(static_cast<double>(m8.total_bytes),
            3.0 * static_cast<double>(m1.total_bytes));
}

TEST(MultiPhenotypeTest, SecureRejectsProjectionAndCentering) {
  // The multi-phenotype summand is summed and revealed as it is, so
  // options that would hide Qᵀy and QᵀX or absorb P degrees of freedom
  // must fail loudly instead of being ignored.
  Rng rng(31);
  std::vector<MultiPhenotypePartyData> parties;
  for (const int64_t n : {int64_t{40}, int64_t{50}}) {
    MultiPhenotypePartyData pd;
    pd.x = GaussianMatrix(n, 6, &rng);
    pd.c = GaussianMatrix(n, 2, &rng);
    pd.ys = GaussianMatrix(n, 2, &rng);
    parties.push_back(std::move(pd));
  }
  SecureScanOptions beaver;
  beaver.projection = ProjectionSecurity::kBeaverDotProducts;
  SecureScanOptions centered;
  centered.center_per_party = true;
  for (const auto& [opts, option] :
       {std::pair{beaver, "projection"}, std::pair{centered, "center_per_party"}}) {
    const auto out = SecureMultiPhenotypeScan(parties, opts);
    ASSERT_FALSE(out.ok()) << option;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().message().find(option), std::string::npos)
        << out.status();
  }
}

TEST(MultiPhenotypeTest, ValidatesShapes) {
  MultiPhenotypePartyData bad;
  bad.x = Matrix(10, 3);
  bad.c = Matrix(10, 1);
  bad.ys = Matrix(9, 2);  // wrong rows
  EXPECT_FALSE(SecureMultiPhenotypeScan({bad}).ok());
  EXPECT_FALSE(SecureMultiPhenotypeScan({}).ok());
  EXPECT_FALSE(MultiPhenotypeScan(Matrix(10, 2), Matrix(10, 0), Matrix(10, 1))
                   .ok());
}

// --- Mixed model ---

TEST(MixedModelTest, GrmIsSymmetricWithUnitDiagonalScale) {
  GenotypeOptions geno;
  geno.num_samples = 40;
  geno.num_variants = 200;
  geno.seed = 31;
  const Matrix g = GenerateGenotypes(geno);
  const Matrix grm = ComputeGrm(g);
  EXPECT_EQ(grm.rows(), 40);
  double diag_mean = 0.0;
  for (int64_t i = 0; i < 40; ++i) {
    diag_mean += grm(i, i);
    for (int64_t j = 0; j < 40; ++j) {
      EXPECT_NEAR(grm(i, j), grm(j, i), 1e-12);
    }
  }
  // Standardized GRM has mean diagonal ≈ 1.
  EXPECT_NEAR(diag_mean / 40.0, 1.0, 0.15);
}

TEST(MixedModelTest, DeltaZeroReducesToPlainScan) {
  Rng rng(32);
  const Matrix x = GaussianMatrix(50, 6, &rng);
  const Matrix c = WithInterceptColumn(GaussianMatrix(50, 1, &rng));
  const Vector y = GaussianVector(50, &rng);
  const Matrix kinship = ComputeGrm(GaussianMatrix(50, 80, &rng));

  const ScanResult plain = AssociationScan(x, y, c).value();
  const ScanResult lmm = MixedModelScan(x, y, c, kinship, 0.0).value();
  EXPECT_LT(MaxAbsDiff(plain.beta, lmm.beta), 1e-8);
  EXPECT_LT(MaxAbsDiff(plain.se, lmm.se), 1e-8);
}

TEST(MixedModelTest, TransformWhitensTheCovariance) {
  Rng rng(33);
  const Matrix kinship = ComputeGrm(GaussianMatrix(30, 60, &rng));
  const double delta = 1.7;
  const MixedModelTransform t =
      MixedModelTransform::Build(kinship, delta).value();
  // W (delta K + I) Wᵀ = I.
  Matrix v(30, 30);
  for (int64_t i = 0; i < 30; ++i) {
    for (int64_t j = 0; j < 30; ++j) {
      v(i, j) = delta * kinship(i, j) + (i == j ? 1.0 : 0.0);
    }
  }
  Matrix w(30, 30);
  for (int64_t i = 0; i < 30; ++i) {
    const Vector e_i = [&] {
      Vector e(30, 0.0);
      e[static_cast<size_t>(i)] = 1.0;
      return e;
    }();
    const Vector wi = t.ApplyToVector(e_i);
    for (int64_t r = 0; r < 30; ++r) w(r, i) = wi[static_cast<size_t>(r)];
  }
  const Matrix wvwt = MatMul(MatMul(w, v), Transpose(w));
  EXPECT_LT(MaxAbsDiff(wvwt, Matrix::Identity(30)), 1e-8);
}

TEST(MixedModelTest, Validation) {
  EXPECT_FALSE(MixedModelTransform::Build(Matrix(3, 4), 1.0).ok());
  EXPECT_FALSE(MixedModelTransform::Build(Matrix::Identity(3), -1.0).ok());
  Rng rng(34);
  EXPECT_FALSE(MixedModelScan(Matrix(10, 2), Vector(10), Matrix(10, 1),
                              Matrix::Identity(9), 1.0)
                   .ok());
}

// --- Online scan (Cᵀ compression) ---

TEST(OnlineScanTest, BatchedEqualsFullScan) {
  Rng rng(35);
  const Matrix x = GaussianMatrix(120, 10, &rng);
  const Matrix c = WithInterceptColumn(GaussianMatrix(120, 2, &rng));
  Vector y(120);
  for (int64_t i = 0; i < 120; ++i) {
    y[static_cast<size_t>(i)] = 0.4 * x(i, 3) + rng.Gaussian();
  }
  const ScanResult full = AssociationScan(x, y, c).value();

  OnlineScan online(10, 3);
  int64_t start = 0;
  for (const int64_t batch : {int64_t{17}, int64_t{40}, int64_t{1}, int64_t{62}}) {
    const Matrix xb = SliceRows(x, start, start + batch);
    const Matrix cb = SliceRows(c, start, start + batch);
    const Vector yb(y.begin() + start, y.begin() + start + batch);
    ASSERT_TRUE(online.AddBatch(xb, yb, cb).ok());
    start += batch;
  }
  ASSERT_EQ(start, 120);
  EXPECT_EQ(online.samples_seen(), 120);
  EXPECT_EQ(online.batches_seen(), 4);

  const ScanResult incremental = online.Finalize().value();
  EXPECT_EQ(incremental.dof, full.dof);
  EXPECT_LT(MaxAbsDiff(incremental.beta, full.beta), 1e-9);
  EXPECT_LT(MaxAbsDiff(incremental.se, full.se), 1e-9);
  EXPECT_LT(MaxAbsDiff(incremental.pval, full.pval), 1e-9);
}

TEST(OnlineScanTest, IntermediateFinalizationsAreConsistent) {
  // Finalizing after each batch equals a from-scratch scan of the prefix.
  Rng rng(36);
  const Matrix x = GaussianMatrix(90, 5, &rng);
  const Matrix c = WithInterceptColumn(GaussianMatrix(90, 1, &rng));
  const Vector y = GaussianVector(90, &rng);

  OnlineScan online(5, 2);
  for (int64_t start = 0; start < 90; start += 30) {
    const Matrix xb = SliceRows(x, start, start + 30);
    const Matrix cb = SliceRows(c, start, start + 30);
    const Vector yb(y.begin() + start, y.begin() + start + 30);
    ASSERT_TRUE(online.AddBatch(xb, yb, cb).ok());
    const Matrix xp = SliceRows(x, 0, start + 30);
    const Matrix cp = SliceRows(c, 0, start + 30);
    const Vector yp(y.begin(), y.begin() + start + 30);
    const ScanResult prefix = AssociationScan(xp, yp, cp).value();
    const ScanResult incr = online.Finalize().value();
    EXPECT_LT(MaxAbsDiff(incr.beta, prefix.beta), 1e-9);
    EXPECT_LT(MaxAbsDiff(incr.pval, prefix.pval), 1e-9);
  }
}

TEST(OnlineScanTest, Validation) {
  OnlineScan online(5, 2);
  EXPECT_FALSE(online.Finalize().ok());  // no data yet
  EXPECT_FALSE(online.AddBatch(Matrix(10, 4), Vector(10), Matrix(10, 2)).ok());
  EXPECT_FALSE(online.AddBatch(Matrix(10, 5), Vector(9), Matrix(10, 2)).ok());
  EXPECT_FALSE(online.AddBatch(Matrix(10, 5), Vector(10), Matrix(10, 3)).ok());
}

TEST(OnlineScanTest, ZeroCovariateMode) {
  Rng rng(37);
  const Matrix x = GaussianMatrix(40, 3, &rng);
  const Vector y = GaussianVector(40, &rng);
  OnlineScan online(3, 0);
  ASSERT_TRUE(online.AddBatch(x, y, Matrix(40, 0)).ok());
  const ScanResult incr = online.Finalize().value();
  const ScanResult full = AssociationScan(x, y, Matrix(40, 0)).value();
  EXPECT_LT(MaxAbsDiff(incr.beta, full.beta), 1e-10);
}

}  // namespace
}  // namespace dash
