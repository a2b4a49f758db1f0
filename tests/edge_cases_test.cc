// Cross-module corner cases: minimal shapes, degenerate inputs, and
// boundary conditions that production data eventually produces.

#include <gtest/gtest.h>

#include <cmath>

#include "core/association_scan.h"
#include "core/secure_scan.h"
#include "data/genotype_generator.h"
#include "linalg/cholesky.h"
#include "linalg/qr.h"
#include "linalg/sparse_matrix.h"
#include "linalg/tsqr.h"
#include "mesh_sum_util.h"
#include "mpc/secure_sum.h"
#include "net/network.h"
#include "stats/ols.h"
#include "util/random.h"

namespace dash {
namespace {

// --- Minimal shapes ---

TEST(EdgeCaseTest, OneByOneQr) {
  const Matrix a = {{-3.0}};
  const QrDecomposition qr = ThinQr(a).value();
  EXPECT_DOUBLE_EQ(qr.r(0, 0), 3.0);       // sign convention
  EXPECT_DOUBLE_EQ(qr.q(0, 0), -1.0);
  EXPECT_FALSE(ThinQr(Matrix{{0.0}}).ok());  // zero column
}

TEST(EdgeCaseTest, SquareFullRankQr) {
  // N == K: Q is a full orthogonal matrix.
  Rng rng(1);
  const Matrix a = GaussianMatrix(4, 4, &rng);
  const QrDecomposition qr = ThinQr(a).value();
  EXPECT_LT(MaxAbsDiff(MatMul(qr.q, qr.r), a), 1e-12);
  EXPECT_LT(MaxAbsDiff(TransposeMatMul(qr.q, qr.q), Matrix::Identity(4)),
            1e-12);
}

TEST(EdgeCaseTest, SingleVariantSingleSamplePerPartyScan) {
  // The smallest legal secure scan: M = 1, parties of minimal size.
  Rng rng(2);
  std::vector<PartyData> parties;
  for (int p = 0; p < 2; ++p) {
    PartyData pd;
    pd.x = GaussianMatrix(3, 1, &rng);
    pd.c = GaussianMatrix(3, 1, &rng);
    pd.y = GaussianVector(3, &rng);
    parties.push_back(std::move(pd));
  }
  const auto out = SecureAssociationScan().Run(parties);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->result.num_variants(), 1);
  EXPECT_EQ(out->result.dof, 6 - 1 - 1);
}

TEST(EdgeCaseTest, MinimalDofScan) {
  // N = K + 2 gives exactly one residual degree of freedom.
  Rng rng(3);
  const Matrix x = GaussianMatrix(4, 3, &rng);
  const Matrix c = GaussianMatrix(4, 2, &rng);
  const Vector y = GaussianVector(4, &rng);
  const ScanResult scan = AssociationScan(x, y, c).value();
  EXPECT_EQ(scan.dof, 1);
  for (const double p : scan.pval) {
    if (std::isnan(p)) continue;
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(EdgeCaseTest, EmptySparseMatrix) {
  const SparseColumnMatrix m(5, 3);
  EXPECT_EQ(m.TotalNnz(), 0);
  EXPECT_DOUBLE_EQ(m.ColumnDot(1, Vector(5, 1.0)), 0.0);
  EXPECT_DOUBLE_EQ(m.ColumnSquaredNorm(2), 0.0);
  EXPECT_TRUE(m.ToDense() == Matrix(5, 3));
}

TEST(EdgeCaseTest, ZeroLengthSecureSum) {
  const Vector got = MeshSecureSum({Vector{}, Vector{}, Vector{}}, {}).value();
  EXPECT_TRUE(got.empty());
}

// --- Degenerate numerical content ---

TEST(EdgeCaseTest, AllZeroResponse) {
  Rng rng(4);
  const Matrix x = GaussianMatrix(30, 4, &rng);
  const Matrix c = WithInterceptColumn(GaussianMatrix(30, 1, &rng));
  const Vector y(30, 0.0);
  const ScanResult scan = AssociationScan(x, y, c).value();
  for (int64_t j = 0; j < 4; ++j) {
    const size_t i = static_cast<size_t>(j);
    EXPECT_NEAR(scan.beta[i], 0.0, 1e-12);
    // Zero residual variance with zero beta: t = 0, p = 1.
    EXPECT_DOUBLE_EQ(scan.pval[i], 1.0);
  }
}

TEST(EdgeCaseTest, DuplicatedVariantColumnsAgree) {
  Rng rng(5);
  Matrix x = GaussianMatrix(50, 4, &rng);
  for (int64_t i = 0; i < 50; ++i) x(i, 3) = x(i, 1);
  const Matrix c = WithInterceptColumn(GaussianMatrix(50, 1, &rng));
  const Vector y = GaussianVector(50, &rng);
  const ScanResult scan = AssociationScan(x, y, c).value();
  // Identical columns give identical statistics (each tested separately).
  EXPECT_DOUBLE_EQ(scan.beta[1], scan.beta[3]);
  EXPECT_DOUBLE_EQ(scan.pval[1], scan.pval[3]);
}

TEST(EdgeCaseTest, CholeskyOfOneByOne) {
  EXPECT_DOUBLE_EQ(Cholesky(Matrix{{9.0}}).value()(0, 0), 3.0);
  EXPECT_FALSE(Cholesky(Matrix{{0.0}}).ok());
  EXPECT_FALSE(Cholesky(Matrix{{-1.0}}).ok());
}

TEST(EdgeCaseTest, TsqrWithIdenticalBlocks) {
  Rng rng(6);
  const Matrix block = GaussianMatrix(10, 2, &rng);
  const Matrix r = QrRFactor(block).value();
  const Matrix combined = CombineRFactors({r, r, r, r}).value();
  // Gram of 4 identical blocks = 4x one Gram, so R scales by 2.
  EXPECT_LT(MaxAbsDiff(combined, MatScale(2.0, r)), 1e-12);
}

TEST(EdgeCaseTest, OlsWithSingleCoefficient) {
  // y = 2x exactly, no intercept.
  Matrix design(5, 1);
  Vector y(5);
  for (int64_t i = 0; i < 5; ++i) {
    design(i, 0) = static_cast<double>(i + 1);
    y[static_cast<size_t>(i)] = 2.0 * static_cast<double>(i + 1);
  }
  const OlsFit fit = FitOls(design, y).value();
  EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-12);
  EXPECT_LT(fit.rss, 1e-20);
}

// --- Protocol boundary conditions ---

TEST(EdgeCaseTest, TwoPartyMaskedAggregationIsMinimalMesh) {
  SecureSumOptions opts;
  opts.mode = AggregationMode::kMasked;
  MeshTraffic traffic;
  EXPECT_NEAR(MeshSecureSum({{1.25}, {-0.25}}, opts, &traffic).value()[0],
              1.0, 1e-9);
  // 2 key-exchange messages + 2 masked chunks to their owners + 2
  // opened chunks gathered.
  EXPECT_EQ(traffic.total_messages, 6);
}

TEST(EdgeCaseTest, ManyPartiesSmallData) {
  // 12 parties of 2 samples each: the pooled scan works even though no
  // party could fit anything alone.
  Rng rng(7);
  std::vector<PartyData> parties;
  for (int p = 0; p < 12; ++p) {
    PartyData pd;
    pd.x = GaussianMatrix(2, 3, &rng);
    pd.c = GaussianMatrix(2, 1, &rng);
    pd.y = GaussianVector(2, &rng);
    parties.push_back(std::move(pd));
  }
  const auto out = SecureAssociationScan().Run(parties);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->result.dof, 24 - 1 - 1);
  const PooledData pooled = PoolParties(parties).value();
  const ScanResult plain =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();
  EXPECT_LT(MaxAbsDiff(out->result.beta, plain.beta), 1e-6);
}

TEST(EdgeCaseTest, FixedPointBoundaryValues) {
  const FixedPointCodec codec(40);
  // The largest representable magnitude round-trips; just beyond fails.
  const double max = codec.MaxMagnitude();
  EXPECT_TRUE(codec.TryEncode(max * (1.0 - 1e-12)).ok());
  EXPECT_FALSE(codec.TryEncode(max * (1.0 + 1e-9)).ok());
  EXPECT_TRUE(codec.TryEncode(-max * (1.0 - 1e-12)).ok());
  // Zero is exactly representable.
  EXPECT_EQ(codec.Encode(0.0), 0u);
  EXPECT_DOUBLE_EQ(codec.Decode(0), 0.0);
}

TEST(EdgeCaseTest, GenotypeGeneratorDegenerateShapes) {
  GenotypeOptions opts;
  opts.num_samples = 0;
  opts.num_variants = 5;
  const Matrix empty_rows = GenerateGenotypes(opts);
  EXPECT_EQ(empty_rows.rows(), 0);
  opts.num_samples = 5;
  opts.num_variants = 0;
  const Matrix empty_cols = GenerateGenotypes(opts);
  EXPECT_EQ(empty_cols.cols(), 0);
  opts.maf_min = opts.maf_max = 0.0;  // all-reference genotypes
  opts.num_variants = 3;
  const Matrix zeros = GenerateGenotypes(opts);
  EXPECT_DOUBLE_EQ(FrobeniusNorm(zeros), 0.0);
}

}  // namespace
}  // namespace dash
