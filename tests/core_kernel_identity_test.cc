// Pins the blocked, packed and sparse arena kernels to the original
// scalar kernel BIT FOR BIT. The blocked kernel reorders memory traffic, never
// arithmetic: every output element accumulates over rows in the same
// order, so for finite inputs the wire images must be identical — any
// single-bit drift here is a bug, not tolerance noise.
//
// The ISA sweep below repeats the contract for every dispatchable
// kernel table this CPU can run (portable, and AVX2 / AVX-512 where
// supported), pinned in-process via ScopedIsaForTesting, across
// dense, packed and sparse storage and shapes that straddle every
// block/vector boundary. Running under DASH_FORCE_ISA=<isa> narrows
// AvailableIsas-independent paths too (CI pins portable on the
// sanitizer jobs and avx2 on runners that have it).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/suff_stats.h"
#include "data/genotype_generator.h"
#include "linalg/packed_matrix.h"
#include "linalg/qr.h"
#include "util/isa.h"
#include "util/random.h"

namespace dash {
namespace {

void ExpectBitIdentical(const Vector& a, const Vector& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    ASSERT_EQ(bits_a, bits_b)
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

void ExpectArenaBitIdentical(const Vector& a, const Vector& b) {
  ExpectBitIdentical(a, b, "wire image");
  EXPECT_EQ(WireChecksum(a), WireChecksum(b));
}

Matrix MakeQ(int64_t n, int64_t k, Rng* rng) {
  if (k == 0) return Matrix(n, 0);
  // Thin QR needs n >= k; for the degenerate tiny-n cases the kernels
  // only need *some* dense K-column matrix, orthonormality is not part
  // of the identity contract.
  if (n < k) return GaussianMatrix(n, k, rng);
  return ThinQr(GaussianMatrix(n, k, rng)).value().q;
}

// Sizes straddle the kernel geometry: column counts around kStatsColBlock
// (128) and row counts around kStatsRowPanel (256), plus degenerate ones.
const int64_t kVariantSizes[] = {1, 127, 128, 129, 300};
const int64_t kSampleSizes[] = {1, 255, 256, 257, 600};

TEST(KernelIdentityTest, BlockedMatchesScalarGaussian) {
  for (const int64_t m : kVariantSizes) {
    for (const int64_t n : kSampleSizes) {
      Rng rng(static_cast<uint64_t>(n * 1000 + m));
      const Matrix x = GaussianMatrix(n, m, &rng);
      const Vector y = GaussianVector(n, &rng);
      const Matrix q = MakeQ(n, 3, &rng);
      SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
      ExpectArenaBitIdentical(ComputeLocalStatsFlat(x, y, q),
                              ComputeLocalStatsScalar(x, y, q));
    }
  }
}

TEST(KernelIdentityTest, BlockedMatchesScalarGenotype) {
  // Sparse-ish dosage data drives the dense/sparse panel dispatch down
  // the zero-skipping branch; rare variants make whole panels sparse.
  for (const int64_t m : kVariantSizes) {
    GenotypeOptions geno;
    geno.num_samples = 301;
    geno.num_variants = m;
    geno.maf_min = 0.01;
    geno.maf_max = 0.4;
    geno.seed = static_cast<uint64_t>(m) + 17;
    const Matrix x = GenerateGenotypes(geno);
    Rng rng(static_cast<uint64_t>(m) + 99);
    const Vector y = GaussianVector(301, &rng);
    const Matrix q = MakeQ(301, 4, &rng);
    SCOPED_TRACE("m=" + std::to_string(m));
    ExpectArenaBitIdentical(ComputeLocalStatsFlat(x, y, q),
                            ComputeLocalStatsScalar(x, y, q));
  }
}

TEST(KernelIdentityTest, BlockedMatchesScalarZeroCovariates) {
  Rng rng(41);
  const Matrix x = GaussianMatrix(260, 130, &rng);
  const Vector y = GaussianVector(260, &rng);
  const Matrix q(260, 0);
  ExpectArenaBitIdentical(ComputeLocalStatsFlat(x, y, q),
                          ComputeLocalStatsScalar(x, y, q));
}

TEST(KernelIdentityTest, ThreadPoolDoesNotChangeBits) {
  Rng rng(42);
  const Matrix x = GaussianMatrix(300, 300, &rng);
  const Vector y = GaussianVector(300, &rng);
  const Matrix q = MakeQ(300, 5, &rng);
  ThreadPool pool(4);
  ExpectArenaBitIdentical(ComputeLocalStatsFlat(x, y, q, &pool),
                          ComputeLocalStatsFlat(x, y, q));
}

TEST(KernelIdentityTest, SparseBlockedMatchesSparseScalar) {
  GenotypeOptions geno;
  geno.num_samples = 400;
  geno.num_variants = 150;
  geno.maf_min = 0.01;
  geno.maf_max = 0.15;
  geno.seed = 23;
  const SparseColumnMatrix x = GenerateSparseGenotypes(geno);
  Rng rng(29);
  const Vector y = GaussianVector(400, &rng);
  const Matrix q = MakeQ(400, 4, &rng);
  const Vector want = ComputeLocalStatsSparseScalar(x, y, q);
  ExpectArenaBitIdentical(ComputeLocalStatsSparseFlat(x, y, q), want);
  ThreadPool pool(3);
  ExpectArenaBitIdentical(ComputeLocalStatsSparseFlat(x, y, q, &pool), want);
}

// ---- ISA sweep: every dispatchable kernel table, every storage ----

TEST(KernelIdentityTest, IsaSweepDenseGaussian) {
  for (const Isa isa : AvailableIsas()) {
    ScopedIsaForTesting pin(isa);
    SCOPED_TRACE(IsaName(isa));
    for (const int64_t m : kVariantSizes) {
      for (const int64_t n : kSampleSizes) {
        Rng rng(static_cast<uint64_t>(n * 1000 + m));
        const Matrix x = GaussianMatrix(n, m, &rng);
        const Vector y = GaussianVector(n, &rng);
        const Matrix q = MakeQ(n, 3, &rng);
        SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
        ExpectArenaBitIdentical(ComputeLocalStatsDense(x, y, q),
                                ComputeLocalStatsScalar(x, y, q));
      }
    }
  }
}

TEST(KernelIdentityTest, IsaSweepGenotypeAllStorages) {
  // One genotype draw per shape; each ISA must reproduce the scalar
  // kernel bit for bit through the auto path (which packs dosage
  // blocks), the pre-packed path, the dense no-pack path and the
  // sparse repack path.
  const auto expect_all_storages_match = [](const Matrix& x, uint64_t seed) {
    const int64_t n = x.rows();
    Rng rng(seed);
    const Vector y = GaussianVector(n, &rng);
    const Matrix q = MakeQ(n, 4, &rng);
    const Vector want = ComputeLocalStatsScalar(x, y, q);
    const PackedGenotypeMatrix packed = PackedGenotypeMatrix::FromDense(x);
    const SparseColumnMatrix sparse = SparseColumnMatrix::FromDense(x);
    for (const Isa isa : AvailableIsas()) {
      ScopedIsaForTesting pin(isa);
      SCOPED_TRACE(IsaName(isa));
      ExpectArenaBitIdentical(ComputeLocalStatsFlat(x, y, q), want);
      ExpectArenaBitIdentical(ComputeLocalStatsPackedFlat(packed, y, q),
                              want);
      ExpectArenaBitIdentical(ComputeLocalStatsDense(x, y, q), want);
      ExpectArenaBitIdentical(ComputeLocalStatsSparseFlat(sparse, y, q),
                              want);
    }
  };
  for (const int64_t m : kVariantSizes) {
    // n = 32 is exactly one packed word; 33 spills one row into a second.
    for (const int64_t n : {32, 33, 301}) {
      GenotypeOptions geno;
      geno.num_samples = n;
      geno.num_variants = m;
      geno.maf_min = 0.01;
      geno.maf_max = 0.4;
      geno.seed = static_cast<uint64_t>(m * 1000 + n);
      SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
      expect_all_storages_match(GenerateGenotypes(geno),
                                static_cast<uint64_t>(m) + 99);
    }
  }
  // One 128-column block whose 8-column groups alternate MAF 0.005 and
  // 0.3, flipping at every 256-row word panel: the AVX-512 packed
  // kernel replays every other group and runs the rest on its column
  // lanes, side by side in one block, and each group changes path
  // from one panel to the next.
  const int64_t n = 600, m = 128;
  GenotypeOptions geno;
  geno.num_samples = n;
  geno.num_variants = m;
  geno.maf_min = geno.maf_max = 0.005;
  geno.seed = 61;
  const Matrix rare = GenerateGenotypes(geno);
  geno.maf_min = geno.maf_max = 0.3;
  geno.seed = 62;
  const Matrix common = GenerateGenotypes(geno);
  Matrix x(n, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      x(i, j) = (j / 8 + i / 256) % 2 == 0 ? rare(i, j) : common(i, j);
    }
  }
  SCOPED_TRACE("alternating MAF 0.005 / 0.3 groups");
  expect_all_storages_match(x, 63);
}

TEST(KernelIdentityTest, IsaSweepCovariateWidths) {
  // K straddles every projection-accumulator specialization (KP covers
  // K covariates plus the phenotype lane, so the widest K is 23 on
  // AVX-512 and 15 on AVX2): the 4-wide steps, the odd widths that
  // exercise the padded tail lanes, the benchmark's K = 10, the widest
  // AVX-512 specialization (KP = 24, K = 20..23), and K past it, which
  // must fall back to the portable packed kernel — still
  // bit-identically.
  for (const int64_t k : {0, 1, 3, 4, 7, 8, 10, 12, 16, 17, 23, 24, 27}) {
    GenotypeOptions geno;
    geno.num_samples = 300;
    geno.num_variants = 130;
    geno.maf_min = 0.05;
    geno.maf_max = 0.4;
    geno.seed = static_cast<uint64_t>(k) + 5;
    const Matrix x = GenerateGenotypes(geno);
    Rng rng(static_cast<uint64_t>(k) + 77);
    const Vector y = GaussianVector(300, &rng);
    const Matrix q = MakeQ(300, k, &rng);
    const Vector want = ComputeLocalStatsScalar(x, y, q);
    const PackedGenotypeMatrix packed = PackedGenotypeMatrix::FromDense(x);
    for (const Isa isa : AvailableIsas()) {
      ScopedIsaForTesting pin(isa);
      SCOPED_TRACE(std::string(IsaName(isa)) +
                   " k=" + std::to_string(k));
      ExpectArenaBitIdentical(ComputeLocalStatsPackedFlat(packed, y, q), want);
      ExpectArenaBitIdentical(ComputeLocalStatsDense(x, y, q), want);
    }
  }
}

TEST(KernelIdentityTest, IsaSweepAllZeroAndAllMissingColumns) {
  // Degenerate columns: all-zero (no nonzero words at all) and
  // all-missing (code 3 everywhere — nnz masks empty, missing popcounts
  // full). The packed kernels must agree with the scalar kernel run on
  // the expanded dense image (missing expands to dosage 0).
  const int64_t n = 290, m = 130;
  PackedGenotypeMatrix packed(n, m);
  Rng rng(123);
  for (int64_t j = 0; j < m; ++j) {
    if (j % 5 == 1) continue;  // all-zero column
    if (j % 5 == 3) {          // all-missing column
      for (int64_t i = 0; i < n; ++i) {
        packed.Set(i, j, PackedGenotypeMatrix::kMissingCode);
      }
      continue;
    }
    for (int64_t i = 0; i < n; ++i) {
      const double u = rng.UniformDouble();
      packed.Set(i, j, u < 0.15 ? 1 : (u < 0.2 ? 2 : 0));
    }
  }
  const Matrix x = packed.ToDense();
  const Vector y = GaussianVector(n, &rng);
  const Matrix q = MakeQ(n, 4, &rng);
  const Vector want = ComputeLocalStatsScalar(x, y, q);
  for (const Isa isa : AvailableIsas()) {
    ScopedIsaForTesting pin(isa);
    SCOPED_TRACE(IsaName(isa));
    ExpectArenaBitIdentical(ComputeLocalStatsPackedFlat(packed, y, q), want);
    ExpectArenaBitIdentical(ComputeLocalStatsDense(x, y, q), want);
    ExpectArenaBitIdentical(ComputeLocalStatsFlat(x, y, q), want);
  }
}

TEST(KernelIdentityTest, IsaSweepPackedGuardKeepsOverflowingProducts) {
  // The AVX-512 packed kernel adds each dosage product with one FMA,
  // which matches the reference's mul+add only while 2·|v| cannot
  // overflow. Here 2·y[1] does: the reference's product rounds to inf,
  // while an FMA would add the exact 2e308 to -1.7e308 and stay
  // finite. Every code is nonzero, so the group takes the column-lane
  // path, and the kernel's guard must send the call to the portable
  // kernel instead.
  const int64_t n = 32, m = 8, k = 3;
  PackedGenotypeMatrix packed(n, m);
  for (int64_t j = 0; j < m; ++j) {
    for (int64_t i = 0; i < n; ++i) packed.Set(i, j, i == 1 ? 2 : 1);
  }
  Vector y(n, 0.0);
  y[0] = -1.7e308;
  y[1] = 1e308;
  Rng rng(91);
  const Matrix q = MakeQ(n, k, &rng);
  const Vector want = ComputeLocalStatsScalar(packed.ToDense(), y, q);
  ASSERT_TRUE(std::isinf(want[static_cast<size_t>(
      StatsWireLayout{m, k}.xy_offset())]));
  for (const Isa isa : AvailableIsas()) {
    ScopedIsaForTesting pin(isa);
    SCOPED_TRACE(IsaName(isa));
    ExpectArenaBitIdentical(ComputeLocalStatsPackedFlat(packed, y, q), want);
  }
}

TEST(KernelIdentityTest, IsaSweepSparseNonDosageFallsBack) {
  // A sparse matrix with a non-dosage value cannot repack; the legacy
  // sparse path must still match the sparse scalar reference under
  // every pinned ISA.
  GenotypeOptions geno;
  geno.num_samples = 400;
  geno.num_variants = 150;
  geno.maf_min = 0.01;
  geno.maf_max = 0.15;
  geno.seed = 23;
  SparseColumnMatrix x = GenerateSparseGenotypes(geno);
  x.PushEntry(149, 399, 0.5);  // poisons the dosage check
  Rng rng(29);
  const Vector y = GaussianVector(400, &rng);
  const Matrix q = MakeQ(400, 4, &rng);
  const Vector want = ComputeLocalStatsSparseScalar(x, y, q);
  for (const Isa isa : AvailableIsas()) {
    ScopedIsaForTesting pin(isa);
    SCOPED_TRACE(IsaName(isa));
    ExpectArenaBitIdentical(ComputeLocalStatsSparseFlat(x, y, q), want);
  }
}

TEST(KernelIdentityTest, IsaSweepThreadPoolAndPackedRoundTrip) {
  GenotypeOptions geno;
  geno.num_samples = 600;
  geno.num_variants = 300;
  geno.maf_min = 0.05;
  geno.maf_max = 0.4;
  geno.seed = 7;
  const Matrix x = GenerateGenotypes(geno);
  Rng rng(71);
  const Vector y = GaussianVector(600, &rng);
  const Matrix q = MakeQ(600, 5, &rng);
  const Vector want = ComputeLocalStatsScalar(x, y, q);
  const PackedGenotypeMatrix packed = PackedGenotypeMatrix::FromDense(x);
  EXPECT_TRUE(packed.ToDense() == x);
  ThreadPool pool(4);
  for (const Isa isa : AvailableIsas()) {
    ScopedIsaForTesting pin(isa);
    SCOPED_TRACE(IsaName(isa));
    ExpectArenaBitIdentical(ComputeLocalStatsPackedFlat(packed, y, q, &pool),
                            want);
    ExpectArenaBitIdentical(ComputeLocalStatsFlat(x, y, q, &pool), want);
  }
}

TEST(KernelIdentityTest, PackedColumnRangeMatchesFullComputation) {
  // The packed column-range kernel must reproduce the corresponding
  // slice of the full wire image for any [begin, end), even when the
  // boundaries fall mid cache-block or mid 8-column group.
  GenotypeOptions geno;
  geno.num_samples = 260;
  geno.num_variants = 200;
  geno.maf_min = 0.05;
  geno.maf_max = 0.4;
  geno.seed = 31;
  const Matrix x = GenerateGenotypes(geno);
  const int64_t n = 260, m = 200;
  const PackedGenotypeMatrix packed = PackedGenotypeMatrix::FromDense(x);
  const struct { int64_t k, begin, end; } ranges[] = {
      {3, 0, 200},   {3, 0, 1},    {3, 199, 200}, {3, 13, 141},
      {3, 128, 200}, {3, 50, 50},  {10, 5, 200}};
  for (const auto& r : ranges) {
    const int64_t k = r.k;
    SCOPED_TRACE("k=" + std::to_string(k) + " [" + std::to_string(r.begin) +
                 ", " + std::to_string(r.end) + ")");
    Rng rng(31);
    const Vector y = GaussianVector(n, &rng);
    const Matrix q = MakeQ(n, k, &rng);
    const Vector full = ComputeLocalStatsScalar(x, y, q);
    const StatsWireLayout layout{m, k};
    const int64_t w = r.end - r.begin;
    // The column-range kernels ACCUMULATE into their destination, so
    // the buffer must start zeroed (as every production caller does).
    Vector buf(static_cast<size_t>((2 + k) * w), 0.0);
    ComputeStatsColumnsPacked(
        packed, y, q, r.begin, r.end,
        StatsBlockView{buf.data(), buf.data() + w, buf.data() + 2 * w, w});
    for (int64_t j = 0; j < w; ++j) {
      const int64_t col = r.begin + j;
      Vector got{buf[static_cast<size_t>(j)], buf[static_cast<size_t>(w + j)]};
      Vector want{full[static_cast<size_t>(layout.xy_offset() + col)],
                  full[static_cast<size_t>(layout.xx_offset() + col)]};
      for (int64_t kk = 0; kk < k; ++kk) {
        got.push_back(buf[static_cast<size_t>((2 + kk) * w + j)]);
        want.push_back(
            full[static_cast<size_t>(layout.qtx_offset() + kk * m + col)]);
      }
      ExpectBitIdentical(got, want, "column slice");
    }
  }
}

}  // namespace
}  // namespace dash
