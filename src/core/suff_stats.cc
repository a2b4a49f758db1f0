#include "core/suff_stats.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "core/kernels/stats_kernels.h"
#include "util/check.h"

namespace dash {
namespace {

// --- Blocked kernel ---------------------------------------------------
//
// One column block owns accumulators for kStatsColBlock columns:
// xy/xx (w doubles each) plus a QᵀX tile laid out covariate-major
// [K x w] (tile[kk * w + jj]), so the hot per-row update is K
// independent length-w axpys over the row's contiguous column slice,
// with q(i, kk) hoisted to a scalar. The tile lands in the wire-order
// K x M destination as K contiguous row copies once per block, after
// the full row sweep.
//
// The dense row-panel micro-kernel comes from the runtime ISA dispatch
// table (src/core/kernels/); blocks whose values all lie in {0, 1, 2}
// are instead repacked into a 2-bit scratch and run through the
// popcount kernel (see ComputeStatsColumns). Every micro-kernel
// adds to every accumulator element in identical row order (a skipped
// zero contributes exactly nothing; an added ±0.0 term cannot change
// an accumulator that starts at +0.0 under IEEE-754 round-to-nearest),
// so the choice — and the panel boundaries — never change a single
// output bit.

// Sparse micro-kernel: skips zeros, so a mostly-zero genotype panel
// pays O(nnz * K) instead of O(rows * w * K).
void SparsePanel(const double* DASH_RESTRICT x, int64_t x_stride, int64_t rows,
                 const double* DASH_RESTRICT y, const double* DASH_RESTRICT q,
                 int64_t k, int64_t w, double* DASH_RESTRICT xy,
                 double* DASH_RESTRICT xx, double* DASH_RESTRICT tile) {
  for (int64_t i = 0; i < rows; ++i) {
    const double* DASH_RESTRICT xi = x + i * x_stride;
    const double yi = y[i];
    const double* DASH_RESTRICT qi = q + i * k;
    for (int64_t jj = 0; jj < w; ++jj) {
      const double v = xi[jj];
      if (v == 0.0) continue;
      xy[jj] += v * yi;
      xx[jj] += v * v;
      // Strided within the tile, but the tile is L1-resident; per
      // output element the row-ordered add chain matches DensePanel's.
      for (int64_t kk = 0; kk < k; ++kk) tile[kk * w + jj] += v * qi[kk];
    }
  }
}

// Full row sweep for columns [j0, j1); accumulators stay resident for
// the whole sweep so every output element sees one unbroken,
// row-ordered accumulation chain. The block accumulators are SEEDED
// from `out` (the kernel accumulates into its destination; callers
// zero the arena before the first call), so out-of-core sweeps that
// feed row panels through repeated calls continue the identical
// per-element add chain of one full-matrix sweep.
void ComputeColumnBlock(const Matrix& x, const Vector& y, const Matrix& q,
                        int64_t j0, int64_t j1, int64_t col_begin,
                        const StatsBlockView& out, double* tile,
                        const kernels::StatsKernelTable& table) {
  const int64_t n = x.rows();
  const int64_t k = q.cols();
  const int64_t w = j1 - j0;
  const int64_t off = j0 - col_begin;
  double xy_blk[kStatsColBlock];
  double xx_blk[kStatsColBlock];
  std::memcpy(xy_blk, out.xy + off, static_cast<size_t>(w) * sizeof(double));
  std::memcpy(xx_blk, out.xx + off, static_cast<size_t>(w) * sizeof(double));
  for (int64_t kk = 0; kk < k; ++kk) {
    std::memcpy(tile + kk * w, out.qtx + kk * out.qtx_stride + off,
                static_cast<size_t>(w) * sizeof(double));
  }

  for (int64_t p0 = 0; p0 < n; p0 += kStatsRowPanel) {
    const int64_t p1 = std::min(n, p0 + kStatsRowPanel);
    // Measure the panel's density to pick a micro-kernel. The counting
    // pass costs one extra streaming read of the panel — ~1/(K+2) of
    // the compute it steers — and warms the cache for the real pass.
    int64_t nnz = 0;
    for (int64_t i = p0; i < p1; ++i) {
      const double* DASH_RESTRICT xi = x.row_data(i) + j0;
      for (int64_t jj = 0; jj < w; ++jj) nnz += (xi[jj] != 0.0) ? 1 : 0;
    }
    const double* panel_x = x.row_data(p0) + j0;
    const double* panel_y = y.data() + p0;
    const double* panel_q = q.data() + p0 * k;
    const int64_t panel_rows = p1 - p0;
    // Below ~25% density the zero-skipping scalar kernel beats the
    // vectorized branchless one (it drops the whole K-loop per zero).
    if (nnz * 4 >= panel_rows * w) {
      table.dense_panel(panel_x, x.cols(), panel_rows, panel_y, panel_q, k, w,
                        xy_blk, xx_blk, tile);
    } else {
      SparsePanel(panel_x, x.cols(), panel_rows, panel_y, panel_q, k, w,
                  xy_blk, xx_blk, tile);
    }
  }

  std::memcpy(out.xy + off, xy_blk, static_cast<size_t>(w) * sizeof(double));
  std::memcpy(out.xx + off, xx_blk, static_cast<size_t>(w) * sizeof(double));
  // The covariate-major tile rows are already wire order: K contiguous
  // row copies into the K x M destination.
  for (int64_t kk = 0; kk < k; ++kk) {
    std::memcpy(out.qtx + kk * out.qtx_stride + off, tile + kk * w,
                static_cast<size_t>(w) * sizeof(double));
  }
}

// How many consecutive dosage column blocks accumulate into one pack
// scratch before a single popcount-kernel call covers them all. Larger
// groups amortize the kernel's per-call padded-Q build; 8 blocks keeps
// that under ~2% of kernel time while the scratch stays modest
// (N / 4 KiB).
constexpr int64_t kStatsPackGroupBlocks = 8;

// Cheap prefilter before paying for a pack attempt: checks ~64 leading
// values of the block. Float-valued data fails almost immediately;
// PackColumnBlockAt still validates every value it packs.
bool BlockLooksLikeDosage(const Matrix& x, int64_t j0, int64_t j1) {
  const int64_t n = x.rows();
  const int64_t w = j1 - j0;
  int64_t checked = 0;
  for (int64_t i = 0; i < n; ++i) {
    const double* DASH_RESTRICT row = x.row_data(i) + j0;
    for (int64_t jj = 0; jj < w; ++jj) {
      if (!PackedGenotypeMatrix::IsDosageValue(row[jj])) return false;
      if (++checked >= 64) return true;
    }
  }
  return true;
}

// Packs columns [j0, j1) of x into column slots [slot, slot + j1 - j0)
// of `packed`, assembling each 32-row word in a stack buffer and then
// ASSIGNING it (never OR-ing), so the scratch needs no clearing between
// reuses. Returns false when a non-dosage value is hit; the slots
// touched by the failed attempt hold garbage, but a slot is only ever
// read after a later successful pack fully overwrites it.
bool PackColumnBlockAt(const Matrix& x, int64_t j0, int64_t j1, int64_t slot,
                       PackedGenotypeMatrix* packed) {
  const int64_t n = x.rows();
  const int64_t w = j1 - j0;
  const int64_t wpc = packed->words_per_column();
  uint64_t* const words0 = packed->mutable_column_words(0);
  uint64_t buf[kStatsColBlock];
  for (int64_t wi = 0; wi < wpc; ++wi) {
    for (int64_t jj = 0; jj < w; ++jj) buf[jj] = 0;
    const int64_t r0 = wi * PackedGenotypeMatrix::kRowsPerWord;
    const int64_t r1 = std::min(n, r0 + PackedGenotypeMatrix::kRowsPerWord);
    for (int64_t i = r0; i < r1; ++i) {
      const double* DASH_RESTRICT row = x.row_data(i) + j0;
      const int shift =
          static_cast<int>(2 * (i % PackedGenotypeMatrix::kRowsPerWord));
      for (int64_t jj = 0; jj < w; ++jj) {
        const double v = row[jj];
        if (!PackedGenotypeMatrix::IsDosageValue(v)) return false;
        buf[jj] |= static_cast<uint64_t>(v) << shift;
      }
    }
    for (int64_t jj = 0; jj < w; ++jj) {
      words0[(slot + jj) * wpc + wi] = buf[jj];
    }
  }
  return true;
}

// The blocked column-range kernel behind the dense entry points; it
// ACCUMULATES into `out` (see ComputeStatsColumnsPacked). When
// allow_pack is set, each column block whose values all lie in {0,1,2}
// is repacked into a lazily allocated per-task 2-bit scratch; runs of
// consecutive packed blocks are flushed to the popcount kernel in
// groups (one padded-Q build per group). Everything else takes the
// dense row-panel sweep. Both paths are bit-identical, so the probe
// can never change an output bit — only the speed.
void ComputeStatsColumns(const Matrix& x, const Vector& y, const Matrix& q,
                         int64_t col_begin, int64_t col_end,
                         const StatsBlockView& out, ThreadPool* pool,
                         bool allow_pack) {
  DASH_CHECK_EQ(static_cast<int64_t>(y.size()), x.rows());
  DASH_CHECK_EQ(q.rows(), x.rows());
  DASH_CHECK(0 <= col_begin && col_begin <= col_end && col_end <= x.cols());
  const int64_t width = col_end - col_begin;
  if (width == 0) return;
  const int64_t k = q.cols();
  const int64_t num_blocks = (width + kStatsColBlock - 1) / kStatsColBlock;
  const kernels::StatsKernelTable& table = kernels::ActiveStatsKernels();

  const auto work = [&](int64_t blk_lo, int64_t blk_hi) {
    // One tile per task, reused across its blocks.
    std::vector<double> tile(static_cast<size_t>(kStatsColBlock) *
                             static_cast<size_t>(std::max<int64_t>(k, 1)));
    // Lazy per-task pack scratch: allocated on the first dosage block,
    // then reused (fully overwritten) by every later group.
    std::optional<PackedGenotypeMatrix> packed;
    int64_t group_j0 = 0;    // first source column of the pending group
    int64_t group_cols = 0;  // packed columns awaiting a kernel call
    const auto flush_group = [&] {
      if (group_cols == 0) return;
      const int64_t off = group_j0 - col_begin;
      const StatsBlockView sub{out.xy + off, out.xx + off, out.qtx + off,
                               out.qtx_stride};
      table.packed_columns(*packed, y.data(), q, 0, group_cols, sub);
      group_cols = 0;
    };
    for (int64_t b = blk_lo; b < blk_hi; ++b) {
      const int64_t j0 = col_begin + b * kStatsColBlock;
      const int64_t j1 = std::min(col_end, j0 + kStatsColBlock);
      bool handled = false;
      if (allow_pack && BlockLooksLikeDosage(x, j0, j1)) {
        if (!packed.has_value()) {
          packed.emplace(x.rows(), kStatsColBlock * kStatsPackGroupBlocks);
        }
        if (group_cols == 0) group_j0 = j0;
        if (PackColumnBlockAt(x, j0, j1, group_cols, &*packed)) {
          group_cols += j1 - j0;
          handled = true;
          if (group_cols + kStatsColBlock > packed->cols()) flush_group();
        }
      }
      if (!handled) {
        flush_group();
        ComputeColumnBlock(x, y, q, j0, j1, col_begin, out, tile.data(),
                           table);
      }
    }
    flush_group();
  };
  if (pool != nullptr && pool->num_threads() > 1 && num_blocks > 1) {
    ParallelForOptions opts;
    opts.min_chunk = 1;  // one cache block is already a coarse grain
    opts.chunks_per_thread = 4;
    pool->ParallelFor(0, num_blocks, opts, work);
  } else {
    work(0, num_blocks);
  }
}

// Sparse-X column-range kernel: per column costs O(nnz * K) instead of
// O(N * K). Same accumulate-into-out contract as the blocked kernel.
void ComputeStatsColumnsSparse(const SparseColumnMatrix& x, const Vector& y,
                               const Matrix& q, int64_t col_begin,
                               int64_t col_end, const StatsBlockView& out,
                               ThreadPool* pool) {
  DASH_CHECK_EQ(static_cast<int64_t>(y.size()), x.rows());
  DASH_CHECK_EQ(q.rows(), x.rows());
  DASH_CHECK(0 <= col_begin && col_begin <= col_end && col_end <= x.cols());
  if (col_end == col_begin) return;
  const int64_t k = q.cols();

  const auto work = [&](int64_t lo, int64_t hi) {
    std::vector<double> proj(static_cast<size_t>(std::max<int64_t>(k, 1)));
    for (int64_t j = lo; j < hi; ++j) {
      // Seeded from `out`: like the blocked and packed kernels, this
      // path accumulates into its destination (a left-fold continued
      // from the caller's arena), keeping streamed row partitions
      // bit-identical to one full sweep.
      const int64_t seed_off = j - col_begin;
      double xyv = out.xy[seed_off];
      double xxv = out.xx[seed_off];
      for (int64_t kk = 0; kk < k; ++kk) {
        proj[static_cast<size_t>(kk)] = out.qtx[kk * out.qtx_stride + seed_off];
      }
      double* DASH_RESTRICT pr = proj.data();
      for (const auto& e : x.ColumnEntries(j)) {
        xyv += e.value * y[static_cast<size_t>(e.row)];
        xxv += e.value * e.value;
        const double* DASH_RESTRICT qrow = q.row_data(e.row);
        for (int64_t kk = 0; kk < k; ++kk) pr[kk] += e.value * qrow[kk];
      }
      const int64_t off = j - col_begin;
      out.xy[off] = xyv;
      out.xx[off] = xxv;
      for (int64_t kk = 0; kk < k; ++kk) {
        out.qtx[kk * out.qtx_stride + off] = proj[static_cast<size_t>(kk)];
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    // Column nnz varies wildly with allele frequency; oversubscribe the
    // chunking so the queue load-balances it.
    ParallelForOptions opts;
    opts.chunks_per_thread = 8;
    pool->ParallelFor(col_begin, col_end, opts, work);
  } else {
    work(col_begin, col_end);
  }
}

// A zeroed wire-order arena for an m-variant summand over q's K
// covariates, with the yy/Qᵀy header already filled in; `view` is its
// xy/xx/QᵀX destination for the column-range kernels (moving the
// returned Vector keeps its buffer, so the view stays valid).
Vector NewArena(int64_t n, int64_t m, const Vector& y, const Matrix& q,
                StatsBlockView* view) {
  DASH_CHECK_EQ(static_cast<int64_t>(y.size()), n);
  DASH_CHECK_EQ(q.rows(), n);
  const StatsWireLayout layout{m, q.cols()};
  Vector flat(static_cast<size_t>(layout.total_len()), 0.0);
  flat[static_cast<size_t>(layout.yy_offset())] = SquaredNorm(y);
  const Vector qty = TransposeMatVec(q, y);
  std::copy(qty.begin(), qty.end(), flat.begin() + layout.qty_offset());
  *view = StatsBlockView{flat.data() + layout.xy_offset(),
                         flat.data() + layout.xx_offset(),
                         flat.data() + layout.qtx_offset(), m};
  return flat;
}

}  // namespace

void ComputeStatsColumnsPacked(const PackedGenotypeMatrix& x, const Vector& y,
                               const Matrix& q, int64_t col_begin,
                               int64_t col_end, const StatsBlockView& out,
                               ThreadPool* pool) {
  DASH_CHECK_EQ(static_cast<int64_t>(y.size()), x.rows());
  DASH_CHECK_EQ(q.rows(), x.rows());
  DASH_CHECK(0 <= col_begin && col_begin <= col_end && col_end <= x.cols());
  const int64_t width = col_end - col_begin;
  if (width == 0) return;
  const int64_t num_blocks = (width + kStatsColBlock - 1) / kStatsColBlock;
  const kernels::StatsKernelTable& table = kernels::ActiveStatsKernels();

  // One kernel call per chunk of column blocks (the kernel blocks
  // internally), so its padded-Q build amortizes over the whole chunk.
  const auto work = [&](int64_t blk_lo, int64_t blk_hi) {
    const int64_t lo = col_begin + blk_lo * kStatsColBlock;
    const int64_t hi = std::min(col_end, col_begin + blk_hi * kStatsColBlock);
    const int64_t off = lo - col_begin;
    const StatsBlockView sub{out.xy + off, out.xx + off, out.qtx + off,
                             out.qtx_stride};
    table.packed_columns(x, y.data(), q, lo, hi, sub);
  };
  if (pool != nullptr && pool->num_threads() > 1 && num_blocks > 1) {
    ParallelForOptions opts;
    opts.min_chunk = 1;
    opts.chunks_per_thread = 4;
    pool->ParallelFor(0, num_blocks, opts, work);
  } else {
    work(0, num_blocks);
  }
}

Vector ComputeLocalStatsFlat(const Matrix& x, const Vector& y, const Matrix& q,
                             ThreadPool* pool) {
  StatsBlockView out;
  Vector flat = NewArena(x.rows(), x.cols(), y, q, &out);
  ComputeStatsColumns(x, y, q, 0, x.cols(), out, pool, /*allow_pack=*/true);
  return flat;
}

Vector ComputeLocalStatsSparseFlat(const SparseColumnMatrix& x, const Vector& y,
                                   const Matrix& q, ThreadPool* pool) {
  StatsBlockView out;
  Vector flat = NewArena(x.rows(), x.cols(), y, q, &out);
  // Dosage-valued sparse data repacks into the 2-bit popcount kernel:
  // bit-identical to the per-column path (same ascending-row
  // accumulation order; an explicitly stored zero adds exactly 0.0)
  // and far faster. Anything else falls back to the per-column path.
  if (const auto packed = PackedGenotypeMatrix::TryFromSparse(x)) {
    ComputeStatsColumnsPacked(*packed, y, q, 0, x.cols(), out, pool);
  } else {
    ComputeStatsColumnsSparse(x, y, q, 0, x.cols(), out, pool);
  }
  return flat;
}

Vector ComputeLocalStatsPackedFlat(const PackedGenotypeMatrix& x,
                                   const Vector& y, const Matrix& q,
                                   ThreadPool* pool) {
  StatsBlockView out;
  Vector flat = NewArena(x.rows(), x.cols(), y, q, &out);
  ComputeStatsColumnsPacked(x, y, q, 0, x.cols(), out, pool);
  return flat;
}

Vector ComputeLocalStatsDense(const Matrix& x, const Vector& y, const Matrix& q,
                              ThreadPool* pool) {
  StatsBlockView out;
  Vector flat = NewArena(x.rows(), x.cols(), y, q, &out);
  ComputeStatsColumns(x, y, q, 0, x.cols(), out, pool, /*allow_pack=*/false);
  return flat;
}

Vector ComputeLocalStatsScalar(const Matrix& x, const Vector& y,
                               const Matrix& q, ThreadPool* pool) {
  const int64_t n = x.rows();
  const int64_t m = x.cols();
  const int64_t k = q.cols();
  StatsBlockView s;
  Vector flat = NewArena(n, m, y, q, &s);

  // Column-sharded loop: each worker owns a contiguous range of variants.
  const auto work = [&](int64_t lo, int64_t hi) {
    for (int64_t i = 0; i < n; ++i) {
      const double* xi = x.row_data(i);
      const double yi = y[static_cast<size_t>(i)];
      const double* qi = q.row_data(i);
      for (int64_t j = lo; j < hi; ++j) {
        const double v = xi[j];
        if (v == 0.0) continue;
        s.xy[j] += v * yi;
        s.xx[j] += v * v;
        for (int64_t kk = 0; kk < k; ++kk) s.qtx[kk * m + j] += v * qi[kk];
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(0, m, work);
  } else {
    work(0, m);
  }
  return flat;
}

Vector ComputeLocalStatsSparseScalar(const SparseColumnMatrix& x,
                                     const Vector& y, const Matrix& q,
                                     ThreadPool* pool) {
  const int64_t m = x.cols();
  const int64_t k = q.cols();
  StatsBlockView s;
  Vector flat = NewArena(x.rows(), m, y, q, &s);

  const auto work = [&](int64_t lo, int64_t hi) {
    for (int64_t j = lo; j < hi; ++j) {
      double xy = 0.0;
      double xx = 0.0;
      for (const auto& e : x.ColumnEntries(j)) {
        xy += e.value * y[static_cast<size_t>(e.row)];
        xx += e.value * e.value;
        const double* qrow = q.row_data(e.row);
        for (int64_t kk = 0; kk < k; ++kk) {
          s.qtx[kk * m + j] += e.value * qrow[kk];
        }
      }
      s.xy[j] = xy;
      s.xx[j] = xx;
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(0, m, work);
  } else {
    work(0, m);
  }
  return flat;
}

Result<ScanSufficientStats> UnflattenStats(const Vector& flat,
                                           int64_t num_variants,
                                           int64_t num_covariates) {
  const StatsWireLayout layout{num_variants, num_covariates};
  if (static_cast<int64_t>(flat.size()) != layout.total_len()) {
    return InvalidArgumentError(
        "flattened statistics have length " + std::to_string(flat.size()) +
        "; expected " + std::to_string(layout.total_len()));
  }
  ScanSufficientStats s;
  size_t pos = 0;
  s.yy = flat[pos++];
  s.qty.assign(flat.begin() + pos, flat.begin() + pos + num_covariates);
  pos += static_cast<size_t>(num_covariates);
  s.xy.assign(flat.begin() + pos, flat.begin() + pos + num_variants);
  pos += static_cast<size_t>(num_variants);
  s.xx.assign(flat.begin() + pos, flat.begin() + pos + num_variants);
  pos += static_cast<size_t>(num_variants);
  s.qtx = Matrix(num_covariates, num_variants);
  for (int64_t i = 0; i < s.qtx.size(); ++i) s.qtx.data()[i] = flat[pos++];
  return s;
}

uint64_t WireChecksum(const Vector& flat) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const double d : flat) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;  // FNV prime
    }
  }
  return h;
}

}  // namespace dash
