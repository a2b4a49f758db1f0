// The six sufficient statistics of the association scan (paper §3).
//
// Everything the scan needs beyond public shape information is:
//
//   y.y (scalar)     Qᵀy (K)          — response statistics
//   X.y (M)          X.X (M)          — per-column transient statistics
//   QᵀX (K x M)                        — projected transient covariates
//
// Each party computes its local summand from its own rows; the summands
// add across parties (exactly for the first four by orthogonality of the
// row partition, and by plain linearity for Qᵀy and QᵀX). The total is
// all that FinalizeScan (scan_result.h) consumes — raw data never moves.
//
// A party's summand lives in one contiguous wire-order arena of length
// 1 + K + 2M + K*M (StatsWireLayout fixes the offsets), so a single
// secure-sum round aggregates everything and nothing is copied between
// the kernel and the transport. Every ComputeLocalStats* entry point
// returns that arena; UnflattenStats turns an arena (a party's summand
// or the revealed total) into the ScanSufficientStats that
// FinalizeScan consumes, and WireChecksum fingerprints it.
//
// Kernels. ComputeLocalStatsFlat runs the cache-blocked column-range
// kernel: columns are tiled into blocks of kStatsColBlock, each block's
// accumulators (X.y, X.X and a covariate-major K×w QᵀX tile, so each
// row's update is K contiguous length-w axpys) live in L1 for the whole
// N-row sweep. Per column block the kernel picks one of two paths:
//
//   - Hard-call dosage data (every value in {0, 1, 2}, probed cheaply
//     and verified during packing) is repacked into a per-task 2-bit
//     PackedGenotypeMatrix scratch and handed to the popcount kernel,
//     whose flop count is proportional to the block's nonzeros for
//     8-column groups below the column-lane crossover (claim C6;
//     denser groups take a flat per-row path, DESIGN.md §13) — it
//     beats the dense path at every genotype density.
//   - Anything else runs the dense row-panel sweep, strip-mined into
//     panels of kStatsRowPanel rows that dispatch to a branchless dense
//     micro-kernel or a zero-skipping sparse one by measured density.
//
// The inner kernels of both paths are runtime ISA-dispatched (portable
// / AVX2 / AVX-512; src/core/kernels/stats_kernels.h, DESIGN.md §13).
// The scalar reference kernels (the original implementation) are kept
// as ComputeLocalStatsScalar / ComputeLocalStatsSparseScalar; every
// dispatchable kernel is BIT-IDENTICAL to them for finite inputs:
// every output element is accumulated over rows in the same order,
// SIMD lanes map to distinct output columns, skipped zeros / added
// ±0.0 contributions cannot change an IEEE-754 accumulator that starts
// at +0.0, and no reduction is ever reassociated
// (tests/core_kernel_identity_test.cc pins this).

#ifndef DASH_CORE_SUFF_STATS_H_
#define DASH_CORE_SUFF_STATS_H_

#include <cstdint>

#include "linalg/matrix.h"
#include "linalg/packed_matrix.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dash {

struct ScanSufficientStats {
  int64_t num_samples = 0;  // public: rows contributing to this summand
  double yy = 0.0;          // y.y
  Vector qty;               // length K
  Vector xy;                // length M
  Vector xx;                // length M
  Matrix qtx;               // K x M

  int64_t num_variants() const { return static_cast<int64_t>(xy.size()); }
  int64_t num_covariates() const { return static_cast<int64_t>(qty.size()); }
};

// --- Wire layout ------------------------------------------------------
// Offsets of the statistic blocks inside the flattened vector:
//   [0]                    yy
//   [1, 1+K)               qty
//   [1+K, 1+K+M)           xy
//   [1+K+M, 1+K+2M)        xx
//   [1+K+2M, 1+K+2M+K*M)   qtx, row-major K x M
struct StatsWireLayout {
  int64_t m = 0;  // variants
  int64_t k = 0;  // covariates

  int64_t yy_offset() const { return 0; }
  int64_t qty_offset() const { return 1; }
  int64_t xy_offset() const { return 1 + k; }
  int64_t xx_offset() const { return 1 + k + m; }
  int64_t qtx_offset() const { return 1 + k + 2 * m; }
  int64_t total_len() const { return 1 + k + 2 * m + k * m; }
};

// Destination slices for the column-range kernels, in wire order.
// Column j of the range writes xy[j - col_begin], xx[j - col_begin] and
// qtx[kk * qtx_stride + (j - col_begin)] for each covariate kk.
struct StatsBlockView {
  double* xy = nullptr;
  double* xx = nullptr;
  double* qtx = nullptr;
  int64_t qtx_stride = 0;
};

// Cache-block geometry of the dense kernel. One column block's working
// set is kStatsColBlock * (K + 2) doubles of accumulators — ~10 KiB for
// K = 8 — which stays L1-resident across the whole row sweep; row
// panels of kStatsRowPanel rows are the granularity of the
// dense/sparse micro-kernel dispatch.
inline constexpr int64_t kStatsColBlock = 128;
inline constexpr int64_t kStatsRowPanel = 256;

// Packed-genotype column-range kernel: ACCUMULATES xy/xx/qtx for
// columns [col_begin, col_end) of an already 2-bit-packed X into `out`
// with the popcount kernel — O(nnz) flops for 8-column groups below the
// column-lane crossover, O(rows) vector ops per group above it (AVX-512;
// DESIGN.md §13), plus one popcount per 32 genotypes; missing calls
// expand to 0.0. The caller zeroes the
// destination before the first call. The accumulate contract (shared
// by the dense and sparse column-range kernels inside suff_stats.cc) is
// what lets the out-of-core path stream X in row panels: repeated calls
// over a row partition continue each output element's left-folded add
// chain exactly where the previous call left it, so the streamed result
// is bit-identical to one full in-memory sweep (core/streaming_stats.h).
// Requires finite inputs for the bit-identity guarantee (no NaN/Inf in
// x, y, q). `pool` may be null; otherwise column blocks are
// cost-chunked across its threads.
void ComputeStatsColumnsPacked(const PackedGenotypeMatrix& x, const Vector& y,
                               const Matrix& q, int64_t col_begin,
                               int64_t col_end, const StatsBlockView& out,
                               ThreadPool* pool = nullptr);

// One party's summand given its rows of Q, as a wire-order arena
// (StatsWireLayout over x's M and q's K). num_samples is public and
// travels outside the secure sum. `pool` may be null (serial);
// otherwise column blocks are sharded across its threads.
Vector ComputeLocalStatsFlat(const Matrix& x, const Vector& y, const Matrix& q,
                             ThreadPool* pool = nullptr);

// Sparse-X form. Dosage-valued sparse data (every stored value in
// {0, 1, 2} — the common genotype case) is repacked once into the 2-bit
// popcount kernel; anything else runs the per-column sparse path,
// O(nnz * K) per column. Both are bit-identical to
// ComputeLocalStatsSparseScalar.
Vector ComputeLocalStatsSparseFlat(const SparseColumnMatrix& x, const Vector& y,
                                   const Matrix& q, ThreadPool* pool = nullptr);

// Packed-X form for callers that keep genotypes 2-bit packed (the
// steady state of a resident scan service: pack once, scan many).
Vector ComputeLocalStatsPackedFlat(const PackedGenotypeMatrix& x,
                                   const Vector& y, const Matrix& q,
                                   ThreadPool* pool = nullptr);

// Dense-only form of ComputeLocalStatsFlat: the same blocked row-panel
// sweep (still ISA-dispatched) but never repacking dosage blocks into
// the 2-bit kernel. The no-repack ablation behind the kernel bench's
// "blocked/*" entries, and an escape hatch if a workload's pack probe
// ever misfires.
Vector ComputeLocalStatsDense(const Matrix& x, const Vector& y, const Matrix& q,
                              ThreadPool* pool = nullptr);

// The original scalar kernels, kept as the bit-identity reference for
// tests and as the bench baseline. Same arena as ComputeLocalStatsFlat /
// ComputeLocalStatsSparseFlat, bit for bit.
Vector ComputeLocalStatsScalar(const Matrix& x, const Vector& y,
                               const Matrix& q, ThreadPool* pool = nullptr);
Vector ComputeLocalStatsSparseScalar(const SparseColumnMatrix& x,
                                     const Vector& y, const Matrix& q,
                                     ThreadPool* pool = nullptr);

// The structured view of a wire-order arena, given the public shape
// (M, K). num_samples is left 0 for the caller to fill in.
Result<ScanSufficientStats> UnflattenStats(const Vector& flat,
                                           int64_t num_variants,
                                           int64_t num_covariates);

// FNV-1a over the IEEE-754 bytes of a wire-order arena. Equal checksums
// <=> bit-identical statistics; benches and the kernel-identity tests
// report these.
uint64_t WireChecksum(const Vector& flat);

}  // namespace dash

#endif  // DASH_CORE_SUFF_STATS_H_
