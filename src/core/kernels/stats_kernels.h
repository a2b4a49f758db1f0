// Runtime-dispatched sufficient-statistics kernels (DESIGN.md §13).
//
// The scan hot path has two inner kernels: the dense row-panel kernel
// behind ComputeStatsColumns (X·y, X·X, QᵀX over a column block) and
// the packed-genotype column-range kernel that accumulates the same
// statistics from 2-bit packed words with popcount class counts and,
// per 8-column group, either per-nonzero gathers (the pair replay,
// flops proportional to nnz) or — on AVX-512, for groups above a
// density crossover — a column-lane pass that visits every row with
// eight variants per vector. Each exists in up to three implementations —
// portable C++, AVX2, AVX-512 — compiled in per-ISA translation units
// (src/core/kernels/stats_kernels_*.cc) with per-file -mavx2 /
// -mavx512f flags, so the binary itself stays runnable on any x86-64
// (and on non-x86, where only the portable unit is built).
//
// Dispatch is a function-pointer table chosen by the process ISA
// (util/isa.h: DASH_FORCE_ISA, else the cpuid probe, probed once), the
// same choice that selects the ChaCha20 mask batch. Tests iterate
// AvailableIsas() and pin each in-process via ScopedIsaForTesting, so
// one machine exercises every path it can.
//
// Every implementation is BIT-IDENTICAL to the scalar reference kernel
// (ComputeLocalStatsScalar): SIMD lanes map to distinct output columns
// (never to partial sums of one column), multiplies and adds stay
// separate instructions (the ISA units are compiled with
// -ffp-contract=off so no FMA contraction changes rounding) except in
// the AVX-512 packed kernel, whose explicit FMAs are exact by a
// checked premise (stats_kernels_avx512.cc), and the packed kernels
// add each column's nonzeros in ascending row order on either path.
// See tests/core_kernel_identity_test.cc.

#ifndef DASH_CORE_KERNELS_STATS_KERNELS_H_
#define DASH_CORE_KERNELS_STATS_KERNELS_H_

#include <cstdint>

#include "util/isa.h"

namespace dash {
class Matrix;
class PackedGenotypeMatrix;
struct StatsBlockView;
}  // namespace dash

namespace dash {
namespace kernels {

// The name of a table's ISA, as perfbench prints it; IsaName(isa).
inline const char* StatsIsaName(Isa isa) { return IsaName(isa); }

// Adds rows [0, rows) of one row panel into a column block's resident
// accumulators: xy[jj] += x(i,jj)·y[i], xx[jj] += x(i,jj)², and the
// covariate-major K x w tile tile[kk*w + jj] += x(i,jj)·q(i,kk).
// `x` points at (panel start, block start); x_stride is the parent
// matrix's row length; q is row-major with k columns.
using DensePanelFn = void (*)(const double* x, int64_t x_stride, int64_t rows,
                              const double* y, const double* q, int64_t k,
                              int64_t w, double* xy, double* xx, double* tile);

// ACCUMULATES xy/xx/qtx for packed columns [col_begin, col_end) into
// `out` (column j lands at offset j - col_begin; the caller zeroes the
// destination before the first call). y has x.rows() entries; q is
// row-major x.rows() x K. The accumulate contract — per-column proj
// lanes seeded from `out`, X·X added as an exact per-call integer
// count — lets the out-of-core path feed row panels through repeated
// calls while every output element keeps the one unbroken add chain of
// a full in-memory sweep.
using PackedColumnsFn = void (*)(const PackedGenotypeMatrix& x,
                                 const double* y, const Matrix& q,
                                 int64_t col_begin, int64_t col_end,
                                 const StatsBlockView& out);

struct StatsKernelTable {
  Isa isa = Isa::kPortable;
  DensePanelFn dense_panel = nullptr;
  PackedColumnsFn packed_columns = nullptr;
};

// The table the scan kernels dispatch through: the one for ActiveIsa().
const StatsKernelTable& ActiveStatsKernels();

// Cache-block geometry of the packed kernels: column blocks whose
// xy / class-count / QᵀX-slab accumulators stay register- or
// L1-resident across the sweep, and short word panels (32 rows per
// word) so the y and Q rows a panel touches stay cache-hot for all
// columns of the block.
inline constexpr int64_t kPackedColBlock = 128;
inline constexpr int64_t kPackedPanelWords = 8;

// --- per-ISA entry points (implementation detail) ---------------------
// One pair per translation unit; ActiveStatsKernels() is the supported
// way to reach them. The AVX declarations exist on every platform; the
// symbols are only linked in when the build includes the x86 units.
void DensePanelPortable(const double* x, int64_t x_stride, int64_t rows,
                        const double* y, const double* q, int64_t k, int64_t w,
                        double* xy, double* xx, double* tile);
void PackedColumnsPortable(const PackedGenotypeMatrix& x, const double* y,
                           const Matrix& q, int64_t col_begin, int64_t col_end,
                           const StatsBlockView& out);
void DensePanelAvx2(const double* x, int64_t x_stride, int64_t rows,
                    const double* y, const double* q, int64_t k, int64_t w,
                    double* xy, double* xx, double* tile);
void PackedColumnsAvx2(const PackedGenotypeMatrix& x, const double* y,
                       const Matrix& q, int64_t col_begin, int64_t col_end,
                       const StatsBlockView& out);
void DensePanelAvx512(const double* x, int64_t x_stride, int64_t rows,
                      const double* y, const double* q, int64_t k, int64_t w,
                      double* xy, double* xx, double* tile);
void PackedColumnsAvx512(const PackedGenotypeMatrix& x, const double* y,
                         const Matrix& q, int64_t col_begin, int64_t col_end,
                         const StatsBlockView& out);

}  // namespace kernels
}  // namespace dash

#endif  // DASH_CORE_KERNELS_STATS_KERNELS_H_
