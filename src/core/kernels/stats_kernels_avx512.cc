// AVX-512 sufficient-statistics kernels. This translation unit is
// compiled with per-file flags -mavx512f -mavx512bw -mavx512dq
// -mavx512vl and -ffp-contract=off (see src/CMakeLists.txt); the
// contract flag matters for bit-identity — with FMA available the
// compiler would otherwise fuse the dense kernel's explicit mul+add
// intrinsic pairs into FMAs, which round once instead of twice and
// diverge from the scalar reference.
//
// The packed kernel is the one exception, and it fuses on purpose:
// both of its paths add each dosage product with one explicit FMA. A
// lane adds only for codes 1 and 2, so the product is 1.0·v or 2.0·v,
// which is exact whenever 2·|v| does not overflow. An FMA rounds
// acc + d·v once; the reference's mul rounds the exact product (a
// no-op) and its add then rounds the same sum once. The bits are
// therefore equal, including the sign of a zero sum (the default
// MXCSR: no FTZ, no DAZ, which the library never changes).
// PackedColumnsImpl checks the premise on every q entry and y value it
// copies (|v| <= 2^1022, which also rejects NaN and ±inf) and hands
// any call that fails it to the portable kernel.
#ifndef __AVX512F__
#error "stats_kernels_avx512.cc requires -mavx512f (per-file flag in src/CMakeLists.txt)"
#endif

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "core/kernels/stats_kernels.h"
#include "core/suff_stats.h"
#include "linalg/packed_matrix.h"

namespace dash {
namespace kernels {

// Dense row-panel kernel, 8 columns per zmm lane-group. Lanes map to
// DISTINCT output columns — never to partial sums of one column — so
// each output element still accumulates over rows in exactly the
// scalar reference's order. Scalar tails (w not a multiple of 8) run
// in the same row-major order.
void DensePanelAvx512(const double* x, int64_t x_stride, int64_t rows,
                      const double* y, const double* q, int64_t k, int64_t w,
                      double* xy, double* xx, double* tile) {
  for (int64_t i = 0; i < rows; ++i) {
    const double* xi = x + i * x_stride;
    const double yi = y[i];
    const __m512d yv = _mm512_set1_pd(yi);
    int64_t jj = 0;
    for (; jj + 8 <= w; jj += 8) {
      const __m512d v = _mm512_loadu_pd(xi + jj);
      _mm512_storeu_pd(xy + jj, _mm512_add_pd(_mm512_loadu_pd(xy + jj),
                                              _mm512_mul_pd(v, yv)));
      _mm512_storeu_pd(xx + jj, _mm512_add_pd(_mm512_loadu_pd(xx + jj),
                                              _mm512_mul_pd(v, v)));
    }
    for (; jj < w; ++jj) {
      const double v = xi[jj];
      xy[jj] += v * yi;
      xx[jj] += v * v;
    }
    const double* qi = q + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const double qik = qi[kk];
      const __m512d qv = _mm512_set1_pd(qik);
      double* t = tile + kk * w;
      int64_t j2 = 0;
      for (; j2 + 8 <= w; j2 += 8) {
        const __m512d v = _mm512_loadu_pd(xi + j2);
        _mm512_storeu_pd(t + j2, _mm512_add_pd(_mm512_loadu_pd(t + j2),
                                               _mm512_mul_pd(v, qv)));
      }
      for (; j2 < w; ++j2) t[j2] += xi[j2] * qik;
    }
  }
}

namespace {

constexpr uint64_t kEvenBits = 0x5555555555555555ULL;
constexpr double kDosage[4] = {0.0, 1.0, 2.0, 0.0};
constexpr int64_t kRowsPerWord = PackedGenotypeMatrix::kRowsPerWord;

// Variants per lane group: one zmm holds one accumulator lane of eight
// adjacent columns.
constexpr int64_t kLaneGroup = 8;

// Density crossover between the two packed paths, as a cost ratio. On
// every row of a group the column-lane path spends KA + 3 vector ops
// (one masked FMA per accumulator, then the dosage lookup, the nonzero
// test and the code shift); the pair replay spends about
// kReplayCostPerNonzero such ops on each nonzero it replays (ctz,
// branch, broadcast, dependent FMA chain). A group takes the lane path
// over a word panel when the replay would cost more, i.e. above a
// density of (KA + 3) / (8 · kReplayCostPerNonzero). Fitted to
// one-thread density sweeps at K = 3, 10 and 20 (DESIGN.md §13).
constexpr int64_t kReplayCostPerNonzero = 24;

// Bit 2r is set iff row r of the word holds a nonzero call (code 1 or
// 2); codes 0 and 3 (missing) contribute nothing.
inline uint64_t NonzeroBits(uint64_t word) {
  return (word & kEvenBits) ^ ((word >> 1) & kEvenBits);
}

// Adds a word's heterozygote (code 1) and homozygote (code 2) counts.
// X·X is the exact integer #het + 4·#hom, so its order never matters.
inline void CountClasses(uint64_t word, int64_t* het, int64_t* hom) {
  const uint64_t lo = word & kEvenBits;
  const uint64_t hi = (word >> 1) & kEvenBits;
  *het += __builtin_popcountll(lo & ~hi);
  *hom += __builtin_popcountll(hi & ~lo);
}

// One column's QᵀX + X·y accumulator: KP padded lanes (K covariates,
// then the phenotype — X·y is just one more projection, so it rides
// the same vector ops instead of paying its own scalar chain per
// nonzero) held in KP/8 zmm registers plus one ymm for a 4-wide
// remainder. KP <= 24 so at most 3 zmm per column — the pair replay
// keeps two of these (6 zmm + 2 ymm) register-resident across a whole
// word panel.
template <int KP>
struct ProjAcc {
  static constexpr int kNz = KP / 8;
  static constexpr bool kHasTail = (KP % 8) != 0;
  __m512d z[kNz == 0 ? 1 : kNz];
  __m256d tail;

  void Load(const double* p) {
    for (int c = 0; c < kNz; ++c) z[c] = _mm512_loadu_pd(p + 8 * c);
    if constexpr (kHasTail) tail = _mm256_loadu_pd(p + 8 * kNz);
  }
  void Store(double* p) const {
    for (int c = 0; c < kNz; ++c) _mm512_storeu_pd(p + 8 * c, z[c]);
    if constexpr (kHasTail) _mm256_storeu_pd(p + 8 * kNz, tail);
  }
  // One exact fused update per lane (v is a dosage, 1.0 or 2.0; see
  // the file comment). The ymm tail uses the EVEX masked form, which
  // AVX512VL provides: plain _mm256_fmadd_pd would need -mfma.
  void Add(double v, const double* qrow) {
    // Separate zmm/ymm broadcasts: GCC's _mm512_castpd512_pd256 trips
    // -Wmaybe-uninitialized through _mm256_undefined_pd, and the extra
    // vbroadcastsd is free next to the FMA chain.
    if constexpr (kNz > 0) {
      const __m512d vb = _mm512_set1_pd(v);
      for (int c = 0; c < kNz; ++c) {
        z[c] = _mm512_fmadd_pd(vb, _mm512_loadu_pd(qrow + 8 * c), z[c]);
      }
    }
    if constexpr (kHasTail) {
      const __m256d vt = _mm256_set1_pd(v);
      tail = _mm256_mask3_fmadd_pd(vt, _mm256_loadu_pd(qrow + 8 * kNz), tail,
                                   0x0F);
    }
  }
  // Adds the lowest nonzero row left in *nz (NonzeroBits of `word`,
  // whose row 0 is row `base`) and clears it from *nz.
  void AddNext(uint64_t word, uint64_t* nz, int64_t base, const double* qp) {
    const int b = __builtin_ctzll(*nz);
    *nz &= *nz - 1;
    Add(kDosage[(word >> b) & 3u], qp + (base + (b >> 1)) * KP);
  }
};

// Pair replay of words [w0, w1) of two columns whose accumulators live
// at pra / prb. The two columns share the word loop so their
// per-nonzero FMA chains interleave: one column's chain (~4-cycle
// latency per nonzero) leaves the FP ports mostly idle, and the second
// independent chain fills them — measured 1.08x over replaying each
// column alone (ReplayColumn) on rare data, N = 100k, M = 10k, MAF
// 0.001-0.02 (DESIGN.md §13).
template <int KP>
void ReplayPair(const uint64_t* cwa, const uint64_t* cwb, int64_t w0,
                int64_t w1, const double* qp, double* pra, double* prb,
                int64_t* het, int64_t* hom) {
  ProjAcc<KP> pa;
  ProjAcc<KP> pb;
  pa.Load(pra);
  pb.Load(prb);
  for (int64_t wi = w0; wi < w1; ++wi) {
    const uint64_t worda = cwa[wi];
    const uint64_t wordb = cwb[wi];
    if ((worda | wordb) == 0) continue;
    CountClasses(worda, het, hom);
    CountClasses(wordb, het + 1, hom + 1);
    const int64_t base = wi * kRowsPerWord;
    uint64_t nza = NonzeroBits(worda);
    uint64_t nzb = NonzeroBits(wordb);
    while ((nza | nzb) != 0) {
      if (nza != 0) pa.AddNext(worda, &nza, base, qp);
      if (nzb != 0) pb.AddNext(wordb, &nzb, base, qp);
    }
  }
  pa.Store(pra);
  pb.Store(prb);
}

// The odd last column of a short group.
template <int KP>
void ReplayColumn(const uint64_t* cw, int64_t w0, int64_t w1,
                  const double* qp, double* pr, int64_t* het, int64_t* hom) {
  ProjAcc<KP> pacc;
  pacc.Load(pr);
  for (int64_t wi = w0; wi < w1; ++wi) {
    const uint64_t word = cw[wi];
    CountClasses(word, het, hom);
    uint64_t nz = NonzeroBits(word);
    while (nz != 0) pacc.AddNext(word, &nz, wi * kRowsPerWord, qp);
  }
  pacc.Store(pr);
}

// acc[I] += dosage · q(i, I) on the lanes in nz, for every I of the
// pack, as one exact masked FMA (file comment). The fold unrolls at any
// optimization level, so the KA accumulators stay in registers.
template <size_t... I>
inline void LaneRow(__m512d* acc, __m512d dosage, __mmask8 nz,
                    const double* qrow, std::index_sequence<I...>) {
  ((acc[I] = _mm512_mask3_fmadd_pd(dosage, _mm512_set1_pd(qrow[I]), acc[I],
                                   nz)),
   ...);
}

// Lane I of a group's accumulators: row I of QᵀX for I < KA - 1, X·y
// for the last; each is 8 adjacent output columns of `out`.
template <size_t... I>
inline void LoadLanes(__m512d* acc, const double* xy, const double* qtx,
                      int64_t stride, std::index_sequence<I...>) {
  constexpr size_t kLast = sizeof...(I) - 1;
  ((acc[I] = _mm512_loadu_pd(I == kLast ? xy : qtx + I * stride)), ...);
}
template <size_t... I>
inline void StoreLanes(const __m512d* acc, double* xy, double* qtx,
                       int64_t stride, std::index_sequence<I...>) {
  constexpr size_t kLast = sizeof...(I) - 1;
  (_mm512_storeu_pd(I == kLast ? xy : qtx + I * stride, acc[I]), ...);
}

// Column-lane path over words [w0, w1) of the 8 columns whose first
// word array is `words` (column c's words follow at c * wpc). Each zmm
// lane is one column, as in the dense kernel, so each output element
// keeps its own accumulator and its own add chain. Every row of a word
// is visited in ascending order; the row's 2-bit codes index a dosage
// table and the FMA is masked to codes 1 and 2, so each element
// receives exactly the scalar reference's products in its order.
// Accumulators load from and store to `out`, whose QᵀX rows and X·y
// are already lane-major.
template <int KP, int KA>
void LaneGroup(const uint64_t* words, int64_t wpc, int64_t w0, int64_t w1,
               const double* qp, double* xy, double* qtx, int64_t stride,
               int64_t* het, int64_t* hom) {
  using Lanes = std::make_index_sequence<KA>;
  __m512d acc[KA];
  LoadLanes(acc, xy, qtx, stride, Lanes{});
  const __m512i column_offsets = _mm512_mullo_epi64(
      _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7), _mm512_set1_epi64(wpc));
  // vpermpd reads three index bits: the row's code plus the low bit of
  // the next row's, hence the table repeated twice.
  const __m512d dosage_of = _mm512_setr_pd(0.0, 1.0, 2.0, 0.0,  //
                                           0.0, 1.0, 2.0, 0.0);
  // The mask/maskz forms with a zero source keep GCC from flagging the
  // plain forms' undefined pass-through operand.
  const __m512i zero = _mm512_setzero_si512();
  for (int64_t wi = w0; wi < w1; ++wi) {
    __m512i codes = _mm512_mask_i64gather_epi64(zero, 0xFF, column_offsets,
                                                words + wi, 8);
    if (_mm512_test_epi64_mask(codes, codes) == 0) continue;
    // Scalar popcounts: they run beside the vector ops, not on their
    // ports.
    for (int64_t c = 0; c < kLaneGroup; ++c) {
      CountClasses(words[c * wpc + wi], het + c, hom + c);
    }
    const double* qrow = qp + wi * kRowsPerWord * KP;
    for (int64_t r = 0; r < kRowsPerWord; ++r, qrow += KP) {
      const __m512d dosage =
          _mm512_maskz_permutexvar_pd(0xFF, codes, dosage_of);
      const __m512i bits = _mm512_castpd_si512(dosage);
      LaneRow(acc, dosage, _mm512_test_epi64_mask(bits, bits), qrow, Lanes{});
      codes = _mm512_maskz_srli_epi64(0xFF, codes, 2);
    }
  }
  StoreLanes(acc, xy, qtx, stride, Lanes{});
}

// Packed column-range kernel for K = KA - 1 covariates, KP = KA rounded
// up to 4. Per column block and word panel, each 8-column group takes
// the column-lane path if it is dense enough (kReplayCostPerNonzero)
// and the pair replay if not. Both give every output element the
// scalar reference's products in ascending row order, so a group may
// switch paths from one panel to the next without changing a bit;
// dosage multiplies by 1.0 / 2.0 are exact, and so are the fused
// updates that add them. Both also count the dosage classes of the
// words they visit: X·X is the exact integer #het + 4·#hom.
//
// q and y are copied once into a KP-padded row-major scratch
// ([q(i,0..k-1), y[i], 0...] per row), padded with zero rows to whole
// 32-row words: the lane path loads a q row for every slot of a word,
// and the replay's vector loads never cross into the next row or read
// past the allocation (its padding lanes accumulate into proj entries
// > k that are never written back). The copy also checks the fused
// updates' premise, |v| <= 2^1022 for every copied value; a call that
// fails it runs the portable kernel instead.
template <int KA>
void PackedColumnsImpl(const PackedGenotypeMatrix& x, const double* y,
                       const Matrix& q, int64_t col_begin, int64_t col_end,
                       const StatsBlockView& out) {
  constexpr int KP = (KA + 3) / 4 * 4;
  constexpr int64_t k = KA - 1;
  const int64_t n = x.rows();
  const int64_t wpc = x.words_per_column();

  std::vector<double> qpad(static_cast<size_t>(wpc * kRowsPerWord * KP), 0.0);
  {
    const double* qd = q.data();
    double* dst = qpad.data();
    bool exact = true;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t kk = 0; kk < k; ++kk) {
        const double v = qd[i * k + kk];
        exact &= std::fabs(v) <= 0x1p1022;
        dst[i * KP + kk] = v;
      }
      exact &= std::fabs(y[i]) <= 0x1p1022;
      dst[i * KP + k] = y[i];
    }
    if (!exact) {
      PackedColumnsPortable(x, y, q, col_begin, col_end, out);
      return;
    }
  }
  const double* qp = qpad.data();

  // The replay's accumulators: one KP-lane row per column (lane kk =
  // QᵀX, lane k = X·y, padding lanes 0). A group's accumulators are in
  // proj only between replay visits (in_proj); the lane path keeps
  // them in `out`, whose layout it shares. het/hom are per-call
  // integer counts; out.xx picks them up with an exact integer add at
  // the end of each block.
  std::vector<double> proj(static_cast<size_t>(kPackedColBlock * KP), 0.0);
  std::vector<int64_t> het(static_cast<size_t>(kPackedColBlock), 0);
  std::vector<int64_t> hom(static_cast<size_t>(kPackedColBlock), 0);
  bool in_proj[kPackedColBlock / kLaneGroup];
  double* const projd = proj.data();
  int64_t* const hetd = het.data();
  int64_t* const homd = hom.data();

  // Moves columns [g0, g1)'s accumulators between `out` and proj. The
  // kernel ACCUMULATES into its destination (callers zero the arena
  // before the first call), so an out-of-core sweep feeding row panels
  // through repeated calls continues the exact per-element add chain
  // of a single full-matrix sweep.
  const auto seed_proj = [&](int64_t j0, int64_t g0, int64_t g1) {
    for (int64_t j = g0; j < g1; ++j) {
      const int64_t off = j - col_begin;
      double* pr = projd + (j - j0) * KP;
      for (int64_t kk = 0; kk < k; ++kk) {
        pr[kk] = out.qtx[kk * out.qtx_stride + off];
      }
      pr[k] = out.xy[off];
      for (int64_t kk = k + 1; kk < KP; ++kk) pr[kk] = 0.0;
    }
  };
  const auto spill_proj = [&](int64_t j0, int64_t g0, int64_t g1) {
    for (int64_t j = g0; j < g1; ++j) {
      const int64_t off = j - col_begin;
      const double* pr = projd + (j - j0) * KP;
      out.xy[off] = pr[k];
      for (int64_t kk = 0; kk < k; ++kk) {
        out.qtx[kk * out.qtx_stride + off] = pr[kk];
      }
    }
  };

  for (int64_t j0 = col_begin; j0 < col_end; j0 += kPackedColBlock) {
    const int64_t j1 = std::min(col_end, j0 + kPackedColBlock);
    std::fill(het.begin(), het.end(), 0);
    std::fill(hom.begin(), hom.end(), 0);
    std::fill(std::begin(in_proj), std::end(in_proj), false);

    for (int64_t w0 = 0; w0 < wpc; w0 += kPackedPanelWords) {
      const int64_t w1 = std::min(wpc, w0 + kPackedPanelWords);
      for (int64_t g0 = j0; g0 < j1; g0 += kLaneGroup) {
        const int64_t g1 = std::min(j1, g0 + kLaneGroup);
        // The density comes from a sample, the panel's first word of
        // each column: a full count before the replay, which counts
        // inline anyway, cost rare data ~8% (DESIGN.md §13). A wrong
        // guess near the crossover costs little; it never costs a bit.
        int64_t sample_nnz = 0;
        for (int64_t j = g0; j < g1; ++j) {
          sample_nnz +=
              __builtin_popcountll(NonzeroBits(x.column_words(j)[w0]));
        }
        bool& replaying = in_proj[(g0 - j0) / kLaneGroup];
        if (g1 - g0 == kLaneGroup &&
            sample_nnz * kReplayCostPerNonzero >= kRowsPerWord * (KA + 3)) {
          if (replaying) spill_proj(j0, g0, g1);
          replaying = false;
          const int64_t off = g0 - col_begin;
          LaneGroup<KP, KA>(x.column_words(g0), wpc, w0, w1, qp,
                            out.xy + off, out.qtx + off, out.qtx_stride,
                            hetd + (g0 - j0), homd + (g0 - j0));
          continue;
        }
        if (!replaying) seed_proj(j0, g0, g1);
        replaying = true;
        int64_t j = g0;
        for (; j + 2 <= g1; j += 2) {
          double* pr = projd + (j - j0) * KP;
          ReplayPair<KP>(x.column_words(j), x.column_words(j + 1), w0, w1, qp,
                         pr, pr + KP, hetd + (j - j0), homd + (j - j0));
        }
        if (j < g1) {
          ReplayColumn<KP>(x.column_words(j), w0, w1, qp,
                           projd + (j - j0) * KP, hetd + (j - j0),
                           homd + (j - j0));
        }
      }
    }

    for (int64_t g0 = j0; g0 < j1; g0 += kLaneGroup) {
      if (in_proj[(g0 - j0) / kLaneGroup]) {
        spill_proj(j0, g0, std::min(j1, g0 + kLaneGroup));
      }
    }
    for (int64_t j = j0; j < j1; ++j) {
      out.xx[j - col_begin] += static_cast<double>(hetd[j - j0]) +
                               4.0 * static_cast<double>(homd[j - j0]);
    }
  }
}

// One instantiation per K = KA - 1 < 24: the lane path keeps exactly
// K + 1 accumulators, the replay KA rounded up to 4 lanes.
template <size_t... I>
constexpr std::array<PackedColumnsFn, sizeof...(I)> PackedColumnsByK(
    std::index_sequence<I...>) {
  return {&PackedColumnsImpl<static_cast<int>(I) + 1>...};
}

constexpr auto kPackedColumnsByK =
    PackedColumnsByK(std::make_index_sequence<24>());

}  // namespace

void PackedColumnsAvx512(const PackedGenotypeMatrix& x, const double* y,
                         const Matrix& q, int64_t col_begin, int64_t col_end,
                         const StatsBlockView& out) {
  const auto k = static_cast<size_t>(q.cols());
  if (k < kPackedColumnsByK.size()) {
    kPackedColumnsByK[k](x, y, q, col_begin, col_end, out);
  } else {
    // k > 23 (more covariates than the register-resident
    // accumulators cover): the portable kernel handles any K.
    PackedColumnsPortable(x, y, q, col_begin, col_end, out);
  }
}

}  // namespace kernels
}  // namespace dash
