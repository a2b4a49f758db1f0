// 2-bit packed genotype matrix (paper §2, claim C6).
//
// Hard-called genotypes take values {0, 1, 2}; PackedGenotypeMatrix
// stores them 4-per-byte as 2-bit codes, column-major, 32 genotypes per
// uint64 word. Code 3 marks a missing call. The packed form is what the
// popcount scan kernels (src/core/kernels/) consume: per 64-bit word
// they derive heterozygote / homozygote / missing / nonzero masks with
// three bit operations each, count dosage classes with popcount, and
// touch y / Q rows only at nonzero genotypes — so the flop count of the
// sufficient-statistics scan is proportional to sparsity instead of N,
// for 8-column groups below the column-lane crossover. Denser groups
// on AVX-512 visit every row of a word with eight variants per vector,
// a flat per-row cost below what their replay would take (DESIGN.md
// §13).
//
// Word layout: column j occupies words_per_column() consecutive words;
// row i lives in word i / 32 at bit offset 2 * (i % 32) (little-endian
// within the word). Rows beyond rows() in the final word are always
// code 0, so kernels may consume whole words without a tail guard
// (mutable_column_words can break that; WritePackedStudy and
// PackedStudyReader::ReadPanel refuse such data).
//
// Missing semantics: a missing call (code 3) contributes nothing to any
// statistic — identical to dosage 0. Callers that want mean imputation
// or any other policy must apply it before packing (data/missing_data);
// the kernels themselves never invent values.

#ifndef DASH_LINALG_PACKED_MATRIX_H_
#define DASH_LINALG_PACKED_MATRIX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"

namespace dash {

class PackedGenotypeMatrix {
 public:
  static constexpr uint8_t kMissingCode = 3;
  static constexpr int64_t kRowsPerWord = 32;

  // An all-zero (all reference-homozygote) rows x cols matrix.
  PackedGenotypeMatrix(int64_t rows, int64_t cols);

  // True iff v is a hard-call dosage representable in 2 bits.
  static bool IsDosageValue(double v) {
    return v == 0.0 || v == 1.0 || v == 2.0;
  }

  // True iff every entry of `dense` is 0.0, 1.0 or 2.0.
  static bool IsDosageMatrix(const Matrix& dense);

  // Packs a dense dosage matrix; nullopt when any entry is not {0,1,2}.
  static std::optional<PackedGenotypeMatrix> TryFromDense(const Matrix& dense);

  // Packs the nonzeros of a sparse dosage matrix; nullopt when any
  // stored value is not 1.0 or 2.0 (an explicit stored 0 is fine).
  static std::optional<PackedGenotypeMatrix> TryFromSparse(
      const SparseColumnMatrix& sparse);

  // CHECK-failing forms of the converters above, for callers that have
  // already validated their data.
  static PackedGenotypeMatrix FromDense(const Matrix& dense);
  static PackedGenotypeMatrix FromSparse(const SparseColumnMatrix& sparse);

  // Expands back to dense doubles; missing calls expand to 0.0 (the
  // contribution they make to every statistic).
  Matrix ToDense() const;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t words_per_column() const { return words_per_column_; }

  // The packed words of column j (words_per_column() of them).
  const uint64_t* column_words(int64_t j) const {
    DASH_DCHECK(0 <= j && j < cols_);
    return words_.data() + static_cast<size_t>(j * words_per_column_);
  }
  uint64_t* mutable_column_words(int64_t j) {
    DASH_DCHECK(0 <= j && j < cols_);
    return words_.data() + static_cast<size_t>(j * words_per_column_);
  }

  // Single-element access; code is one of {0, 1, 2, kMissingCode}.
  uint8_t Code(int64_t i, int64_t j) const {
    DASH_DCHECK(0 <= i && i < rows_ && 0 <= j && j < cols_);
    const uint64_t word =
        column_words(j)[static_cast<size_t>(i / kRowsPerWord)];
    return static_cast<uint8_t>((word >> (2 * (i % kRowsPerWord))) & 3u);
  }
  void Set(int64_t i, int64_t j, uint8_t code);

  // Resets every entry to code 0 without reallocating (kernel scratch
  // reuse when packing one column block at a time).
  void Clear();

  // Per-column dosage-class counts, derived by popcount over the packed
  // words (O(rows / 32); nothing is cached, so the counts can never go
  // stale through Set or mutable_column_words).
  struct ColumnCounts {
    int64_t het = 0;      // code 1
    int64_t hom = 0;      // code 2
    int64_t missing = 0;  // code 3
    int64_t nnz() const { return het + hom; }
  };
  ColumnCounts Counts(int64_t j) const;

  // Stored nonzero (dosage 1 or 2) calls in column j / overall, and the
  // nonzero fraction (0 for an empty matrix). Missing calls are not
  // nonzeros: they contribute nothing to any statistic.
  int64_t ColumnNnz(int64_t j) const { return Counts(j).nnz(); }
  int64_t TotalNnz() const;
  double Density() const;

 private:
  int64_t rows_;
  int64_t cols_;
  int64_t words_per_column_;
  std::vector<uint64_t> words_;
};

}  // namespace dash

#endif  // DASH_LINALG_PACKED_MATRIX_H_
