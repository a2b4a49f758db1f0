// Online / batched association scan via Cᵀ-compression (paper §5 and
// preface).
//
// The preface imagines secure GWAS running "in online fashion as new
// batches of samples come online". The §5 remark that one "can
// alternatively compress using Cᵀ rather than Qᵀ" makes this possible:
// the statistics
//
//   y.y, Cᵀy (K), CᵀC (K x K), X.y (M), X.X (M), CᵀX (K x M)
//
// are all additive over sample batches, unlike Qᵀ-statistics (Q changes
// whenever C grows). Finalize() recovers the Q-statistics from the
// Cholesky factor of CᵀC (Qᵀ = L⁻¹Cᵀ where CᵀC = LLᵀ) and applies
// Lemma 2.1 — the result is identical to rescanning all data from
// scratch, but each batch is touched once. The accumulator is one
// single-phenotype CompressedStudy (core/compressed_study.h).

#ifndef DASH_CORE_ONLINE_SCAN_H_
#define DASH_CORE_ONLINE_SCAN_H_

#include <cstdint>

#include "core/compressed_study.h"
#include "core/scan_result.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace dash {

class OnlineScan {
 public:
  // Fixes the study shape up front; every batch must bring M transient
  // and K permanent covariates.
  OnlineScan(int64_t num_variants, int64_t num_covariates);

  // Folds a batch of samples into the running statistics.
  Status AddBatch(const Matrix& x, const Vector& y, const Matrix& c);

  // Scan over everything seen so far. Requires N > K + 1 and CᵀC
  // positive definite (full-column-rank accumulated C).
  Result<ScanResult> Finalize() const;

  int64_t samples_seen() const { return study_.num_samples(); }
  int64_t batches_seen() const { return num_batches_; }

  // The accumulated Cᵀ statistics (what SecureOnlineScan aggregates).
  const CompressedStudy& study() const { return study_; }

 private:
  CompressedStudy study_;
  int64_t num_batches_ = 0;
};

}  // namespace dash

#endif  // DASH_CORE_ONLINE_SCAN_H_
