#include "core/online_scan.h"

#include <string>

#include "util/check.h"

namespace dash {

OnlineScan::OnlineScan(int64_t num_variants, int64_t num_covariates)
    : study_(CompressedStudy::Compress(Matrix(0, num_variants), Matrix(0, 1),
                                       Matrix(0, num_covariates))
                 .value()) {
  DASH_CHECK_GE(num_variants, 0);
  DASH_CHECK_GE(num_covariates, 0);
}

Status OnlineScan::AddBatch(const Matrix& x, const Vector& y,
                            const Matrix& c) {
  const int64_t n = x.rows();
  if (static_cast<int64_t>(y.size()) != n || c.rows() != n) {
    return InvalidArgumentError("batch x, y, c disagree on sample count");
  }
  if (x.cols() != study_.num_variants()) {
    return InvalidArgumentError(
        "batch has " + std::to_string(x.cols()) + " variants; expected " +
        std::to_string(study_.num_variants()));
  }
  if (c.cols() != study_.num_covariates()) {
    return InvalidArgumentError(
        "batch has " + std::to_string(c.cols()) + " covariates; expected " +
        std::to_string(study_.num_covariates()));
  }
  DASH_ASSIGN_OR_RETURN(
      const CompressedStudy block,
      CompressedStudy::Compress(x, Matrix::ColumnVector(y), c));
  DASH_RETURN_IF_ERROR(study_.Merge(block));
  ++num_batches_;
  return Status::Ok();
}

Result<ScanResult> OnlineScan::Finalize() const {
  if (samples_seen() <= study_.num_covariates() + 1) {
    return FailedPreconditionError(
        "need N > K + 1 accumulated samples before finalizing (have " +
        std::to_string(samples_seen()) + ")");
  }
  return study_.ScanAllCovariates(0);
}

}  // namespace dash
