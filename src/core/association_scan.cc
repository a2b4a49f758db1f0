#include "core/association_scan.h"

#include <memory>
#include <string>

#include "core/suff_stats.h"
#include "linalg/qr.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

Status ValidateShapes(int64_t x_rows, int64_t y_size, int64_t c_rows,
                      int64_t k) {
  if (x_rows != y_size || c_rows != x_rows) {
    return InvalidArgumentError("x, y, c disagree on sample count");
  }
  if (x_rows <= k + 1) {
    return InvalidArgumentError(
        "need N > K + 1 samples (N=" + std::to_string(x_rows) +
        ", K=" + std::to_string(k) + ")");
  }
  return Status::Ok();
}

std::unique_ptr<ThreadPool> MakePool(const ScanOptions& options) {
  if (options.num_threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(options.num_threads);
}

// Orthonormal basis of col(c); the K = 0 case (no covariates, e.g. the
// per-party-centering mode) yields an empty N x 0 basis.
Result<Matrix> CovariateBasis(const Matrix& c) {
  if (c.cols() == 0) return Matrix(c.rows(), 0);
  DASH_ASSIGN_OR_RETURN(QrDecomposition qr, ThinQr(c));
  return std::move(qr.q);
}

// Lemma 2.1 on one site's summand arena.
Result<ScanResult> FinalizeArena(const Vector& flat, int64_t n, int64_t m,
                                 int64_t k) {
  DASH_ASSIGN_OR_RETURN(ScanSufficientStats stats, UnflattenStats(flat, m, k));
  stats.num_samples = n;
  return FinalizeScan(stats);
}

}  // namespace

Result<ScanResult> AssociationScan(const Matrix& x, const Vector& y,
                                   const Matrix& c,
                                   const ScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateShapes(x.rows(), static_cast<int64_t>(y.size()),
                                      c.rows(), c.cols()));
  DASH_ASSIGN_OR_RETURN(Matrix q, CovariateBasis(c));
  std::unique_ptr<ThreadPool> pool = MakePool(options);
  return FinalizeArena(ComputeLocalStatsFlat(x, y, q, pool.get()), x.rows(),
                       x.cols(), q.cols());
}

Result<ScanResult> AssociationScanSparse(const SparseColumnMatrix& x,
                                         const Vector& y, const Matrix& c,
                                         const ScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateShapes(x.rows(), static_cast<int64_t>(y.size()),
                                      c.rows(), c.cols()));
  DASH_ASSIGN_OR_RETURN(Matrix q, CovariateBasis(c));
  std::unique_ptr<ThreadPool> pool = MakePool(options);
  return FinalizeArena(ComputeLocalStatsSparseFlat(x, y, q, pool.get()),
                       x.rows(), x.cols(), q.cols());
}

}  // namespace dash
