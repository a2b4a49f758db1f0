// Secure online GWAS: the preface's "secure multi-party GWAS ... done on
// a public cloud in online fashion as new batches of samples come
// online".
//
// Each party folds enrollment batches into a local Cᵀ-compressed
// accumulator (additive, each batch touched once — core/online_scan.h);
// whenever a fresh genome-wide result is wanted, one secure aggregation
// of the accumulators is run and the scan finalized. Between
// re-aggregations there is ZERO communication; each re-aggregation costs
// the usual O(M) bytes regardless of how many samples have accumulated.

#ifndef DASH_CORE_SECURE_ONLINE_SCAN_H_
#define DASH_CORE_SECURE_ONLINE_SCAN_H_

#include <cstdint>
#include <vector>

#include "core/compressed_study.h"
#include "core/scan_result.h"
#include "core/secure_scan.h"
#include "util/status.h"

namespace dash {

class SecureOnlineScan {
 public:
  // Fixes the study shape: `num_parties` institutions, M variants,
  // K permanent covariates.
  SecureOnlineScan(int num_parties, int64_t num_variants,
                   int64_t num_covariates,
                   const SecureScanOptions& options = {});

  // Folds a batch of party `party`'s new samples into its local
  // accumulator. Purely local — no communication.
  Status AddBatch(int party, const Matrix& x, const Vector& y,
                  const Matrix& c);

  // Runs one secure aggregation of the current accumulators and returns
  // the scan over everything seen so far. Callable repeatedly; requires
  // N > K + 1 accumulated samples overall.
  Result<SecureScanOutput> Finalize() const;

  int64_t samples_seen() const;
  int64_t batches_seen() const { return batches_; }
  int num_parties() const { return static_cast<int>(accumulators_.size()); }

 private:
  int64_t num_variants_;
  int64_t num_covariates_;
  SecureScanOptions options_;
  std::vector<CompressedStudy> accumulators_;  // one per party
  std::vector<bool> has_data_;
  int64_t batches_ = 0;
};

}  // namespace dash

#endif  // DASH_CORE_SECURE_ONLINE_SCAN_H_
