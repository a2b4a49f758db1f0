#include "core/secure_online_scan.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace dash {

SecureOnlineScan::SecureOnlineScan(int num_parties, int64_t num_variants,
                                   int64_t num_covariates,
                                   const SecureScanOptions& options)
    : options_(options),
      parties_(static_cast<size_t>(num_parties),
               OnlineScan(num_variants, num_covariates)) {
  DASH_CHECK_GE(num_parties, 1);
  DASH_CHECK_GE(num_variants, 1);
}

Status SecureOnlineScan::AddBatch(int party, const Matrix& x, const Vector& y,
                                  const Matrix& c) {
  if (party < 0 || party >= num_parties()) {
    return InvalidArgumentError("party index out of range");
  }
  return parties_[static_cast<size_t>(party)].AddBatch(x, y, c);
}

int64_t SecureOnlineScan::samples_seen() const {
  int64_t n = 0;
  for (const OnlineScan& party : parties_) n += party.samples_seen();
  return n;
}

int64_t SecureOnlineScan::batches_seen() const {
  int64_t batches = 0;
  for (const OnlineScan& party : parties_) batches += party.batches_seen();
  return batches;
}

Result<SecureScanOutput> SecureOnlineScan::Finalize() const {
  std::vector<CompressedStudy> locals;
  for (const OnlineScan& party : parties_) locals.push_back(party.study());
  DASH_ASSIGN_OR_RETURN(CompressedStudy::SecureOutput aggregated,
                        CompressedStudy::SecureAggregate(locals, options_));
  // The pooled N is the protocol's Phase-0 reveal.
  const CompressedStudy& study = aggregated.study;
  if (study.num_samples() <= study.num_covariates() + 1) {
    return FailedPreconditionError(
        "need N > K + 1 accumulated samples before finalizing (have " +
        std::to_string(study.num_samples()) + ")");
  }
  SecureScanOutput out;
  DASH_ASSIGN_OR_RETURN(out.result, study.ScanAllCovariates(0));
  out.metrics = aggregated.metrics;
  out.result_checksum = ScanResultChecksum(out.result);
  return out;
}

}  // namespace dash
