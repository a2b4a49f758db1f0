// Multiple-phenotype association scans (paper §5).
//
// For T phenotypes sharing one X and C (biobanks, eQTL studies), the
// expensive statistics X.X and QᵀX are phenotype-independent; only the
// cheap y-side statistics (y.y, Qᵀy, X.y) are per-phenotype. The secure
// variant aggregates all T phenotypes' statistics in a single secure-sum
// round, so the marginal cost of a phenotype is O(M) compute and O(M)
// bytes.

#ifndef DASH_CORE_MULTI_PHENOTYPE_SCAN_H_
#define DASH_CORE_MULTI_PHENOTYPE_SCAN_H_

#include <cstdint>
#include <vector>

#include "core/association_scan.h"
#include "core/scan_result.h"
#include "core/secure_scan.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace dash {

// One party's block with a phenotype matrix (N_p x T) instead of a
// single vector.
struct MultiPhenotypePartyData {
  Matrix x;   // N_p x M
  Matrix ys;  // N_p x T
  Matrix c;   // N_p x K

  int64_t num_samples() const { return x.rows(); }
};

// Single-site scan of every phenotype column; result t corresponds to
// ys.Col(t).
Result<std::vector<ScanResult>> MultiPhenotypeScan(
    const Matrix& x, const Matrix& ys, const Matrix& c,
    const ScanOptions& options = {});

struct SecureMultiPhenotypeOutput {
  std::vector<ScanResult> results;  // one per phenotype
  SecureScanMetrics metrics;
};

// Secure multi-party version: P threads of RunPartySummandProtocol
// (transport/party_runner.h) — one R combination plus one secure-sum
// aggregation covering all phenotypes. The totals include Qᵀy and QᵀX,
// so options.projection kBeaverDotProducts and options.center_per_party
// fail InvalidArgument.
Result<SecureMultiPhenotypeOutput> SecureMultiPhenotypeScan(
    const std::vector<MultiPhenotypePartyData>& parties,
    const SecureScanOptions& options = {});

}  // namespace dash

#endif  // DASH_CORE_MULTI_PHENOTYPE_SCAN_H_
