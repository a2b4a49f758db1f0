// Grouped association scan: multiple transient covariates per test
// (paper §5: "This approach efficiently generalizes to the case of
// multiple transient covariates (such as interaction terms)").
//
// X holds G groups of T consecutive columns; for each group g the model
//
//   y ~ Normal(X_g B_g + C Gamma, tau² I),   B_g ∈ R^T
//
// is fit jointly and H0: B_g = 0 is tested with the exact F statistic on
// (T, N − K − T) degrees of freedom. The closed form mirrors Lemma 2.1
// with the scalars replaced by T x T residual Gram blocks:
//
//   G_g = X_gᵀX_g − (QᵀX_g)ᵀ(QᵀX_g)     b_g = X_gᵀy − (QᵀX_g)ᵀQᵀy
//   B̂_g = G_g⁻¹ b_g                      F = (b_gᵀB̂_g / T) / (RSS/(N−K−T))
//
// Everything is additive over the horizontal partition, so the secure
// multi-party version aggregates O(G (T² + T K)) values — still
// independent of N and parallel in g.

#ifndef DASH_CORE_GROUPED_SCAN_H_
#define DASH_CORE_GROUPED_SCAN_H_

#include <cstdint>
#include <vector>

#include "core/association_scan.h"
#include "core/secure_scan.h"
#include "data/party_split.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace dash {

struct GroupedScanResult {
  Matrix beta;   // T x G joint estimates
  Matrix se;     // T x G per-coefficient standard errors
  Vector fstat;  // length G
  Vector pval;   // length G (F test of the whole group)
  int64_t dof1 = 0;  // T
  int64_t dof2 = 0;  // N - K - T
  int64_t num_untestable = 0;  // groups with singular residual Gram

  int64_t num_groups() const { return static_cast<int64_t>(fstat.size()); }
};

// Single-site grouped scan. x.cols() must be a positive multiple of
// group_size; group g owns columns [g*T, (g+1)*T).
Result<GroupedScanResult> GroupedScan(const Matrix& x, int64_t group_size,
                                      const Vector& y, const Matrix& c,
                                      const ScanOptions& options = {});

struct SecureGroupedScanOutput {
  GroupedScanResult result;
  SecureScanMetrics metrics;
};

// Simulated secure grouped scan: P threads of RunPartySummandProtocol
// (transport/party_runner.h), each finalizing the revealed totals
// locally. The totals include Qᵀy and QᵀX_g, so options.projection
// kBeaverDotProducts and options.center_per_party fail InvalidArgument.
Result<SecureGroupedScanOutput> SecureGroupedScan(
    const std::vector<PartyData>& parties, int64_t group_size,
    const SecureScanOptions& options = {});

// Builds the classic gene-environment interaction design: for each
// column x_m, the pair (x_m, x_m * e) — group_size 2. e must have one
// entry per sample.
Result<Matrix> WithInteractionTerms(const Matrix& x, const Vector& e);

}  // namespace dash

#endif  // DASH_CORE_GROUPED_SCAN_H_
