// Scan output and the Lemma 2.1 finalization step.
//
// FinalizeScan turns aggregated sufficient statistics into the paper's
// closed-form estimates:
//
//   beta_m    = (X_m.y − QᵀX_m.Qᵀy) / (X_m.X_m − QᵀX_m.QᵀX_m)
//   sigma_m²  = ((y.y − Qᵀy.Qᵀy) / (X_m.X_m − QᵀX_m.QᵀX_m) − beta_m²) / D
//   t_m       = beta_m / sigma_m,  p_m = 2 pt(−|t_m|, D),  D = N − K − 1
//
// Columns whose residual variation X_m.X_m − ‖QᵀX_m‖² is numerically
// zero (X_m lies in the span of the permanent covariates, e.g. a
// monomorphic variant against an intercept) produce NaN rows, mirroring
// how GWAS tools flag untestable variants; num_untestable counts them.

#ifndef DASH_CORE_SCAN_RESULT_H_
#define DASH_CORE_SCAN_RESULT_H_

#include <cstdint>
#include <string>

#include "core/suff_stats.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace dash {

struct ScanResult {
  Vector beta;    // effect estimates, length M
  Vector se;      // standard errors
  Vector tstat;   // t-statistics
  Vector pval;    // two-sided p-values
  int64_t dof = 0;
  int64_t num_untestable = 0;

  int64_t num_variants() const { return static_cast<int64_t>(beta.size()); }

  // Index of the smallest p-value (NaNs skipped); -1 if none.
  int64_t TopHit() const;

  // Writes variant,beta,se,tstat,pval rows.
  Status WriteCsv(const std::string& path) const;
};

// Applies Lemma 2.1 to aggregated totals. Fails if the degrees of
// freedom N − K − 1 are not positive.
Result<ScanResult> FinalizeScan(const ScanSufficientStats& totals);

// FNV-1a over the exact IEEE-754 bit patterns of beta/se/tstat/pval:
// equal checksums mean bit-identical scans. This is what the commit
// round broadcasts (MessageTag::kCommit) so parties can verify they
// revealed the same result, and what dash_party prints.
uint64_t ScanResultChecksum(const ScanResult& result);

// The projected form of the sufficient statistics: the K-vectors Qᵀy
// and QᵀX reduced to the dot products Lemma 2.1 consumes. Lemma 2.1
// needs nothing more.
struct ProjectedSufficientStats {
  int64_t num_samples = 0;
  int64_t num_covariates = 0;  // K (public shape information)
  double yy = 0.0;             // y.y (plain-summed)
  Vector xy;                   // X.y, length M
  Vector xx;                   // X.X, length M
  double qty_qty = 0.0;        // Qᵀy.Qᵀy
  Vector qtx_qty;              // QᵀX_m.Qᵀy, length M
  Vector qtx_qtx;              // QᵀX_m.QᵀX_m, length M
};

// Lemma 2.1 on the projected statistics.
Result<ScanResult> FinalizeScanProjected(const ProjectedSufficientStats& s);

}  // namespace dash

#endif  // DASH_CORE_SCAN_RESULT_H_
