// Cᵀ-compressed study: post-hoc covariate and phenotype selection
// (paper §5: "one can alternatively compress using Cᵀ rather than Qᵀ to
// preserve the ability to select phenotypes and covariates
// post-compression").
//
// Compressing with Qᵀ bakes the covariate set into the statistics (Q is
// an orthonormal basis of a FIXED C). Compressing with Cᵀ instead stores
//
//   YᵀY (T x T)   CᵀY (K x T)   CᵀC (K x K)
//   XᵀY (M x T)   diag(XᵀX) (M)  CᵀX (K x M)
//
// — all additive across parties and batches — from which the scan for
// ANY covariate subset S and ANY phenotype t is recovered exactly:
// with CᵀC[S,S] = L Lᵀ, the Qᵀ-statistics are L⁻¹·(Cᵀ·)[S]. One secure
// aggregation therefore supports an entire downstream analysis session
// (sensitivity analyses, covariate ablations, per-phenotype scans)
// with no further communication.

#ifndef DASH_CORE_COMPRESSED_STUDY_H_
#define DASH_CORE_COMPRESSED_STUDY_H_

#include <cstdint>
#include <vector>

#include "core/multi_phenotype_scan.h"
#include "core/scan_result.h"
#include "core/secure_scan.h"
#include "data/party_split.h"
#include "util/status.h"

namespace dash {

class CompressedStudy {
 public:
  // Builds the compressed statistics from pooled data (single site).
  static Result<CompressedStudy> Compress(const Matrix& x, const Matrix& ys,
                                          const Matrix& c);

  // Secure multi-party compression: one aggregation round over the
  // configured secure-sum mode; the resulting object is public (it is
  // exactly what the protocol reveals). Because it reveals CᵀX itself,
  // options.projection kBeaverDotProducts and options.center_per_party
  // fail InvalidArgument.
  struct SecureOutput;
  static Result<SecureOutput> SecureCompress(
      const std::vector<MultiPhenotypePartyData>& parties,
      const SecureScanOptions& options = {});

  // Securely aggregates per-party compressed accumulators (all shapes
  // must match) into one public study, simulated as P threads of
  // RunPartySummandProtocol (transport/party_runner.h) with no Q: each
  // party passes an N_p x 0 covariate block, so the sample-count round
  // alone precedes the sum and yields the pooled N. This is the
  // communication step of the online setting (core/secure_online_scan.h):
  // parties keep merging local batches into their accumulator and
  // re-aggregate whenever a fresh result is wanted. Options as for
  // SecureCompress.
  static Result<SecureOutput> SecureAggregate(
      const std::vector<CompressedStudy>& locals,
      const SecureScanOptions& options = {});

  int64_t num_samples() const { return n_; }
  int64_t num_variants() const { return m_; }
  int64_t num_covariates() const { return k_; }
  int64_t num_phenotypes() const { return t_; }

  // Scan phenotype `phenotype` adjusting for the covariate columns in
  // `covariate_subset` (indices into the original C; empty = none).
  // Fails on out-of-range indices, duplicate indices, or a singular
  // selected Gram block.
  Result<ScanResult> Scan(int64_t phenotype,
                          const std::vector<int64_t>& covariate_subset) const;

  // Convenience: all covariates.
  Result<ScanResult> ScanAllCovariates(int64_t phenotype = 0) const;

  // Merges another compressed block (more samples) into this one;
  // shapes must match. This is what makes the online setting work.
  Status Merge(const CompressedStudy& other);

 private:
  CompressedStudy() = default;

  static CompressedStudy FromBlock(const Matrix& x, const Matrix& ys,
                                   const Matrix& c);
  Vector Flatten() const;
  static Result<CompressedStudy> Unflatten(const Vector& flat, int64_t n,
                                           int64_t m, int64_t k, int64_t t);
  int64_t FlatLength() const;

  int64_t n_ = 0;
  int64_t m_ = 0;
  int64_t k_ = 0;
  int64_t t_ = 0;
  Matrix yty_;  // T x T
  Matrix cty_;  // K x T
  Matrix ctc_;  // K x K
  Matrix xty_;  // M x T
  Vector xx_;   // M
  Matrix ctx_;  // K x M
};

struct CompressedStudy::SecureOutput {
  CompressedStudy study;
  SecureScanMetrics metrics;
};

}  // namespace dash

#endif  // DASH_CORE_COMPRESSED_STUDY_H_
