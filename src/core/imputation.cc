#include "core/imputation.h"

#include "data/missing_data.h"
#include "transport/party_runner.h"

namespace dash {

Result<SecureImputationOutput> SecureMeanImpute(
    std::vector<PartyData>* parties, const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateParties(*parties));
  const int num_parties = static_cast<int>(parties->size());
  const int64_t m = (*parties)[0].x.cols();

  int64_t total_missing = 0;
  for (const auto& p : *parties) total_missing += CountMissing(p.x);

  // Projection and centering configure the scan that follows; the
  // imputation sums plain column moments either way.
  SecureScanOptions moment_options = options;
  moment_options.projection = ProjectionSecurity::kRevealProjectedSums;
  moment_options.center_per_party = false;
  std::vector<PartySummandOutput> sums(static_cast<size_t>(num_parties));
  SecureImputationOutput out;
  DASH_ASSIGN_OR_RETURN(
      out.metrics,
      SimulateParties(
          num_parties, [&](Transport* transport) -> Status {
            const size_t self = static_cast<size_t>(transport->local_party());
            const Matrix& x = (*parties)[self].x;
            // Each party contributes [column sums | non-missing counts];
            // with no Q, an N_p x 0 covariate block runs only the
            // sample-count round before the sum.
            DASH_ASSIGN_OR_RETURN(
                sums[self],
                RunPartySummandProtocol(
                    transport, Matrix(x.rows(), 0), moment_options, 0x1255,
                    [&x](const Matrix&) {
                      ColumnMoments moments = ColumnSumsAndCounts(x);
                      moments.sums.insert(moments.sums.end(),
                                          moments.counts.begin(),
                                          moments.counts.end());
                      return moments.sums;
                    }));
            return Status::Ok();
          }));
  const Vector& totals = sums[0].totals;
  const int64_t total_samples = sums[0].pooled_n;

  out.total_missing = total_missing;
  out.means.assign(static_cast<size_t>(m), 0.0);
  out.call_rates.assign(static_cast<size_t>(m), 0.0);
  for (int64_t j = 0; j < m; ++j) {
    const double sum = totals[static_cast<size_t>(j)];
    const double count = totals[static_cast<size_t>(m + j)];
    // Secure-sum quantization can leave counts a hair off an integer.
    const double observed = (count > 0.5) ? count : 0.0;
    out.means[static_cast<size_t>(j)] =
        (observed > 0.0) ? sum / observed : 0.0;
    out.call_rates[static_cast<size_t>(j)] =
        (total_samples > 0)
            ? observed / static_cast<double>(total_samples)
            : 0.0;
  }

  for (auto& p : *parties) ImputeWithMeans(out.means, &p.x);
  return out;
}

}  // namespace dash
