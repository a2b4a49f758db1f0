#include "core/imputation.h"

#include "data/missing_data.h"
#include "mpc/secure_sum.h"
#include "net/network.h"

namespace dash {

Result<SecureImputationOutput> SecureMeanImpute(
    std::vector<PartyData>* parties, const SecureScanOptions& options) {
  DASH_RETURN_IF_ERROR(ValidateParties(*parties));
  const int num_parties = static_cast<int>(parties->size());
  const int64_t m = (*parties)[0].x.cols();

  int64_t total_missing = 0;
  for (const auto& p : *parties) total_missing += CountMissing(p.x);

  SecureSumOptions sum_options;
  sum_options.mode = options.aggregation;
  sum_options.frac_bits = options.frac_bits;
  sum_options.seed = options.seed ^ 0x1255;
  std::vector<Vector> party_totals(static_cast<size_t>(num_parties));
  MeshTraffic traffic;
  DASH_RETURN_IF_ERROR(RunPartiesInProcess(
      num_parties,
      [&](Transport* transport) -> Status {
        // Each party contributes [column sums | non-missing counts].
        const size_t self = static_cast<size_t>(transport->local_party());
        const ColumnMoments moments = ColumnSumsAndCounts((*parties)[self].x);
        Vector flat;
        flat.reserve(static_cast<size_t>(2 * m));
        flat.insert(flat.end(), moments.sums.begin(), moments.sums.end());
        flat.insert(flat.end(), moments.counts.begin(), moments.counts.end());
        PartySecureVectorSum secure_sum(transport, sum_options);
        DASH_ASSIGN_OR_RETURN(party_totals[self],
                              secure_sum.Run(Secret<Vector>(std::move(flat))));
        return Status::Ok();
      },
      &traffic));
  const Vector& totals = party_totals[0];

  SecureImputationOutput out;
  out.total_missing = total_missing;
  out.means.assign(static_cast<size_t>(m), 0.0);
  out.call_rates.assign(static_cast<size_t>(m), 0.0);
  int64_t total_samples = 0;
  for (const auto& p : *parties) total_samples += p.num_samples();
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

  out.metrics.total_bytes = traffic.total_bytes;
  out.metrics.total_messages = traffic.total_messages;
  out.metrics.max_link_bytes = traffic.max_link_bytes;
  out.metrics.rounds = traffic.rounds;
  return out;
}

}  // namespace dash
