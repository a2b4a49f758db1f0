#include "core/secure_scan.h"

#include <algorithm>
#include <utility>

#include "net/network.h"
#include "transport/party_runner.h"

namespace dash {

SecureAssociationScan::SecureAssociationScan(const SecureScanOptions& options)
    : options_(options) {}

Result<ScanResult> FinalizeScanWithAbsorbedParams(
    const ScanSufficientStats& totals, int64_t absorbed_params) {
  // dof = N − K − 1 − absorbed; fold the absorbed parameters into the
  // sample count seen by the standard finalization.
  ScanSufficientStats adjusted = totals;
  adjusted.num_samples -= absorbed_params;
  return FinalizeScan(adjusted);
}

Result<SecureScanMetrics> SimulateParties(
    int num_parties, const std::function<Status(Transport*)>& party_fn) {
  MeshTraffic traffic;
  DASH_RETURN_IF_ERROR(RunPartiesInProcess(num_parties, party_fn, &traffic));
  SecureScanMetrics metrics;
  metrics.total_bytes = traffic.total_bytes;
  metrics.total_messages = traffic.total_messages;
  metrics.max_link_bytes = traffic.max_link_bytes;
  metrics.rounds = traffic.rounds;
  return metrics;
}

Result<SecureScanOutput> SecureAssociationScan::Run(
    const std::vector<PartyData>& parties) const {
  DASH_RETURN_IF_ERROR(ValidateParties(parties));
  std::vector<SecureScanOutput> outs(parties.size());
  DASH_ASSIGN_OR_RETURN(
      SecureScanMetrics metrics,
      SimulateParties(static_cast<int>(parties.size()),
                      [&](Transport* transport) -> Status {
                        const size_t p =
                            static_cast<size_t>(transport->local_party());
                        DASH_ASSIGN_OR_RETURN(
                            outs[p], RunPartySecureScan(transport, parties[p],
                                                        options_));
                        return Status::Ok();
                      }));

  // Every party revealed the same result; the timers are the slowest
  // party's.
  for (const SecureScanOutput& party : outs) {
    metrics.local_compute_seconds = std::max(
        metrics.local_compute_seconds, party.metrics.local_compute_seconds);
    metrics.protocol_seconds =
        std::max(metrics.protocol_seconds, party.metrics.protocol_seconds);
  }
  return SecureScanOutput{std::move(outs[0].result), metrics,
                          outs[0].result_checksum};
}

}  // namespace dash
