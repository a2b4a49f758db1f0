// DASH: the secure multi-party association scan (paper §3).
//
// P parties hold horizontal slices (X_p, y_p, C_p) of a pooled study.
// The protocol computes exactly the pooled scan's beta-hat, standard
// errors, t-statistics and p-values while exchanging only:
//
//   1. K x K local R factors (combined by broadcast-stack or binary
//      tree) — independent of N;
//   2. one secure-sum aggregation of the sufficient statistics
//      (1 + K + 2M + K*M values) — O(M) per link, independent of N.
//
// Per-party computation is the same ComputeLocalStatsFlat kernel the
// plaintext scan uses, which is the paper's "plaintext speed" property;
// the traffic counters exported in SecureScanOutput back the O(M)
// communication claim (experiments E2 and E3).

#ifndef DASH_CORE_SECURE_SCAN_H_
#define DASH_CORE_SECURE_SCAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/distributed_qr.h"
#include "net/trace.h"
#include "core/scan_result.h"
#include "data/party_split.h"
#include "mpc/secure_sum.h"
#include "util/status.h"

namespace dash {

// What the protocol reveals about the projected statistics.
enum class ProjectionSecurity {
  // Reveal the aggregated K-vectors Qᵀy and QᵀX (the paper's baseline:
  // "sharing them to sum or applying an SMC sum protocol").
  kRevealProjectedSums = 0,
  // Reveal only the dot products Lemma 2.1 consumes, via Beaver-triple
  // multiplication on the summands (the paper's "for even greater
  // security" variant). Costs O(KM) traffic instead of O(M).
  kBeaverDotProducts = 1,
};

const char* ProjectionSecurityName(ProjectionSecurity security);

struct SecureScanOptions {
  // How the sufficient-statistic summands are aggregated.
  AggregationMode aggregation = AggregationMode::kMasked;

  // How the per-party R factors are combined.
  RCombineMode r_combine = RCombineMode::kBroadcastStack;

  // Whether the projected statistics are revealed as sums or only as
  // the final dot products.
  ProjectionSecurity projection = ProjectionSecurity::kRevealProjectedSums;

  // Fixed-point bits for the Beaver products (results carry 2x this;
  // see mpc/secure_projection.h for the headroom trade-off).
  int projection_frac_bits = 20;

  // Fixed-point precision for the ring/field secure sums.
  int frac_bits = FixedPointCodec::kDefaultFracBits;

  // Threads for the per-party statistics pass.
  int num_threads = 1;

  // Center y, C, and X within each party before scanning. Exactly
  // equivalent to adding one batch-indicator covariate per party (the
  // paper's closing §3 note); supply C WITHOUT an intercept column in
  // this mode. Degrees of freedom account for the P absorbed indicators.
  bool center_per_party = false;

  // Seed for protocol randomness (shares, masks, DH exponents).
  uint64_t seed = 0xda5b;

  // Optional transcript recorder (net/trace.h); when non-null, every
  // protocol message's metadata is appended to it. The simulator hands
  // it to every party. Must outlive Run().
  ProtocolTrace* trace = nullptr;
};

// Cost accounting captured from the transport and timers. A party's
// run counts its own sends; the simulator sums bytes and messages over
// the parties and takes the maximum of max_link_bytes and the timers.
struct SecureScanMetrics {
  int64_t total_bytes = 0;
  int64_t total_messages = 0;
  int64_t max_link_bytes = 0;
  int rounds = 0;
  double local_compute_seconds = 0.0;  // QR, Q_p, statistics kernels
  double protocol_seconds = 0.0;       // R combination + secure sums
  // True when a cached Phase-1 state was reused (party_runner.h
  // Phase1State): the sample-count and R-combination rounds were
  // replaced by a single kPhase1Probe round.
  bool phase1_cache_hit = false;
  // Out-of-core accounting (RunPartySecureScanStreamed only; see
  // core/streaming_stats.h). resumed_from_panel > 0 means this run
  // continued a prior run's checkpoint instead of starting at panel 0.
  bool streamed = false;
  int64_t resumed_from_panel = 0;
  int64_t panels_streamed = 0;
  int64_t checkpoints_written = 0;
};

struct SecureScanOutput {
  ScanResult result;
  SecureScanMetrics metrics;
};

class SecureAssociationScan {
 public:
  explicit SecureAssociationScan(const SecureScanOptions& options = {});

  // Simulates the protocol: P threads, each running RunPartySecureScan
  // (transport/party_runner.h) as one party over an in-process mesh
  // (net/network.h). Returns the revealed scan (identical at every
  // party) plus cost metrics, or the failure that started the run's
  // collapse. To run ONE party over a real network, call
  // RunPartySecureScan directly.
  Result<SecureScanOutput> Run(const std::vector<PartyData>& parties) const;

  const SecureScanOptions& options() const { return options_; }

 private:
  SecureScanOptions options_;
};

// The simulator of every secure workload: runs `party_fn` once per
// party, each on its own thread with that party's endpoint of an
// in-process mesh (net/network.h), and returns the run's traffic —
// bytes and messages summed over the parties, the busiest link, and
// the rounds every party counted — or the failure that started the
// run's collapse. party_fn runs one of the per-party entry points of
// transport/party_runner.h and keeps what its party revealed.
Result<SecureScanMetrics> SimulateParties(
    int num_parties, const std::function<Status(Transport*)>& party_fn);

// Extends FinalizeScan with preprocessing-absorbed parameters: dof =
// N − K − 1 − absorbed_params (absorbed_params = P when per-party
// centering stands in for P batch indicators).
Result<ScanResult> FinalizeScanWithAbsorbedParams(
    const ScanSufficientStats& totals, int64_t absorbed_params);

}  // namespace dash

#endif  // DASH_CORE_SECURE_SCAN_H_
