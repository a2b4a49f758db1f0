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
// Per-party computation is the same ComputeLocalStats kernel the
// plaintext scan uses, which is the paper's "plaintext speed" property;
// the traffic counters exported in SecureScanOutput back the O(M)
// communication claim (experiments E2 and E3).

#ifndef DASH_CORE_SECURE_SCAN_H_
#define DASH_CORE_SECURE_SCAN_H_

#include <cstdint>
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

  // > 0 enables the block-pipelined aggregation (reveal-sums only): the
  // variants are partitioned into blocks of this many columns and the
  // single statistics secure-sum is replaced by a header round
  // [yy, qty] plus one round per block [xy, xx, qtx columns], letting a
  // party compute block b+1 while block b's aggregate is in flight on
  // the transport (core/scan_pipeline.h). The revealed result is
  // bit-identical to the one-shot aggregation in every mode; rounds and
  // message counts grow with the block count. 0 = one-shot (default).
  int64_t pipeline_block_variants = 0;

  // Center y, C, and X within each party before scanning. Exactly
  // equivalent to adding one batch-indicator covariate per party (the
  // paper's closing §3 note); supply C WITHOUT an intercept column in
  // this mode. Degrees of freedom account for the P absorbed indicators.
  bool center_per_party = false;

  // Run a final commit round: every party broadcasts the FNV-1a
  // checksum of its revealed result (MessageTag::kCommit) and
  // cross-checks its peers'. A mismatch — the signature of an
  // undetected fault such as a same-tag reorder — fails the scan with
  // DataLoss("result divergence ...") instead of letting parties walk
  // away with silently different numbers. One extra round of
  // 8-byte payloads; both backends run it so traffic stays comparable.
  bool commit_round = true;

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

// Extends FinalizeScan with preprocessing-absorbed parameters: dof =
// N − K − 1 − absorbed_params (absorbed_params = P when per-party
// centering stands in for P batch indicators).
Result<ScanResult> FinalizeScanWithAbsorbedParams(
    const ScanSufficientStats& totals, int64_t absorbed_params);

}  // namespace dash

#endif  // DASH_CORE_SECURE_SCAN_H_
