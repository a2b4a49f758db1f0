// One party's end of the secure scan and of every secure workload — the
// protocol's only implementation. Each entry point runs the same
// Phases 0–1 (sample counts, R-combine, Q_p), the same Phase-2 secure
// sum and the same abort path; entry points differ only in the summand
// they aggregate and how they finalize it.
//
// An entry point performs the sends party transport->local_party()
// makes and consumes the messages addressed to it. A deployment runs it
// once per OS process over a TcpTransport (or a SessionChannel in the
// daemon); the simulator (SimulateParties, core/secure_scan.h) runs it
// on P threads over the endpoints of an in-process mesh
// (net/network.h). So
//
//   * every party, on every backend, reveals the same ScanResult bit for
//     bit (ring/field sums are order-independent; the public mode and
//     all plaintext reductions fix party-index summation order; doubles
//     travel as exact IEEE-754 bit patterns), and
//   * the union of the parties' per-link traffic is the same multiset of
//     (round, from, to, tag, bytes) on every backend.
//
// Protocol randomness is replicated from the shared options.seed: party
// i draws its share/mask/DH randomness from the i-th output of the
// SplitMix64 seed chain (mpc/secure_sum.h), so two deployments with
// equal seeds exchange identical ciphertexts.
//
// The runner builds into dash_core and depends on no transport backend.

#ifndef DASH_TRANSPORT_PARTY_RUNNER_H_
#define DASH_TRANSPORT_PARTY_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "core/secure_scan.h"
#include "data/panel_stream.h"
#include "data/party_split.h"
#include "linalg/matrix.h"
#include "mpc/secrecy.h"
#include "transport/transport.h"

namespace dash {

// One party's reusable Phase-1 state: everything the scan derives from
// the PERMANENT covariates alone, independent of which variants are
// tested. Repeat scans on the same cohort (same rows, same C, same
// preprocessing) skip the sample-count exchange, the QR combination,
// and the local Q_p rebuild — the per-variant Phase-2 aggregation is
// all that remains on the wire.
//
// Secrecy: Q_p's rows are derived from the party's private data, so the
// cached copy stays Secret<Matrix>; RunPartySecureScan reads it back
// through an audited DASH_DECLASSIFY (round key `phase1-cache` in
// tools/secrecy_allowlist.txt) that never moves the bytes off-process.
// R⁻¹ and the pooled sample count are public by protocol (phase0 /
// phase1 reveals), so they are stored plain.
//
// Invalidation is the caller's job: any change to the cohort's rows or
// covariates MUST either be reflected in the data (the fingerprint then
// misses by itself) or be signaled by dropping the state (valid=false /
// destroying it). The fingerprint is local-only — it is never sent —
// and the kPhase1Probe agreement round only reveals one have/have-not
// bit per party.
struct Phase1State {
  bool valid = false;
  // FNV-1a over this party's (preprocessed) covariate slab, sample
  // count, and the Phase-1 options; see Phase1Fingerprint in
  // party_runner.cc.
  uint64_t local_fingerprint = 0;
  int64_t total_samples = 0;   // pooled N (public, phase0 reveal)
  Matrix r_inverse;            // pooled R⁻¹ (public, phase1 reveal)
  Secret<Matrix> q_p;          // this party's Q_p rows (private)
};

// Runs the scan as party transport->local_party() holding rows `party`.
// Blocks until the protocol completes; every party returns the identical
// revealed result. Metrics cover this party's sends only.
//
// `phase1` (null = uncached) is read AND written: when every party
// arrives with matching valid state — agreed in one extra kPhase1Probe
// round of a single public have-bit each — Phase 1 is skipped entirely
// and metrics.phase1_cache_hit is set; otherwise the full protocol runs
// and `phase1` is refilled. All-or-nothing: one stale party forces the
// full Phase 1 at every party, so the transcript stays identical at all
// of them.
Result<SecureScanOutput> RunPartySecureScan(Transport* transport,
                                            const PartyData& party,
                                            const SecureScanOptions& options,
                                            Phase1State* phase1 = nullptr);

// Out-of-core scan configuration for RunPartySecureScanStreamed: this
// party's genotype block streams from `source` one panel at a time
// (core/streaming_stats.h) instead of living in PartyData.x, and the
// partial accumulator is durably checkpointed so a killed party
// resumes from the last snapshot. The revealed result is bit-identical
// to the in-memory scan on the same data, resumed or not.
struct StreamingPartyScan {
  PanelSource* source = nullptr;  // required; must outlive the call

  // Empty disables checkpoint/resume.
  std::string checkpoint_path;
  int64_t checkpoint_every_panels = 8;

  // Test hook (pacing for the kill smokes); see StreamingStatsOptions.
  int64_t panel_delay_ms = 0;
};

// Streamed variant of RunPartySecureScan: y and the permanent
// covariates C stay RAM-resident (they are all Phases 0–1 need), X
// streams from stream.source into the Phase-2 summand arena. The arena
// is bit-identical to the in-memory one, so every aggregation and
// projection mode applies unchanged. Incompatible with
// center_per_party (X is immutable on disk — pre-center before
// packing). On success the checkpoint file, if any, is removed; on
// failure it is left behind so the next run resumes.
Result<SecureScanOutput> RunPartySecureScanStreamed(
    Transport* transport, const Vector& y, const Matrix& c,
    const StreamingPartyScan& stream, const SecureScanOptions& options,
    Phase1State* phase1 = nullptr);

// A workload's Phase-2 summand, computed from this party's rows of the
// pooled Q (N_p x K; N_p x 0 when the workload passes no covariates).
using PartySummandFn = std::function<Vector(const Matrix& q_p)>;

struct PartySummandOutput {
  Vector totals;          // the summands' element-wise sum over parties
  int64_t pooled_n = 0;   // pooled N, the Phase-0 reveal
};

// The protocol for workloads that aggregate one summand (paper §5: the
// grouped, multi-phenotype, Cᵀ-compressed and imputation workloads):
// Phases 0–1 over the covariate block `c` (N_p x K), then one secure
// sum of summand(Q_p) with the scan's aggregation mode and the seed
// options.seed ^ seed_salt. A workload with no Q passes an N_p x 0
// block and so runs only the sample-count round before the sum. Every
// party returns the same totals; the caller finalizes them locally.
//
// The totals are the plain sums, so options.projection must be
// kRevealProjectedSums, and options.center_per_party must be false (the
// summand is the workload's own); either one fails InvalidArgument.
Result<PartySummandOutput> RunPartySummandProtocol(
    Transport* transport, const Matrix& c, const SecureScanOptions& options,
    uint64_t seed_salt, const PartySummandFn& summand);

}  // namespace dash

#endif  // DASH_TRANSPORT_PARTY_RUNNER_H_
