#include "transport/party_runner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/distributed_qr.h"
#include "core/scan_checkpoint.h"
#include "core/streaming_stats.h"
#include "core/suff_stats.h"
#include "linalg/qr.h"
#include "mpc/secrecy.h"
#include "mpc/secure_projection.h"
#include "net/abort.h"
#include "net/round_annotations.h"
#include "net/serialization.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace dash {
namespace {

// Local-only digest of everything Phase 1 depends on: the party's
// (preprocessed) covariate slab, its sample count, and the Phase-1
// options that change the pooled R. FNV-1a over the raw little-endian
// double bits — bit-exact equality is the right notion, because the
// cached Q_p must reproduce the original transcript bit for bit. The
// digest never leaves the process; the kPhase1Probe round only carries
// a have/have-not bit.
uint64_t Phase1Fingerprint(const Matrix& c, int64_t absorbed_params,
                           const SecureScanOptions& options) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  const auto mix64 = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  mix64(static_cast<uint64_t>(c.rows()));
  mix64(static_cast<uint64_t>(c.cols()));
  mix64(static_cast<uint64_t>(absorbed_params));
  mix64(static_cast<uint64_t>(options.r_combine));
  for (int64_t i = 0; i < c.rows(); ++i) {
    for (int64_t j = 0; j < c.cols(); ++j) {
      uint64_t bits = 0;
      const double v = c(i, j);
      static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
      __builtin_memcpy(&bits, &v, sizeof(bits));
      mix64(bits);
    }
  }
  return h;
}

// What Phases 0–1 leave a party with.
struct Phase01Output {
  int64_t total_samples = 0;  // pooled N (public, phase0 reveal)
  Matrix q_p;                 // this party's rows of the pooled Q (private)
};

// Phases 0–1 of every entry point, over this party's (preprocessed)
// covariate block `c`: the optional Phase-1 cache probe, the public
// sample counts, the R-combine and Q_p = C_p R⁻¹. With K = 0 only the
// sample-count round runs. `phase1` (null = uncached) is read and
// refilled as RunPartySecureScan documents. Adds this party's timers
// and cache hit to `metrics`.
Result<Phase01Output> RunPhases01(Transport* transport, const Matrix& c,
                                  int64_t absorbed_params,
                                  const SecureScanOptions& options,
                                  Phase1State* phase1,
                                  SecureScanMetrics* metrics) {
  const int local = transport->local_party();
  const int num_parties = transport->num_parties();
  const int64_t k = c.cols();
  if (options.trace != nullptr) transport->AttachTrace(options.trace);
  Stopwatch timer;
  Phase01Output out;

  // Phase-1 cache probe (one optional round): each party broadcasts ONE
  // public bit — "I hold valid Phase-1 state for this cohort" — and the
  // cache is used iff every party says yes. All-or-nothing keeps the
  // transcript identical at every party: a single stale peer forces the
  // full Phase 1 everywhere. The fingerprint itself never leaves the
  // process.
  uint64_t fingerprint = 0;
  if (phase1 != nullptr) {
    timer.Reset();
    fingerprint = Phase1Fingerprint(c, absorbed_params, options);
    metrics->local_compute_seconds += timer.ElapsedSeconds();
    bool& hit = metrics->phase1_cache_hit;
    hit = phase1->valid && phase1->local_fingerprint == fingerprint;
    if (num_parties > 1) {
      timer.Reset();
      transport->BeginRound();
      ByteWriter w;
      w.PutU32(hit ? 1u : 0u);
      DASH_ROUND(phase1_probe, kPhase1Probe);
      DASH_RETURN_IF_ERROR(
          transport->Broadcast(local, MessageTag::kPhase1Probe, w.Take()));
      for (int q = 0; q < num_parties; ++q) {
        if (q == local) continue;
        DASH_ROUND(phase1_probe, kPhase1Probe);
        DASH_ASSIGN_OR_RETURN(
            Message msg,
            transport->Receive(local, q, MessageTag::kPhase1Probe));
        ByteReader r(msg.payload);
        DASH_ASSIGN_OR_RETURN(uint32_t peer_have, r.GetU32());
        hit = hit && (peer_have == 1);
      }
      metrics->protocol_seconds += timer.ElapsedSeconds();
    }
  }
  if (metrics->phase1_cache_hit) {
    // Stages 0–3 replaced by the cache: N is a public protocol reveal,
    // and Q_p is this party's own private material coming back from
    // its own cache — the declassified bytes feed the same local
    // kernels the fresh path feeds and never reach the wire.
    out.total_samples = phase1->total_samples;
    out.q_p = DASH_DECLASSIFY(
        phase1->q_p,
        "phase1-cache: this party's own cached Q_p rows, reused in-process");
    return out;
  }

  // Stage 0 (network): exchange the public per-party sample counts.
  timer.Reset();
  out.total_samples = c.rows();
  if (num_parties > 1) {
    transport->BeginRound();
    ByteWriter w;
    w.PutI64(c.rows());
    DASH_ROUND(phase0_samplecount, kSampleCount);
    DASH_RETURN_IF_ERROR(
        transport->Broadcast(local, MessageTag::kSampleCount, w.Take()));
    for (int q = 0; q < num_parties; ++q) {
      if (q == local) continue;
      DASH_ROUND(phase0_samplecount, kSampleCount);
      DASH_ASSIGN_OR_RETURN(
          Message msg, transport->Receive(local, q, MessageTag::kSampleCount));
      ByteReader r(msg.payload);
      DASH_ASSIGN_OR_RETURN(int64_t n_q, r.GetI64());
      out.total_samples += n_q;
    }
  }
  metrics->protocol_seconds += timer.ElapsedSeconds();

  // Stage 1 (local): our K x K R factor. Stage 2 (network): combine R
  // factors; we learn R⁻¹. Stage 3 (local): our Q_p rows.
  Matrix r_inverse(0, 0);
  out.q_p = Matrix(c.rows(), 0);
  if (k > 0) {
    timer.Reset();
    DASH_ASSIGN_OR_RETURN(const Matrix local_r, QrRFactor(c));
    metrics->local_compute_seconds += timer.ElapsedSeconds();

    timer.Reset();
    DASH_ASSIGN_OR_RETURN(
        DistributedQrResult qr,
        CombineRFactorsOverNetwork(transport, local_r, options.r_combine));
    r_inverse = std::move(qr.r_inverse);
    metrics->protocol_seconds += timer.ElapsedSeconds();

    timer.Reset();
    out.q_p = MatMul(c, r_inverse);
    metrics->local_compute_seconds += timer.ElapsedSeconds();
  }

  if (phase1 != nullptr) {
    phase1->valid = true;
    phase1->local_fingerprint = fingerprint;
    phase1->total_samples = out.total_samples;
    phase1->r_inverse = std::move(r_inverse);
    phase1->q_p = Secret<Matrix>(out.q_p);
  }
  return out;
}

// The Phase-2 secure-sum configuration of every entry point. A
// workload's `seed_salt` gives its masks their own stream under the one
// protocol seed. Concurrent sessions over one mesh must never share
// mask keys: the session id domain-separates the seed chain (see
// PartySecureVectorSum and PROTOCOL.md's session-layer note). The
// sessionless stream keeps domain 0 — the exact historical chain.
SecureSumOptions SecureSumOptionsFor(const Transport& transport,
                                     const SecureScanOptions& options,
                                     uint64_t seed_salt) {
  SecureSumOptions sum_options;
  sum_options.mode = options.aggregation;
  sum_options.frac_bits = options.frac_bits;
  sum_options.seed = options.seed ^ seed_salt;
  sum_options.mask_domain = transport.session_id();
  return sum_options;
}

// The scan proper; RunPartySecureScan adds the abort path. `stream`
// non-null switches Phase 2 to the out-of-core path (X from a
// PanelSource, checkpoint/resume).
Result<SecureScanOutput> RunPartyScanProtocol(
    Transport* transport, const PartyData& input_party,
    const SecureScanOptions& options, Phase1State* phase1,
    const StreamingPartyScan* stream) {
  DASH_CHECK(transport != nullptr);
  const int local = transport->local_party();
  const int num_parties = transport->num_parties();
  if (stream != nullptr) {
    if (stream->source == nullptr) {
      return InvalidArgumentError("streamed scan: no PanelSource supplied");
    }
    if (options.center_per_party) {
      return InvalidArgumentError(
          "streamed scan: center_per_party mutates X, which is immutable "
          "on disk — center before packing (dash_pack)");
    }
    if (stream->source->num_samples() != input_party.num_samples()) {
      return InvalidArgumentError(
          "streamed scan: study has " +
          std::to_string(stream->source->num_samples()) +
          " samples but y/C carry " +
          std::to_string(input_party.num_samples()));
    }
  }
  DASH_RETURN_IF_ERROR(ValidateParties({input_party}));

  // Per-party preprocessing: centering is a within-party operation, so
  // the single-element call is exactly the pooled preprocessing of this
  // slice.
  const PartyData* party = &input_party;
  std::vector<PartyData> centered;
  int64_t absorbed_params = 0;
  if (options.center_per_party) {
    for (int64_t j = 0; j < input_party.c.cols(); ++j) {
      bool constant = input_party.c.rows() > 0;
      for (int64_t i = 1; i < input_party.c.rows() && constant; ++i) {
        constant = (input_party.c(i, j) == input_party.c(0, j));
      }
      if (constant && input_party.c.rows() > 0) {
        return InvalidArgumentError(
            "center_per_party absorbs the intercept; remove constant "
            "column " + std::to_string(j) + " from C");
      }
    }
    centered.push_back(input_party);
    CenterPerParty(&centered);
    party = &centered[0];
    absorbed_params = num_parties;
  }

  const int64_t m =
      stream != nullptr ? stream->source->num_variants() : party->x.cols();
  const int64_t k = party->c.cols();
  SecureScanOutput out;
  SecureScanMetrics& metrics = out.metrics;
  DASH_ASSIGN_OR_RETURN(
      Phase01Output phase01,
      RunPhases01(transport, party->c, absorbed_params, options, phase1,
                  &metrics));
  const int64_t total_samples = phase01.total_samples;
  const Matrix& q_p = phase01.q_p;

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  Stopwatch timer;
  PartySecureVectorSum secure_sum(
      transport, SecureSumOptionsFor(*transport, options, /*seed_salt=*/0));

  // Stage 3 (local): our summand as one wire-order arena
  // (StatsWireLayout), computed in RAM or streamed from the PanelSource
  // panel by panel with checkpoints — bit-identical either way
  // (core/streaming_stats.h).
  timer.Reset();
  Vector flat;
  if (stream != nullptr) {
    StreamingStatsOptions stream_opts;
    stream_opts.checkpoint_path = stream->checkpoint_path;
    stream_opts.checkpoint_every_panels = stream->checkpoint_every_panels;
    stream_opts.panel_delay_ms = stream->panel_delay_ms;
    stream_opts.pool = pool.get();
    DASH_ASSIGN_OR_RETURN(
        StreamingStatsResult streamed,
        ComputeLocalStatsStreamed(stream->source, party->y, q_p, stream_opts));
    flat = std::move(streamed.flat);
    metrics.streamed = true;
    metrics.resumed_from_panel = streamed.resumed_from_panel;
    metrics.panels_streamed = streamed.panels_streamed;
    metrics.checkpoints_written = streamed.checkpoints_written;
    if (metrics.resumed_from_panel > 0) {
      DASH_LOG(Info) << "party " << local << " resumed from checkpoint at "
                     << "panel " << metrics.resumed_from_panel << "/"
                     << stream->source->num_panels();
    }
  } else {
    flat = ComputeLocalStatsFlat(party->x, party->y, q_p, pool.get());
  }
  metrics.local_compute_seconds += timer.ElapsedSeconds();

  // Stage 4 (network): aggregate the arena. Stage 5 (local, public):
  // Lemma 2.1 on the revealed totals.
  const StatsWireLayout layout{m, k};
  ScanResult result;
  if (options.projection == ProjectionSecurity::kBeaverDotProducts) {
    // The orthogonal statistics (y.y, X.y, X.X) are summed as usual, but
    // the projected K-vectors never leave the party — only the dot
    // products Lemma 2.1 consumes are opened (mpc/secure_projection.h).
    Vector plain;
    plain.reserve(static_cast<size_t>(1 + 2 * m));
    plain.push_back(flat[static_cast<size_t>(layout.yy_offset())]);
    plain.insert(plain.end(), flat.begin() + layout.xy_offset(),
                 flat.begin() + layout.qtx_offset());
    Vector qty(flat.begin() + layout.qty_offset(),
               flat.begin() + layout.xy_offset());
    Matrix qtx(k, m);
    std::copy(flat.begin() + layout.qtx_offset(), flat.end(), qtx.data());

    timer.Reset();
    DASH_ASSIGN_OR_RETURN(Vector plain_totals,
                          secure_sum.Run(Secret<Vector>(std::move(plain))));
    SecureProjectionOptions proj_options;
    proj_options.frac_bits = options.projection_frac_bits;
    proj_options.seed = options.seed ^ 0xbea7e5;
    DASH_ASSIGN_OR_RETURN(
        ProjectedStats projected,
        SecureProjectedAggregation(transport, proj_options)
            .Run(Secret<Vector>(std::move(qty)),
                 Secret<Matrix>(std::move(qtx))));
    metrics.protocol_seconds += timer.ElapsedSeconds();

    timer.Reset();
    ProjectedSufficientStats totals;
    totals.num_samples = total_samples - absorbed_params;
    totals.num_covariates = k;
    totals.yy = plain_totals[0];
    totals.xy.assign(plain_totals.begin() + 1, plain_totals.begin() + 1 + m);
    totals.xx.assign(plain_totals.begin() + 1 + m,
                     plain_totals.begin() + 1 + 2 * m);
    totals.qty_qty = projected.qty_qty;
    totals.qtx_qty = std::move(projected.qtx_qty);
    totals.qtx_qtx = std::move(projected.qtx_qtx);
    DASH_ASSIGN_OR_RETURN(result, FinalizeScanProjected(totals));
    metrics.local_compute_seconds += timer.ElapsedSeconds();
  } else {
    // One secure-sum aggregation of everything.
    timer.Reset();
    DASH_ASSIGN_OR_RETURN(const Vector flat_totals,
                          secure_sum.Run(Secret<Vector>(std::move(flat))));
    metrics.protocol_seconds += timer.ElapsedSeconds();

    timer.Reset();
    DASH_ASSIGN_OR_RETURN(ScanSufficientStats totals,
                          UnflattenStats(flat_totals, m, k));
    totals.num_samples = total_samples;
    DASH_ASSIGN_OR_RETURN(
        result, FinalizeScanWithAbsorbedParams(totals, absorbed_params));
    metrics.local_compute_seconds += timer.ElapsedSeconds();
  }

  // Commit round: broadcast the checksum of the result we are about to
  // reveal and require every peer's to match. This is the last line of
  // defense against faults no other layer can see (e.g. a same-tag
  // same-length reorder): instead of parties walking away with
  // different numbers, the scan fails with DataLoss at every party.
  if (num_parties > 1) {
    timer.Reset();
    transport->BeginRound();
    const uint64_t checksum = ScanResultChecksum(result);
    ByteWriter w;
    w.PutU64(checksum);
    DASH_ROUND(phase4_commit, kCommit);
    DASH_RETURN_IF_ERROR(
        transport->Broadcast(local, MessageTag::kCommit, w.Take()));
    for (int q = 0; q < num_parties; ++q) {
      if (q == local) continue;
      DASH_ROUND(phase4_commit, kCommit);
      DASH_ASSIGN_OR_RETURN(Message msg,
                            transport->Receive(local, q, MessageTag::kCommit));
      ByteReader r(msg.payload);
      DASH_ASSIGN_OR_RETURN(uint64_t peer_sum, r.GetU64());
      if (peer_sum != checksum) {
        return DataLossError("result divergence: party " + std::to_string(q) +
                             " committed checksum " +
                             std::to_string(peer_sum) + ", party " +
                             std::to_string(local) + " computed " +
                             std::to_string(checksum));
      }
    }
    metrics.protocol_seconds += timer.ElapsedSeconds();
  }

  // The revealed, commit-verified result is in hand: the checkpoint
  // has served its purpose. A crash before this point keeps the
  // snapshot for the next run.
  if (stream != nullptr && !stream->checkpoint_path.empty()) {
    RemoveScanCheckpoint(stream->checkpoint_path);
  }

  out.result = std::move(result);
  metrics.total_bytes = transport->metrics().total_bytes();
  metrics.total_messages = transport->metrics().total_messages();
  metrics.max_link_bytes = transport->metrics().MaxLinkBytes();
  metrics.rounds = transport->metrics().rounds();
  DASH_LOG(Info) << "party " << local << "/" << num_parties
                 << " secure scan: N=" << total_samples << " M=" << m
                 << " K=" << k << " mode="
                 << AggregationModeName(options.aggregation)
                 << " sent_bytes=" << metrics.total_bytes;
  return out;
}

// The summand protocol proper; RunPartySummandProtocol adds the abort
// path.
Result<PartySummandOutput> RunSummandProtocol(
    Transport* transport, const Matrix& c, const SecureScanOptions& options,
    uint64_t seed_salt, const PartySummandFn& summand) {
  DASH_CHECK(transport != nullptr);
  if (options.projection != ProjectionSecurity::kRevealProjectedSums) {
    return InvalidArgumentError(
        std::string("summand protocol: projection=") +
        ProjectionSecurityName(options.projection) +
        " is unsupported; the workload's summed totals are revealed");
  }
  if (options.center_per_party) {
    return InvalidArgumentError(
        "summand protocol: center_per_party is unsupported; the workload "
        "sums its own uncentered summand");
  }
  SecureScanMetrics unreported;  // workloads report traffic only
  DASH_ASSIGN_OR_RETURN(
      Phase01Output phase01,
      RunPhases01(transport, c, /*absorbed_params=*/0, options,
                  /*phase1=*/nullptr, &unreported));
  PartySecureVectorSum secure_sum(
      transport, SecureSumOptionsFor(*transport, options, seed_salt));
  PartySummandOutput out;
  DASH_ASSIGN_OR_RETURN(out.totals,
                        secure_sum.Run(Secret<Vector>(summand(phase01.q_p))));
  out.pooled_n = phase01.total_samples;
  return out;
}

// The failure path of every entry point (PROTOCOL.md "Failure modes"):
// the first party to observe a mid-protocol failure best-effort
// notifies every peer, so peers stuck in Receive fail with the
// ORIGINATOR's status code instead of waiting out their own timeouts.
// Aborts received from a peer are not re-broadcast (no abort storms),
// and failures before round 1 (argument validation) concern only this
// process. Returns the status the entry point reports.
Status PropagateAbort(Transport* transport, const Status& cause) {
  const int local = transport->local_party();
  const int round = transport->metrics().rounds();
  if (round > 0 && !IsAbortStatus(cause)) {
    AbortInfo info;
    info.origin = local;
    info.round = round;
    info.code = cause.code();
    info.message = cause.message();
    const std::vector<uint8_t> payload = EncodeAbortPayload(info);
    for (int q = 0; q < transport->num_parties(); ++q) {
      if (q == local) continue;
      // Best effort: a link that is itself down must not mask `cause`.
      DASH_ROUND(abort_notify, kAbort);
      const Status notify =
          transport->Send(local, q, MessageTag::kAbort, payload);
      (void)notify;
    }
  }
  if (IsAbortStatus(cause)) return cause;
  return Status(cause.code(),
                "round " + std::to_string(round) + ": " + cause.message());
}

}  // namespace

Result<SecureScanOutput> RunPartySecureScan(Transport* transport,
                                            const PartyData& input_party,
                                            const SecureScanOptions& options,
                                            Phase1State* phase1) {
  Result<SecureScanOutput> out = RunPartyScanProtocol(
      transport, input_party, options, phase1, /*stream=*/nullptr);
  if (!out.ok()) return PropagateAbort(transport, out.status());
  return out;
}

Result<SecureScanOutput> RunPartySecureScanStreamed(
    Transport* transport, const Vector& y, const Matrix& c,
    const StreamingPartyScan& stream, const SecureScanOptions& options,
    Phase1State* phase1) {
  // Phases 0–1 consume only y and C; a zero-column X satisfies the
  // party validation while Phase 2 reads the real X from the source.
  PartyData party;
  party.x = Matrix(static_cast<int64_t>(y.size()), 0);
  party.y = y;
  party.c = c;
  Result<SecureScanOutput> out =
      RunPartyScanProtocol(transport, party, options, phase1, &stream);
  if (!out.ok()) return PropagateAbort(transport, out.status());
  return out;
}

Result<PartySummandOutput> RunPartySummandProtocol(
    Transport* transport, const Matrix& c, const SecureScanOptions& options,
    uint64_t seed_salt, const PartySummandFn& summand) {
  Result<PartySummandOutput> out =
      RunSummandProtocol(transport, c, options, seed_salt, summand);
  if (!out.ok()) return PropagateAbort(transport, out.status());
  return out;
}

}  // namespace dash
