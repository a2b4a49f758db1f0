#include "transport/party_runner.h"

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/party_local.h"
#include "core/scan_checkpoint.h"
#include "core/scan_pipeline.h"
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
uint64_t Phase1Fingerprint(const PartyData& party, int64_t absorbed_params,
                           const SecureScanOptions& options) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  const auto mix64 = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  mix64(static_cast<uint64_t>(party.num_samples()));
  mix64(static_cast<uint64_t>(party.c.cols()));
  mix64(static_cast<uint64_t>(absorbed_params));
  mix64(static_cast<uint64_t>(options.r_combine));
  for (int64_t i = 0; i < party.c.rows(); ++i) {
    for (int64_t j = 0; j < party.c.cols(); ++j) {
      uint64_t bits = 0;
      const double v = party.c(i, j);
      static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
      __builtin_memcpy(&bits, &v, sizeof(bits));
      mix64(bits);
    }
  }
  return h;
}

// The protocol proper; RunPartySecureScan wraps it with the abort
// notification and round tagging. `stream` non-null switches Phase 2 to
// the out-of-core path (X from a PanelSource, checkpoint/resume).
Result<SecureScanOutput> RunPartyScanProtocol(
    Transport* transport, const PartyData& input_party,
    const SecureScanOptions& options, Phase1State* phase1,
    const StreamingPartyScan* stream) {
  const int local = transport->local_party();
  const int num_parties = transport->num_parties();
  const bool beaver =
      options.projection == ProjectionSecurity::kBeaverDotProducts;
  if (beaver && options.pipeline_block_variants > 0) {
    return InvalidArgumentError(
        "pipeline_block_variants requires kRevealProjectedSums; the Beaver "
        "projection consumes whole K-vectors and cannot be blocked");
  }
  if (stream != nullptr) {
    if (beaver) {
      return InvalidArgumentError(
          "streamed scan: the Beaver projection needs the structured "
          "summands; stream with kRevealProjectedSums");
    }
    if (stream->source == nullptr) {
      return InvalidArgumentError("streamed scan: no PanelSource supplied");
    }
    if (options.center_per_party) {
      return InvalidArgumentError(
          "streamed scan: center_per_party mutates X, which is immutable "
          "on disk — center before packing (dash_pack)");
    }
    if (options.pipeline_block_variants > 0) {
      return InvalidArgumentError(
          "streamed scan: pipeline_block_variants also restructures "
          "Phase 2; pick one of streaming or block pipelining");
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
  if (options.trace != nullptr) transport->AttachTrace(options.trace);

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
  Stopwatch protocol_timer;
  Stopwatch local_timer;
  double local_seconds = 0.0;
  double protocol_seconds = 0.0;

  // Phase-1 cache probe (one optional round): each party broadcasts ONE
  // public bit — "I hold valid Phase-1 state for this cohort" — and the
  // cache is used iff every party says yes. All-or-nothing keeps the
  // transcript identical at every party: a single stale peer forces the
  // full Phase 1 everywhere. The fingerprint itself never leaves the
  // process.
  uint64_t fingerprint = 0;
  bool cache_hit = false;
  if (phase1 != nullptr) {
    local_timer.Reset();
    fingerprint = Phase1Fingerprint(*party, absorbed_params, options);
    local_seconds += local_timer.ElapsedSeconds();
    const bool have =
        phase1->valid && phase1->local_fingerprint == fingerprint;
    if (num_parties > 1) {
      protocol_timer.Reset();
      transport->BeginRound();
      ByteWriter w;
      w.PutU32(have ? 1u : 0u);
      DASH_ROUND(phase1_probe, kPhase1Probe);
      DASH_RETURN_IF_ERROR(
          transport->Broadcast(local, MessageTag::kPhase1Probe, w.Take()));
      bool all_have = have;
      for (int q = 0; q < num_parties; ++q) {
        if (q == local) continue;
        DASH_ROUND(phase1_probe, kPhase1Probe);
        DASH_ASSIGN_OR_RETURN(
            Message msg,
            transport->Receive(local, q, MessageTag::kPhase1Probe));
        ByteReader r(msg.payload);
        DASH_ASSIGN_OR_RETURN(uint32_t peer_have, r.GetU32());
        all_have = all_have && (peer_have == 1);
      }
      cache_hit = all_have;
      protocol_seconds += protocol_timer.ElapsedSeconds();
    } else {
      cache_hit = have;
    }
  }

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }

  int64_t total_samples = 0;
  Matrix r_inverse(0, 0);
  Matrix q_p(0, 0);
  if (cache_hit) {
    // Stages 0–3 replaced by the cache: N and R⁻¹ are public protocol
    // reveals, and Q_p is this party's own private material coming back
    // from its own cache — the declassified bytes feed the same local
    // statistics kernel the fresh path feeds and never reach the wire.
    total_samples = phase1->total_samples;
    r_inverse = phase1->r_inverse;
    q_p = DASH_DECLASSIFY(
        phase1->q_p,
        "phase1-cache: this party's own cached Q_p rows, reused in-process");
  } else {
    // Stage 0 (network): exchange the public per-party sample counts.
    protocol_timer.Reset();
    if (num_parties > 1) {
      transport->BeginRound();
      ByteWriter w;
      w.PutI64(party->num_samples());
      DASH_ROUND(phase0_samplecount, kSampleCount);
      DASH_RETURN_IF_ERROR(
          transport->Broadcast(local, MessageTag::kSampleCount, w.Take()));
      for (int q = 0; q < num_parties; ++q) {
        if (q == local) {
          total_samples += party->num_samples();
          continue;
        }
        DASH_ROUND(phase0_samplecount, kSampleCount);
        DASH_ASSIGN_OR_RETURN(
            Message msg,
            transport->Receive(local, q, MessageTag::kSampleCount));
        ByteReader r(msg.payload);
        DASH_ASSIGN_OR_RETURN(int64_t n_q, r.GetI64());
        total_samples += n_q;
      }
    } else {
      total_samples = party->num_samples();
    }
    protocol_seconds += protocol_timer.ElapsedSeconds();

    // Stage 1 (local): our K x K R factor.
    local_timer.Reset();
    Matrix local_r(0, 0);
    if (k > 0) {
      DASH_ASSIGN_OR_RETURN(local_r, PartyLocalRFactor(*party));
    }
    local_seconds += local_timer.ElapsedSeconds();

    // Stage 2 (network): combine R factors; we learn R⁻¹.
    protocol_timer.Reset();
    if (k > 0) {
      DASH_ASSIGN_OR_RETURN(
          DistributedQrResult qr,
          CombineRFactorsOverNetwork(transport, local_r, options.r_combine));
      r_inverse = std::move(qr.r_inverse);
    }
    protocol_seconds += protocol_timer.ElapsedSeconds();

    // Stage 3 (local): our Q_p rows.
    local_timer.Reset();
    q_p = (k > 0) ? PartyLocalQ(*party, r_inverse)
                  : Matrix(party->num_samples(), 0);
    local_seconds += local_timer.ElapsedSeconds();

    if (phase1 != nullptr) {
      phase1->valid = true;
      phase1->local_fingerprint = fingerprint;
      phase1->total_samples = total_samples;
      phase1->r_inverse = r_inverse;
      phase1->q_p = Secret<Matrix>(q_p);
    }
  }

  SecureSumOptions sum_options;
  sum_options.mode = options.aggregation;
  sum_options.frac_bits = options.frac_bits;
  sum_options.seed = options.seed;
  // Concurrent sessions over one mesh must never share mask keys: the
  // session id domain-separates the seed chain (see PartySecureVectorSum
  // and PROTOCOL.md's session-layer note). The sessionless stream keeps
  // domain 0 — the exact historical chain.
  sum_options.mask_domain = transport->session_id();
  PartySecureVectorSum secure_sum(transport, sum_options);

  ScanResult result;
  Vector flat_totals;
  int64_t resumed_from_panel = 0;
  int64_t panels_streamed = 0;
  int64_t checkpoints_written = 0;
  if (beaver) {
    // Stage 3+4 (Beaver): the orthogonal statistics (y.y, X.y, X.X) are
    // summed as usual, but the projected K-vectors never leave the party
    // — only the dot products Lemma 2.1 consumes are opened
    // (mpc/secure_projection.h). Needs the structured summands, so no
    // zero-copy arena here.
    local_timer.Reset();
    const ScanSufficientStats stats = PartyLocalStats(*party, q_p, pool.get());
    Vector plain;
    plain.reserve(static_cast<size_t>(1 + 2 * m));
    plain.push_back(stats.yy);
    plain.insert(plain.end(), stats.xy.begin(), stats.xy.end());
    plain.insert(plain.end(), stats.xx.begin(), stats.xx.end());
    local_seconds += local_timer.ElapsedSeconds();

    protocol_timer.Reset();
    DASH_ASSIGN_OR_RETURN(Vector plain_totals,
                          secure_sum.Run(Secret<Vector>(std::move(plain))));
    SecureProjectionOptions proj_options;
    proj_options.frac_bits = options.projection_frac_bits;
    proj_options.seed = options.seed ^ 0xbea7e5;
    DASH_ASSIGN_OR_RETURN(
        ProjectedStats projected,
        SecureProjectedAggregation(transport, proj_options)
            .Run(Secret<Vector>(stats.qty), Secret<Matrix>(stats.qtx)));
    protocol_seconds += protocol_timer.ElapsedSeconds();

    // Stage 5 (local, public): Lemma 2.1 on the opened dot products.
    local_timer.Reset();
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
    local_seconds += local_timer.ElapsedSeconds();
  } else if (stream != nullptr) {
    // Stage 3 (local, out-of-core): stream X's panels into the
    // wire-order summand, checkpointing as configured. Bit-identical to
    // the in-memory arena below (core/streaming_stats.h).
    local_timer.Reset();
    StreamingStatsOptions stream_opts;
    stream_opts.checkpoint_path = stream->checkpoint_path;
    stream_opts.checkpoint_every_panels = stream->checkpoint_every_panels;
    stream_opts.fail_after_panels = stream->fail_after_panels;
    stream_opts.panel_delay_ms = stream->panel_delay_ms;
    stream_opts.prefetch = stream->prefetch;
    stream_opts.pool = pool.get();
    DASH_ASSIGN_OR_RETURN(
        StreamingStatsResult streamed,
        ComputeLocalStatsStreamed(stream->source, party->y, q_p, stream_opts));
    local_seconds += local_timer.ElapsedSeconds();
    resumed_from_panel = streamed.resumed_from_panel;
    panels_streamed = streamed.panels_streamed;
    checkpoints_written = streamed.checkpoints_written;
    if (resumed_from_panel > 0) {
      DASH_LOG(Info) << "party " << local << " resumed from checkpoint at "
                     << "panel " << resumed_from_panel << "/"
                     << stream->source->num_panels();
    }

    // Stage 4 (network): one secure-sum aggregation of everything.
    protocol_timer.Reset();
    DASH_ASSIGN_OR_RETURN(flat_totals,
                          secure_sum.Run(Secret<Vector>(streamed.flat)));
    protocol_seconds += protocol_timer.ElapsedSeconds();
  } else if (options.pipeline_block_variants > 0) {
    // Stage 3+4 (pipelined): the round schedule of core/scan_pipeline.h
    // — header round, then one round per variant block, with block b+1
    // computed while block b's aggregate is in flight on the transport.
    const PipelinePlan plan{m, k, options.pipeline_block_variants};
    const int64_t num_blocks = plan.num_blocks();

    local_timer.Reset();
    Vector header;
    header.reserve(static_cast<size_t>(plan.header_len()));
    header.push_back(SquaredNorm(party->y));
    const Vector qty = TransposeMatVec(q_p, party->y);
    header.insert(header.end(), qty.begin(), qty.end());
    local_seconds += local_timer.ElapsedSeconds();

    protocol_timer.Reset();
    DASH_ASSIGN_OR_RETURN(Vector header_totals,
                          secure_sum.Run(Secret<Vector>(header)));
    flat_totals.assign(static_cast<size_t>(StatsWireLayout{m, k}.total_len()),
                       0.0);
    ScatterHeaderTotals(header_totals, plan, &flat_totals);

    Vector cur;
    Vector next;
    const auto compute_block = [&](int64_t b, Vector* buf) {
      const int64_t w = plan.width(b);
      buf->assign(static_cast<size_t>(plan.block_len(b)), 0.0);
      ComputeStatsColumns(party->x, party->y, q_p, plan.begin(b), plan.end(b),
                          PipelineBlockView(buf->data(), w), /*pool=*/nullptr);
    };
    if (num_blocks > 0) compute_block(0, &cur);
    for (int64_t b = 0; b < num_blocks; ++b) {
      const bool has_next = b + 1 < num_blocks;
      if (has_next) {
        if (pool != nullptr) {
          pool->Schedule(
              [&compute_block, &next, b] { compute_block(b + 1, &next); });
        } else {
          compute_block(b + 1, &next);
        }
      }
      Result<Vector> block_totals = secure_sum.Run(Secret<Vector>(cur));
      // Join the in-flight compute before any early return can tear down
      // the buffer it writes.
      if (has_next && pool != nullptr) pool->Wait();
      if (!block_totals.ok()) return block_totals.status();
      ScatterBlockTotals(block_totals.value(), plan, b, &flat_totals);
      cur.swap(next);
    }
    protocol_seconds += protocol_timer.ElapsedSeconds();
  } else {
    // Stage 3 (local): our summand, computed directly into a wire-order
    // arena (zero-copy flatten).
    local_timer.Reset();
    const Vector flat = PartyLocalStatsFlat(*party, q_p, pool.get());
    local_seconds += local_timer.ElapsedSeconds();

    // Stage 4 (network): one secure-sum aggregation of everything.
    protocol_timer.Reset();
    DASH_ASSIGN_OR_RETURN(flat_totals, secure_sum.Run(Secret<Vector>(flat)));
    protocol_seconds += protocol_timer.ElapsedSeconds();
  }

  if (!beaver) {
    // Stage 5 (local, public): Lemma 2.1 finalization.
    local_timer.Reset();
    DASH_ASSIGN_OR_RETURN(ScanSufficientStats totals,
                          UnflattenStats(flat_totals, m, k));
    totals.num_samples = total_samples;
    DASH_ASSIGN_OR_RETURN(
        result, FinalizeScanWithAbsorbedParams(totals, absorbed_params));
    local_seconds += local_timer.ElapsedSeconds();
  }

  // Commit round: broadcast the checksum of the result we are about to
  // reveal and require every peer's to match. This is the last line of
  // defense against faults no other layer can see (e.g. a same-tag
  // same-length reorder): instead of parties walking away with
  // different numbers, the scan fails with DataLoss at every party.
  if (options.commit_round && num_parties > 1) {
    protocol_timer.Reset();
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
    protocol_seconds += protocol_timer.ElapsedSeconds();
  }

  // The revealed (and, when enabled, commit-verified) result is in
  // hand: the checkpoint has served its purpose. A crash before this
  // point keeps the snapshot for the next run.
  if (stream != nullptr && !stream->checkpoint_path.empty()) {
    RemoveScanCheckpoint(stream->checkpoint_path);
  }

  SecureScanOutput out;
  out.result = std::move(result);
  out.metrics.total_bytes = transport->metrics().total_bytes();
  out.metrics.total_messages = transport->metrics().total_messages();
  out.metrics.max_link_bytes = transport->metrics().MaxLinkBytes();
  out.metrics.rounds = transport->metrics().rounds();
  out.metrics.local_compute_seconds = local_seconds;
  out.metrics.protocol_seconds = protocol_seconds;
  out.metrics.phase1_cache_hit = cache_hit;
  out.metrics.streamed = stream != nullptr;
  out.metrics.resumed_from_panel = resumed_from_panel;
  out.metrics.panels_streamed = panels_streamed;
  out.metrics.checkpoints_written = checkpoints_written;
  DASH_LOG(Info) << "party " << local << "/" << num_parties
                 << " secure scan: N=" << total_samples << " M=" << m
                 << " K=" << k << " mode="
                 << AggregationModeName(options.aggregation)
                 << " sent_bytes=" << out.metrics.total_bytes;
  return out;
}

// Shared tail of every public entry point: validate the transport
// binding, run the protocol, and on failure best-effort notify peers.
Result<SecureScanOutput> RunPartyScanWithAbortPropagation(
    Transport* transport, const PartyData& input_party,
    const SecureScanOptions& options, Phase1State* phase1,
    const StreamingPartyScan* stream) {
  DASH_CHECK(transport != nullptr);
  const int local = transport->local_party();
  Result<SecureScanOutput> out =
      RunPartyScanProtocol(transport, input_party, options, phase1, stream);
  if (out.ok()) return out;
  const Status cause = out.status();
  const int round = transport->metrics().rounds();

  // Abort propagation (PROTOCOL.md "Failure modes"): the first party to
  // observe a mid-protocol failure best-effort notifies every peer, so
  // peers stuck in Receive fail with the ORIGINATOR's status code
  // instead of waiting out their own timeouts. Aborts received from a
  // peer are not re-broadcast (no abort storms), and failures before
  // round 1 (argument validation) concern only this process.
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
                                            const SecureScanOptions& options) {
  return RunPartyScanWithAbortPropagation(transport, input_party, options,
                                          /*phase1=*/nullptr,
                                          /*stream=*/nullptr);
}

Result<SecureScanOutput> RunPartySecureScan(Transport* transport,
                                            const PartyData& input_party,
                                            const SecureScanOptions& options,
                                            Phase1State* phase1) {
  return RunPartyScanWithAbortPropagation(transport, input_party, options,
                                          phase1, /*stream=*/nullptr);
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
  return RunPartyScanWithAbortPropagation(transport, party, options, phase1,
                                          &stream);
}

}  // namespace dash
