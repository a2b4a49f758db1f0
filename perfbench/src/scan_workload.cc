// scan_tall / scan_wide: one secure scan after another, each party
// streaming its slice from DASHPACK through RunPartySecureScanStreamed
// on a persistent loopback TCP mesh and writing the result as CSV.
//
// One op is one scan: from the barrier that releases all parties to
// the last party's ScanResult::WriteCsv returning. Each op opens its
// PackedStudyReader inside that window and starts from a fresh
// Phase1State, so every scan runs every round, probe included, as a
// daemon runs a cohort it has not seen.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common.h"
#include "data/panel_stream.h"
#include "service_stack.h"
#include "transport/party_runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct ScanOp {
  bool ok = true;
  std::string error;
  uint64_t checksum = 0;
  int64_t release_ns = 0;
  int64_t end_ns = 0;       // last party done
  int64_t wire_bytes = 0;   // physical, summed over parties
  int64_t frames = 0;
  int64_t logical_bytes = 0;   // TrafficMetrics of the TCP endpoints
  int64_t mirrored_bytes = 0;  // TrafficMetrics of the decorators

  double latency_s() const { return NsToSeconds(end_ns - release_ns); }
};

struct ScanPhase {
  std::vector<ScanOp> ops;
  std::vector<double> peak_rss_mb;  // high-water mark of each op
  double elapsed_s = 0.0;
};

struct ScanEnv {
  std::vector<std::unique_ptr<dash::TcpTransport>>* meshes = nullptr;
  std::vector<std::string> study_paths;
  std::vector<std::string> csv_paths;
  dash::SecureScanOptions options;
};

// Runs scans back to back until `seconds` have passed (at least one) or
// `max_ops` are done, or an op fails. With `sink`, every party's
// transport is wrapped in a TimedTransport and its spans are kept.
ScanPhase RunScans(const ScanEnv& env, double seconds, int64_t max_ops,
                   SpanSink* sink, uint32_t op_base,
                   dash::ScanResult* first_result) {
  const int parties = static_cast<int>(env.meshes->size());
  struct PartyOp {
    dash::Status status = dash::Status::Ok();
    uint64_t checksum = 0;
    int64_t end_ns = 0;
    dash::TcpWireStats wire0, wire1;
    int64_t logical = 0;
    int64_t mirrored = 0;
  };
  std::vector<PartyOp> party_ops(static_cast<size_t>(parties));
  ScanPhase phase;
  Barrier barrier(parties);
  bool stop = false;
  int64_t release_ns = 0;
  int64_t phase_start = 0;
  const auto budget = static_cast<int64_t>(seconds * 1e9);

  const auto on_release = [&] {
    const int64_t now = NowNs();
    const auto done = static_cast<int64_t>(phase.ops.size());
    stop = done >= max_ops ||
           (done > 0 && (now - phase_start >= budget || !phase.ops.back().ok));
    if (done == 0) phase_start = now;
    ResetPeakRss();
    release_ns = now;
  };
  const auto on_done = [&] {
    ScanOp op;
    op.release_ns = release_ns;
    for (int p = 0; p < parties; ++p) {
      const PartyOp& mine = party_ops[static_cast<size_t>(p)];
      op.end_ns = std::max(op.end_ns, mine.end_ns);
      op.wire_bytes += mine.wire1.bytes_sent - mine.wire0.bytes_sent;
      op.frames += mine.wire1.frames_sent - mine.wire0.frames_sent;
      op.logical_bytes += mine.logical;
      op.mirrored_bytes += mine.mirrored;
      if (!mine.status.ok()) {
        if (op.ok) op.error = "party " + std::to_string(p) + ": " +
                              mine.status.ToString();
        op.ok = false;
      } else if (mine.checksum != party_ops[0].checksum) {
        op.ok = false;
        op.error = "result checksums differ between parties";
      }
    }
    op.checksum = party_ops[0].checksum;
    phase.ops.push_back(op);
    phase.peak_rss_mb.push_back(PeakRssMb());
  };

  std::vector<std::thread> threads;
  for (int p = 0; p < parties; ++p) {
    threads.emplace_back([&, p] {
      dash::TcpTransport* tcp = (*env.meshes)[static_cast<size_t>(p)].get();
      std::unique_ptr<TimedTransport> timed;
      if (sink != nullptr) timed = std::make_unique<TimedTransport>(tcp);
      dash::Transport* transport =
          timed ? static_cast<dash::Transport*>(timed.get()) : tcp;
      for (uint32_t op = op_base;; ++op) {
        barrier.Arrive(on_release);
        if (stop) break;
        const int64_t start = release_ns;
        PartyOp& mine = party_ops[static_cast<size_t>(p)];
        mine.wire0 = tcp->wire_stats();
        const int64_t logical0 = tcp->metrics().total_bytes();
        const int64_t mirrored0 = timed ? timed->metrics().total_bytes() : 0;
        if (timed) timed->set_op(op);

        mine.status = [&]() -> dash::Status {
          DASH_ASSIGN_OR_RETURN(
              std::unique_ptr<dash::PackedStudyReader> reader,
              dash::PackedStudyReader::Open(
                  env.study_paths[static_cast<size_t>(p)]));
          dash::StreamingPartyScan stream;
          stream.source = reader.get();
          dash::Phase1State phase1;
          DASH_ASSIGN_OR_RETURN(
              dash::SecureScanOutput out,
              dash::RunPartySecureScanStreamed(
                  transport, reader->phenotype(), reader->covariates(), stream,
                  env.options, &phase1));
          DASH_RETURN_IF_ERROR(
              out.result.WriteCsv(env.csv_paths[static_cast<size_t>(p)]));
          mine.checksum = dash::ScanResultChecksum(out.result);
          if (p == 0 && first_result != nullptr && op == op_base) {
            *first_result = std::move(out.result);
          }
          return dash::Status::Ok();
        }();
        mine.end_ns = NowNs();
        mine.wire1 = tcp->wire_stats();
        mine.logical = tcp->metrics().total_bytes() - logical0;
        mine.mirrored = timed ? timed->metrics().total_bytes() - mirrored0 : 0;
        if (timed) {
          timed->FlushTo(sink);
          sink->AddWindow({op, p, start, mine.end_ns});
        }
        barrier.Arrive(on_done);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!phase.ops.empty()) {
    phase.elapsed_s = NsToSeconds(phase.ops.back().end_ns - phase_start);
  }
  return phase;
}

std::vector<double> Latencies(const std::vector<ScanOp>& ops) {
  std::vector<double> out;
  for (const ScanOp& op : ops) out.push_back(op.latency_s());
  return out;
}

// Counts failed or wrong ops (status, party disagreement, or a result
// that differs from the reference) into `out`.
void CheckOps(const std::vector<ScanOp>& ops, uint64_t reference,
              RunOutput* out) {
  for (const ScanOp& op : ops) {
    ++out->attempted;
    std::string error = op.error;
    if (op.ok && op.checksum != reference) {
      error = "result checksum differs from the run's reference";
    }
    if (!error.empty()) {
      ++out->failed;
      if (out->error.empty()) out->error = error;
    }
  }
}

}  // namespace

RunOutput RunScanWorkload(const ScanWorkloadConfig& config,
                          const RunArgs& args) {
  RunOutput out;
  const int parties = config.shape.num_parties;
  const auto fail = [&](const std::string& error) {
    out.correct = false;
    if (out.error.empty()) out.error = error;
    return out;
  };

  // Inputs: generated here, never inside the timed code.
  Study study = GenerateStudy(config.shape, args.seed);
  auto reference = FitReference(study, config.reference_fits, args.seed);
  if (!reference.ok()) return fail(reference.status().ToString());

  ScanEnv env;
  for (int p = 0; p < parties; ++p) {
    const std::string base = args.work_dir + "/party" + std::to_string(p);
    env.study_paths.push_back(base + ".dashpack");
    env.csv_paths.push_back(base + ".csv");
  }
  env.options.aggregation = dash::AggregationMode::kMasked;
  env.options.seed = args.seed ^ 0xda5bull;
  env.options.num_threads = 1;

  // Set-up, several times; the last mesh stays up for the run.
  std::vector<std::unique_ptr<dash::TcpTransport>> meshes;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    meshes.clear();
    const auto seconds = SetUpMesh(
        parties,
        [&](int p) {
          const PartySlice& slice = study.parties[static_cast<size_t>(p)];
          return dash::WritePackedStudy(env.study_paths[static_cast<size_t>(p)],
                                        slice.x, slice.y, slice.c, args.seed);
        },
        &meshes);
    if (!seconds.ok()) return fail(seconds.status().ToString());
    setup_s.push_back(seconds.value());
  }
  study = Study();  // the studies now live in their files only
  env.meshes = &meshes;

  // Warm-up: the run's first op, checked against the pooled OLS fit.
  dash::ScanResult first;
  const ScanPhase warm = RunScans(env, 0.0, 1, nullptr, 0, &first);
  if (warm.ops.empty() || !warm.ops[0].ok) {
    return fail(warm.ops.empty() ? "no warm-up scan" : warm.ops[0].error);
  }
  const dash::Status matches = CheckAgainstReference(first, reference.value());
  if (!matches.ok()) return fail(matches.ToString());
  const uint64_t reference_checksum = warm.ops[0].checksum;

  if (!args.trace) {
    const double cpu0 = ProcessCpuSeconds();
    const ScanPhase run = RunScans(env, args.seconds, INT64_MAX, nullptr, 1,
                                   nullptr);
    EndToEnd e2e;
    e2e.cpu_s = ProcessCpuSeconds() - cpu0;
    e2e.peak_rss_mb = Median(run.peak_rss_mb);
    e2e.setup_s = Median(setup_s);
    e2e.latency_s = Latencies(run.ops);
    e2e.elapsed_s = run.elapsed_s;
    for (const ScanOp& op : run.ops) {
      e2e.wire_bytes += static_cast<double>(op.wire_bytes);
    }
    CheckOps(run.ops, reference_checksum, &out);
    AddEndToEndMetrics(e2e, &out.metrics);
    out.correct = out.failed == 0;
    out.finished = true;
    return out;
  }

  // Traced run: untraced and traced halves, then the standalone layer
  // calls and a few jobs of the same scan through the service layer.
  const ScanPhase plain =
      RunScans(env, args.seconds / 2, INT64_MAX, nullptr, 1, nullptr);
  SpanSink sink;
  const ScanPhase traced =
      RunScans(env, args.seconds / 2, INT64_MAX, &sink, 1, nullptr);
  CheckOps(plain.ops, reference_checksum, &out);
  CheckOps(traced.ops, reference_checksum, &out);
  if (out.failed > 0) return fail(out.error);
  for (const ScanOp& op : traced.ops) {
    if (op.wire_bytes != plain.ops[0].wire_bytes ||
        op.logical_bytes != plain.ops[0].logical_bytes ||
        op.mirrored_bytes != op.logical_bytes) {
      return fail("decorated scan moved different bytes than the plain scan");
    }
  }

  LayerOptions layer_options;
  layer_options.mask_seed = args.seed;
  layer_options.expected_checksum = reference_checksum;
  layer_options.csv_paths = env.csv_paths;
  const auto layers = MeasureLayers(env.study_paths, layer_options);
  if (!layers.ok()) return fail(layers.status().ToString());

  // The same scan as jobs through the service layer, on the same mesh
  // (the stacks are destroyed before the meshes they borrow).
  ServiceHooks hooks;
  std::vector<std::unique_ptr<ServiceParty>> stacks;
  std::vector<ServiceParty*> raw;
  for (int p = 0; p < parties; ++p) {
    stacks.push_back(std::make_unique<ServiceParty>(
        p, meshes[static_cast<size_t>(p)].get(),
        std::map<std::string, std::string>{
            {"study", env.study_paths[static_cast<size_t>(p)]}},
        ServiceOptions{}, &hooks));
    raw.push_back(stacks.back().get());
  }
  ClientPlan plan;
  plan.cohorts.assign(4, "study");
  plan.protocol_seed = env.options.seed;
  std::atomic<uint32_t> next_job_id{1};
  const std::vector<JobOutcome> jobs = RunClients(raw, plan, &next_job_id);
  for (const JobOutcome& job : jobs) {
    ++out.attempted;
    if (!job.ok || job.checksum != reference_checksum) {
      ++out.failed;
      return fail(job.ok ? "service job result differs" : job.error);
    }
  }
  AddLayerMetrics(layers.value(), &out.metrics);
  const RoundAccounting acc = AccountRounds(sink.spans(), sink.windows());
  AddRoundMetrics(acc, static_cast<int64_t>(traced.ops.size()), &out.metrics);
  AddServiceMetrics(jobs, hooks.TakeSessionOpenTimes(), raw, &out.metrics);

  double wire = 0.0;
  double frames = 0.0;
  for (const ScanOp& op : traced.ops) {
    wire += static_cast<double>(op.wire_bytes);
    frames += static_cast<double>(op.frames);
  }
  const double ops = static_cast<double>(traced.ops.size());
  out.metrics.Add("transport.wire_bytes", wire / ops, "B");
  out.metrics.Add("transport.frames", frames / ops, "count");
  std::string error;
  if (!AddTraceHealthMetrics(acc, layers.value(), /*writes_csv=*/true,
                             config.slack_frac,
                             Median(Latencies(traced.ops)),
                             Median(Latencies(plain.ops)), &out.metrics,
                             &error)) {
    return fail(error);
  }
  const dash::Status written =
      WriteTraceEvents(args.trace_path, sink.spans(), sink.windows(), "scan");
  if (!written.ok()) return fail(written.ToString());
  out.correct = out.failed == 0;
  out.finished = true;
  return out;
}

}  // namespace perfbench
