// service_mixed: the resident daemon's data path under closed-loop
// load. One client keeps one job in flight against all three parties'
// schedulers; jobs draw their cohort with a seeded skew from a
// pool larger than the Phase-1 cache, so most jobs hit the cache and
// the rest pay Phase 1. One op is one job: from the first Submit to
// the job being terminal at every party.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common.h"
#include "data/panel_stream.h"
#include "service_stack.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string CohortKey(int c) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cohort-%02d", c);
  return buf;
}

std::vector<double> Latencies(const std::vector<JobOutcome>& jobs) {
  std::vector<double> out;
  for (const JobOutcome& job : jobs) out.push_back(job.latency_s());
  return out;
}

// First submit to last completion.
double Elapsed(const std::vector<JobOutcome>& jobs) {
  if (jobs.empty()) return 0.0;
  int64_t first = jobs[0].submit_ns;
  int64_t last = jobs[0].done_ns;
  for (const JobOutcome& job : jobs) {
    first = std::min(first, job.submit_ns);
    last = std::max(last, job.done_ns);
  }
  return NsToSeconds(last - first);
}

void CheckJobs(const std::vector<JobOutcome>& jobs,
               const std::map<std::string, uint64_t>& reference,
               RunOutput* out) {
  for (const JobOutcome& job : jobs) {
    ++out->attempted;
    std::string error = job.error;
    if (job.ok && job.checksum != reference.at(job.cohort)) {
      error = "job " + std::to_string(job.job_id) +
              ": result differs from the cohort's reference";
    }
    if (!error.empty() || !job.ok) {
      ++out->failed;
      if (out->error.empty()) out->error = error;
    }
  }
}

}  // namespace

RunOutput RunServiceWorkload(const ServiceWorkloadConfig& config,
                             const RunArgs& args) {
  RunOutput out;
  const int parties = config.shape.num_parties;
  const auto fail = [&](const std::string& error) {
    out.correct = false;
    if (out.error.empty()) out.error = error;
    return out;
  };

  // Every cohort is its own seeded study, written before timing starts.
  std::vector<Study> studies;
  std::vector<std::vector<ReferenceFit>> references;
  std::vector<std::string> keys;
  // paths[p][cohort key] = party p's file for that cohort
  std::vector<std::map<std::string, std::string>> paths(
      static_cast<size_t>(parties));
  for (int c = 0; c < config.cohorts; ++c) {
    uint64_t state = args.seed + static_cast<uint64_t>(c) * 0x100000001B3ull;
    const uint64_t cohort_seed = dash::SplitMix64(&state);
    studies.push_back(GenerateStudy(config.shape, cohort_seed));
    auto fits = FitReference(studies.back(), config.reference_fits, cohort_seed);
    if (!fits.ok()) return fail(fits.status().ToString());
    references.push_back(std::move(fits).value());
    keys.push_back(CohortKey(c));
    for (int p = 0; p < parties; ++p) {
      paths[static_cast<size_t>(p)][keys.back()] =
          args.work_dir + "/" + keys.back() + "-party" + std::to_string(p) +
          ".dashpack";
    }
  }

  // Set-up, several times: write every party's cohort files, connect
  // the mesh, start each party's mux, cache and scheduler.
  ServiceHooks hooks;
  const ServiceOptions service_options{config.max_concurrent,
                                       config.cache_entries};
  std::vector<std::unique_ptr<dash::TcpTransport>> meshes;
  std::vector<std::unique_ptr<ServiceParty>> stacks;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    stacks.clear();
    meshes.clear();
    const int64_t start = NowNs();
    const auto connected = SetUpMesh(
        parties,
        [&](int p) -> dash::Status {
          for (int c = 0; c < config.cohorts; ++c) {
            const PartySlice& slice =
                studies[static_cast<size_t>(c)].parties[static_cast<size_t>(p)];
            DASH_RETURN_IF_ERROR(dash::WritePackedStudy(
                paths[static_cast<size_t>(p)].at(keys[static_cast<size_t>(c)]),
                slice.x, slice.y, slice.c, static_cast<uint64_t>(c)));
          }
          return dash::Status::Ok();
        },
        &meshes);
    if (!connected.ok()) return fail(connected.status().ToString());
    for (int p = 0; p < parties; ++p) {
      stacks.push_back(std::make_unique<ServiceParty>(
          p, meshes[static_cast<size_t>(p)].get(),
          paths[static_cast<size_t>(p)], service_options, &hooks));
    }
    setup_s.push_back(NsToSeconds(NowNs() - start));
  }
  studies.clear();
  std::vector<ServiceParty*> raw;
  for (const auto& s : stacks) raw.push_back(s.get());

  // Warm-up: every cohort once, in order; each first result is checked
  // against its pooled OLS fit and becomes the cohort's reference.
  std::atomic<uint32_t> next_job_id{1};
  ClientPlan warm_plan;
  warm_plan.cohorts = keys;
  warm_plan.protocol_seed = args.seed ^ 0xda5bull;
  const std::vector<JobOutcome> warm = RunClients(raw, warm_plan, &next_job_id);
  std::map<std::string, uint64_t> reference;
  for (const JobOutcome& job : warm) {
    if (!job.ok) return fail(job.error);
    reference[job.cohort] = job.checksum;
  }
  for (size_t c = 0; c < keys.size(); ++c) {
    dash::ScanResult result;
    if (!hooks.CapturedResult(keys[c], &result)) {
      return fail("no warm-up result for " + keys[c]);
    }
    const dash::Status matches = CheckAgainstReference(result, references[c]);
    if (!matches.ok()) return fail(keys[c] + ": " + matches.ToString());
  }

  // The seeded skew: a hot set of cohorts draws hot_share of the jobs.
  std::vector<int> order(static_cast<size_t>(config.cohorts));
  std::iota(order.begin(), order.end(), 0);
  dash::Rng skew_rng(args.seed ^ 0x5e7ull);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(skew_rng.UniformInt(i))]);
  }
  ClientPlan plan;
  plan.cohorts = keys;
  plan.weights.assign(keys.size(),
                      (1.0 - config.hot_share) /
                          static_cast<double>(config.cohorts - config.hot_cohorts));
  for (int i = 0; i < config.hot_cohorts; ++i) {
    plan.weights[static_cast<size_t>(order[static_cast<size_t>(i)])] =
        config.hot_share / static_cast<double>(config.hot_cohorts);
  }
  plan.clients = config.clients;
  plan.seed = args.seed;
  plan.protocol_seed = warm_plan.protocol_seed;

  if (!args.trace) {
    ResetPeakRss();
    const double cpu0 = ProcessCpuSeconds();
    const int64_t wire0 = MeshBytesSent(meshes);
    plan.seconds = args.seconds;
    const std::vector<JobOutcome> jobs = RunClients(raw, plan, &next_job_id);
    EndToEnd e2e;
    e2e.cpu_s = ProcessCpuSeconds() - cpu0;
    e2e.wire_bytes = static_cast<double>(MeshBytesSent(meshes) - wire0);
    e2e.peak_rss_mb = PeakRssMb();
    e2e.setup_s = Median(setup_s);
    e2e.latency_s = Latencies(jobs);
    e2e.elapsed_s = Elapsed(jobs);
    CheckJobs(jobs, reference, &out);
    AddEndToEndMetrics(e2e, &out.metrics);
    double hits = 0.0;
    for (const JobOutcome& job : jobs) hits += job.cache_hit ? 1.0 : 0.0;
    std::fprintf(stderr, "perfbench: %zu jobs, %.3f hit the Phase-1 cache\n",
                 jobs.size(), hits / static_cast<double>(jobs.size()));
    out.correct = out.failed == 0;
    out.finished = true;
    return out;
  }

  // Traced run: an untraced half, a traced half, then the standalone
  // layer calls on the first cohort's slices.
  plan.seconds = args.seconds / 2;
  const std::vector<JobOutcome> plain = RunClients(raw, plan, &next_job_id);
  hooks.TakeSessionOpenTimes();
  hooks.tracing.store(true);
  const int64_t wire0 = MeshBytesSent(meshes);
  const int64_t frames0 = MeshFramesSent(meshes);
  const std::vector<JobOutcome> traced = RunClients(raw, plan, &next_job_id);
  const double jobs = static_cast<double>(traced.size());
  const double wire = static_cast<double>(MeshBytesSent(meshes) - wire0);
  const double frames = static_cast<double>(MeshFramesSent(meshes) - frames0);
  hooks.tracing.store(false);
  CheckJobs(plain, reference, &out);
  CheckJobs(traced, reference, &out);
  if (out.failed > 0) return fail(out.error);
  if (!hooks.FirstError().empty()) return fail(hooks.FirstError());

  std::vector<std::string> cohort0;
  LayerOptions layer_options;
  for (int p = 0; p < parties; ++p) {
    cohort0.push_back(paths[static_cast<size_t>(p)].at(keys[0]));
    layer_options.csv_paths.push_back(args.work_dir + "/layers-party" +
                                      std::to_string(p) + ".csv");
  }
  layer_options.mask_seed = args.seed;
  layer_options.expected_checksum = reference.at(keys[0]);
  const auto layers = MeasureLayers(cohort0, layer_options);
  if (!layers.ok()) return fail(layers.status().ToString());

  AddLayerMetrics(layers.value(), &out.metrics);
  const RoundAccounting acc = AccountRounds(hooks.sink.spans(),
                                            hooks.sink.windows());
  AddRoundMetrics(acc, static_cast<int64_t>(traced.size()), &out.metrics);
  AddServiceMetrics(traced, hooks.TakeSessionOpenTimes(), raw, &out.metrics);
  out.metrics.Add("transport.wire_bytes", wire / jobs, "B");
  out.metrics.Add("transport.frames", frames / jobs, "count");
  std::string error;
  if (!AddTraceHealthMetrics(acc, layers.value(), /*writes_csv=*/false,
                             config.slack_frac, Median(Latencies(traced)),
                             Median(Latencies(plain)), &out.metrics, &error)) {
    return fail(error);
  }
  const dash::Status written = WriteTraceEvents(
      args.trace_path, hooks.sink.spans(), hooks.sink.windows(), "job");
  if (!written.ok()) return fail(written.ToString());
  out.correct = out.failed == 0;
  out.finished = true;
  return out;
}

}  // namespace perfbench
