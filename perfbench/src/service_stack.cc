#include "service_stack.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common.h"
#include "data/panel_stream.h"
#include "transport/frame.h"
#include "transport/party_runner.h"
#include "util/random.h"

namespace perfbench {

void ServiceHooks::RecordSessionOpen(double seconds) {
  dash::MutexLock lock(&mu_);
  session_open_s_.push_back(seconds);
}

std::vector<double> ServiceHooks::TakeSessionOpenTimes() {
  dash::MutexLock lock(&mu_);
  return std::exchange(session_open_s_, {});
}

void ServiceHooks::CaptureResult(const std::string& cohort,
                                 const dash::ScanResult& result) {
  dash::MutexLock lock(&mu_);
  results_.try_emplace(cohort, result);
}

bool ServiceHooks::CapturedResult(const std::string& cohort,
                                  dash::ScanResult* out) const {
  dash::MutexLock lock(&mu_);
  const auto it = results_.find(cohort);
  if (it == results_.end()) return false;
  *out = it->second;
  return true;
}

void ServiceHooks::RecordError(const std::string& error) {
  dash::MutexLock lock(&mu_);
  if (first_error_.empty()) first_error_ = error;
}

std::string ServiceHooks::FirstError() const {
  dash::MutexLock lock(&mu_);
  return first_error_;
}

ServiceParty::ServiceParty(int party, dash::Transport* mesh,
                           std::map<std::string, std::string> cohort_paths,
                           const ServiceOptions& options, ServiceHooks* hooks)
    : party_(party),
      cohort_paths_(std::move(cohort_paths)),
      hooks_(hooks),
      mux_(mesh),
      cache_(options.cache_entries) {
  dash::JobSchedulerOptions scheduler_options;
  scheduler_options.max_concurrent = options.max_concurrent;
  scheduler_ = std::make_unique<dash::JobScheduler>(
      [this](const dash::JobSpec& spec) { return OpenSession(spec); },
      [this](dash::Transport* transport, const dash::JobSpec& spec,
             dash::Phase1State* phase1) {
        return Scan(transport, spec, phase1);
      },
      &cache_, scheduler_options);
}

dash::Result<dash::ScanSession> ServiceParty::OpenSession(
    const dash::JobSpec& spec) {
  const int64_t start = NowNs();
  DASH_ASSIGN_OR_RETURN(std::unique_ptr<dash::SessionChannel> channel,
                        mux_.OpenSession(spec.job_id));
  hooks_->RecordSessionOpen(NsToSeconds(NowNs() - start));
  dash::SessionChannel* raw = channel.get();
  dash::ScanSession session;
  session.abort = [raw](const dash::Status& s) { raw->Abort(s); };
  if (hooks_->tracing.load()) {
    auto timed = std::make_unique<TimedTransport>(std::move(channel));
    timed->set_op(spec.job_id);
    session.transport = std::move(timed);
  } else {
    session.transport = std::move(channel);
  }
  return session;
}

dash::Result<dash::SecureScanOutput> ServiceParty::Scan(
    dash::Transport* transport, const dash::JobSpec& spec,
    dash::Phase1State* phase1) {
  const int64_t start = NowNs();
  const auto path = cohort_paths_.find(spec.cohort_key);
  if (path == cohort_paths_.end()) {
    return dash::NotFoundError("no cohort " + spec.cohort_key);
  }
  DASH_ASSIGN_OR_RETURN(std::unique_ptr<dash::PackedStudyReader> reader,
                        dash::PackedStudyReader::Open(path->second));
  dash::StreamingPartyScan stream;
  stream.source = reader.get();
  dash::SecureScanOptions options;
  options.aggregation = spec.mode;
  options.seed = spec.protocol_seed;
  dash::Result<dash::SecureScanOutput> out = dash::RunPartySecureScanStreamed(
      transport, reader->phenotype(), reader->covariates(), stream, options,
      phase1);
  const int64_t end = NowNs();
  if (auto* timed = dynamic_cast<TimedTransport*>(transport)) {
    if (timed->metrics().total_bytes() !=
        timed->inner()->metrics().total_bytes()) {
      hooks_->RecordError("job " + std::to_string(spec.job_id) +
                          ": decorator and session byte counts differ");
    }
    timed->FlushTo(&hooks_->sink);
    hooks_->sink.AddWindow({spec.job_id, party_, start, end});
  }
  if (out.ok() && party_ == 0) {
    hooks_->CaptureResult(spec.cohort_key, out.value().result);
  }
  return out;
}

namespace {

bool Terminal(dash::JobState state) {
  return state == dash::JobState::kDone || state == dash::JobState::kFailed ||
         state == dash::JobState::kCancelled;
}

// Index drawn from `weights` (normalized on the fly).
size_t Draw(const std::vector<double>& weights, dash::Rng* rng) {
  double total = 0.0;
  for (const double w : weights) total += w;
  double u = rng->UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

JobOutcome RunJob(const std::vector<ServiceParty*>& parties,
                  const dash::JobSpec& spec) {
  JobOutcome outcome;
  outcome.job_id = spec.job_id;
  outcome.cohort = spec.cohort_key;
  outcome.submit_ns = NowNs();
  size_t submitted = 0;
  for (; submitted < parties.size(); ++submitted) {
    const dash::Status s = parties[submitted]->scheduler()->Submit(spec);
    if (!s.ok()) {
      outcome.error = "submit to party " + std::to_string(submitted) + ": " +
                      s.ToString();
      break;
    }
  }
  if (submitted < parties.size()) {
    // A job missing at one party would stall its peers until their
    // receive timeout; cancel it where it was admitted.
    for (size_t p = 0; p < submitted; ++p) {
      (void)parties[p]->scheduler()->Cancel(spec.job_id);
    }
  }
  outcome.ok = submitted == parties.size();
  bool hit = true;
  for (size_t p = 0; p < submitted; ++p) {
    for (;;) {
      const dash::Result<dash::JobRecord> record =
          parties[p]->scheduler()->Query(spec.job_id);
      if (!record.ok()) {
        outcome.ok = false;
        outcome.error = record.status().ToString();
        break;
      }
      if (!Terminal(record->state)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      if (record->state != dash::JobState::kDone) {
        outcome.ok = false;
        if (outcome.error.empty()) {
          outcome.error = "party " + std::to_string(p) + ": " +
                          record->error.ToString();
        }
      } else if (p == 0) {
        outcome.checksum = record->checksum;
      } else if (record->checksum != outcome.checksum) {
        outcome.ok = false;
        outcome.error = "checksums differ between parties";
      }
      hit = hit && record->metrics.phase1_cache_hit;
      outcome.queue_s.push_back(record->queue_seconds);
      outcome.run_s.push_back(record->run_seconds);
      break;
    }
  }
  outcome.done_ns = NowNs();
  outcome.cache_hit = hit;
  return outcome;
}

}  // namespace

std::vector<JobOutcome> RunClients(const std::vector<ServiceParty*>& parties,
                                   const ClientPlan& plan,
                                   std::atomic<uint32_t>* next_job_id) {
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(plan.seconds * 1e9);
  std::atomic<size_t> sequence{0};
  std::vector<std::vector<JobOutcome>> per_client(
      static_cast<size_t>(plan.clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < plan.clients; ++c) {
    threads.emplace_back([&, c] {
      uint64_t state = plan.seed + 0x5EED0000ull + static_cast<uint64_t>(c);
      dash::Rng rng(dash::SplitMix64(&state));
      for (;;) {
        size_t cohort = 0;
        if (plan.weights.empty()) {
          cohort = sequence.fetch_add(1);
          if (cohort >= plan.cohorts.size()) break;
        } else {
          if (NowNs() >= deadline) break;
          cohort = Draw(plan.weights, &rng);
        }
        const uint32_t id = next_job_id->fetch_add(1);
        if (id > dash::kFrameMaxSessionId) break;
        dash::JobSpec spec;
        spec.job_id = id;
        spec.cohort_key = plan.cohorts[cohort];
        spec.mode = dash::AggregationMode::kMasked;
        spec.protocol_seed = plan.protocol_seed;
        spec.stream = true;
        per_client[static_cast<size_t>(c)].push_back(RunJob(parties, spec));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<JobOutcome> all;
  for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void AddServiceMetrics(const std::vector<JobOutcome>& jobs,
                       const std::vector<double>& session_open_s,
                       const std::vector<ServiceParty*>& parties,
                       MetricSet* out) {
  std::vector<double> queue_s;
  std::vector<double> run_s;
  double hits = 0.0;
  for (const JobOutcome& job : jobs) {
    queue_s.insert(queue_s.end(), job.queue_s.begin(), job.queue_s.end());
    run_s.insert(run_s.end(), job.run_s.begin(), job.run_s.end());
    if (job.cache_hit) hits += 1.0;
  }
  int64_t rejected = 0;
  for (ServiceParty* party : parties) {
    rejected += party->scheduler()->stats().rejected;
  }
  out->Add("service.queue_s_p50", Median(queue_s), "s");
  out->Add("service.run_s_p50", Median(run_s), "s");
  out->Add("service.session_open_s", Mean(session_open_s), "s");
  out->Add("service.cache_hit_frac",
           jobs.empty() ? 0.0 : hits / static_cast<double>(jobs.size()),
           "ratio");
  out->Add("service.rejected", static_cast<double>(rejected), "count");
}

}  // namespace perfbench
