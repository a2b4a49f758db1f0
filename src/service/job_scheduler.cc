#include "service/job_scheduler.h"

#include <chrono>
#include <string>
#include <utility>

#include "transport/frame.h"
#include "util/logging.h"

namespace dash {

JobScheduler::JobScheduler(SessionFactory factory, ScanFn scan,
                           Phase1Cache* cache, JobSchedulerOptions options)
    : factory_(std::move(factory)),
      scan_(std::move(scan)),
      cache_(cache),
      options_(options) {
  DASH_CHECK(factory_ != nullptr);
  DASH_CHECK(scan_ != nullptr);
  const int workers = options_.max_concurrent > 0 ? options_.max_concurrent : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

JobScheduler::~JobScheduler() { Shutdown(); }

Status JobScheduler::Submit(const JobSpec& spec) {
  if (spec.job_id == 0 || spec.job_id > kFrameMaxSessionId) {
    return InvalidArgumentError(
        "job_id must be in [1, " + std::to_string(kFrameMaxSessionId) +
        "] (it doubles as the transport session id)");
  }
  MutexLock lock(&mu_);
  if (stopping_) {
    ++stats_.rejected;
    return UnavailableError("scheduler is shutting down");
  }
  if (admitted_ids_.test(spec.job_id)) {
    ++stats_.rejected;
    return AlreadyExistsError("job " + std::to_string(spec.job_id) +
                              " already submitted");
  }
  if (queue_.size() >= static_cast<size_t>(options_.max_queued)) {
    ++stats_.rejected;
    return UnavailableError(
        "job queue is full (" + std::to_string(options_.max_queued) +
        " waiting); retry later");
  }
  JobRecord record;
  record.spec = spec;
  record.state = JobState::kQueued;
  jobs_.emplace(spec.job_id, std::move(record));
  admitted_ids_.set(spec.job_id);
  submit_times_.emplace(spec.job_id, Stopwatch());
  queue_.push_back(spec.job_id);
  ++stats_.submitted;
  stats_.queued = static_cast<int>(queue_.size());
  work_cv_.NotifyOne();
  return Status::Ok();
}

Result<JobRecord> JobScheduler::Query(uint32_t job_id) const {
  MutexLock lock(&mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return NotFoundError("no job " + std::to_string(job_id));
  }
  return it->second;
}

Status JobScheduler::Cancel(uint32_t job_id) {
  MutexLock lock(&mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return NotFoundError("no job " + std::to_string(job_id));
  }
  switch (it->second.state) {
    case JobState::kQueued: {
      for (auto q = queue_.begin(); q != queue_.end(); ++q) {
        if (*q == job_id) {
          queue_.erase(q);
          break;
        }
      }
      stats_.queued = static_cast<int>(queue_.size());
      submit_times_.erase(job_id);
      const Status cancelled =
          UnavailableError("cancelled by client while queued");
      FinishLocked(job_id, JobState::kCancelled, cancelled);
      return Status::Ok();
    }
    case JobState::kRunning: {
      auto run = running_.find(job_id);
      if (run != running_.end()) {
        run->second.cancel_requested = true;
        if (run->second.abort) {
          run->second.abort(
              UnavailableError("job " + std::to_string(job_id) +
                               " cancelled by client"));
        }
      }
      return Status::Ok();
    }
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kCancelled:
      return FailedPreconditionError("job " + std::to_string(job_id) +
                                     " is already " +
                                     JobStateName(it->second.state));
  }
  return InternalError("unreachable");
}

JobSchedulerStats JobScheduler::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void JobScheduler::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (!stopping_) {
      stopping_ = true;
      while (!queue_.empty()) {
        const uint32_t id = queue_.front();
        queue_.pop_front();
        submit_times_.erase(id);
        const Status stopping = UnavailableError("daemon shutting down");
        FinishLocked(id, JobState::kCancelled, stopping);
      }
      stats_.queued = 0;
      for (auto& [id, run] : running_) {
        (void)id;
        run.cancel_requested = true;
        if (run.abort) run.abort(UnavailableError("daemon shutting down"));
      }
    }
    work_cv_.NotifyAll();
    watchdog_cv_.NotifyAll();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

void JobScheduler::WorkerLoop() {
  for (;;) {
    uint32_t job_id = 0;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(&mu_);
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job_id = queue_.front();
      queue_.pop_front();
      stats_.queued = static_cast<int>(queue_.size());
      JobRecord& record = jobs_.at(job_id);
      record.state = JobState::kRunning;
      const auto submit = submit_times_.find(job_id);
      if (submit != submit_times_.end()) {
        record.queue_seconds = submit->second.ElapsedSeconds();
        submit_times_.erase(submit);
      }
      RunningJob run;
      run.deadline_ms = record.spec.deadline_ms;
      running_.emplace(job_id, std::move(run));
      stats_.running = static_cast<int>(running_.size());
    }
    RunJob(job_id);
  }
}

void JobScheduler::RunJob(uint32_t job_id) {
  JobSpec spec;
  {
    MutexLock lock(&mu_);
    spec = jobs_.at(job_id).spec;
  }

  // Check the cohort's Phase-1 state out for exclusive use; a fresh
  // (invalid) state simply means the scan runs the full Phase 1.
  Phase1State phase1;
  if (cache_ != nullptr) phase1 = cache_->Take(spec.cohort_key);

  Result<ScanSession> session = factory_(spec);
  if (!session.ok()) {
    if (cache_ != nullptr) cache_->Put(spec.cohort_key, std::move(phase1));
    MutexLock lock(&mu_);
    const auto run = running_.find(job_id);
    const bool cancelled =
        run != running_.end() && run->second.cancel_requested;
    if (run != running_.end()) {
      jobs_.at(job_id).run_seconds = run->second.started.ElapsedSeconds();
      running_.erase(run);
      stats_.running = static_cast<int>(running_.size());
    }
    FinishLocked(job_id, cancelled ? JobState::kCancelled : JobState::kFailed,
                 session.status());
    return;
  }

  {
    MutexLock lock(&mu_);
    const auto run = running_.find(job_id);
    if (run != running_.end()) {
      run->second.abort = session.value().abort;
      // A cancel that raced session setup lands now, before the scan
      // blocks on the transport.
      if (run->second.cancel_requested && run->second.abort) {
        run->second.abort(UnavailableError(
            "job " + std::to_string(job_id) + " cancelled by client"));
      }
    }
  }

  Result<SecureScanOutput> out =
      scan_(session.value().transport.get(), spec, &phase1);
  if (cache_ != nullptr) cache_->Put(spec.cohort_key, std::move(phase1));

  {
    MutexLock lock(&mu_);
    const auto run = running_.find(job_id);
    bool cancelled = false;
    if (run != running_.end()) {
      cancelled = run->second.cancel_requested;
      jobs_.at(job_id).run_seconds = run->second.started.ElapsedSeconds();
      running_.erase(run);
      stats_.running = static_cast<int>(running_.size());
    }
    if (out.ok()) {
      JobRecord& record = jobs_.at(job_id);
      record.checksum = out.value().result_checksum;
      record.metrics = out.value().metrics;
      if (record.metrics.phase1_cache_hit) ++stats_.phase1_cache_hits;
      FinishLocked(job_id, JobState::kDone, Status::Ok());
    } else {
      FinishLocked(job_id,
                   cancelled ? JobState::kCancelled : JobState::kFailed,
                   out.status());
    }
  }
  // `session` (and with it the SessionChannel) is destroyed here,
  // outside mu_, closing the session on the mux.
}

void JobScheduler::FinishLocked(uint32_t job_id, JobState state,
                                const Status& error) {
  JobRecord& record = jobs_.at(job_id);
  record.state = state;
  record.error = error;
  switch (state) {
    case JobState::kDone:
      ++stats_.completed;
      break;
    case JobState::kFailed:
      ++stats_.failed;
      DASH_LOG(Warning) << "job " << job_id << " failed: " << error;
      break;
    case JobState::kCancelled:
      ++stats_.cancelled;
      break;
    default:
      break;
  }
  terminal_order_.push_back(job_id);
  if (terminal_order_.size() > kMaxTerminalRecords) {
    jobs_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
}

void JobScheduler::WatchdogLoop() {
  for (;;) {
    MutexLock lock(&mu_);
    // Own condition variable: sharing work_cv_ would let the watchdog
    // steal Submit's notify_one and leave a worker asleep with a job
    // queued (there is no later notify to recover it).
    const auto poll_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.watchdog_interval_ms);
    while (!stopping_ && watchdog_cv_.WaitUntil(&mu_, poll_deadline) !=
                             std::cv_status::timeout) {
    }
    if (stopping_) return;
    for (auto& [id, run] : running_) {
      if (run.deadline_ms <= 0 || run.deadline_fired) continue;
      if (run.started.ElapsedMillis() <
          static_cast<double>(run.deadline_ms)) {
        continue;
      }
      run.deadline_fired = true;
      if (run.abort) {
        run.abort(DeadlineExceededError(
            "job " + std::to_string(id) + ": deadline of " +
            std::to_string(run.deadline_ms) + " ms exceeded"));
      }
    }
  }
}

}  // namespace dash
