// Admission control and execution for the resident daemon's scan jobs.
//
// The scheduler owns a small worker pool (max_concurrent sessions on
// the mesh) and a bounded FIFO queue; beyond both, Submit rejects with
// Unavailable — the client retries later, the mesh is never
// oversubscribed. Each admitted job:
//
//   1. waits in the queue for a worker (state kQueued);
//   2. checks its cohort's Phase-1 state out of the Phase1Cache;
//   3. opens its own transport session via the injected SessionFactory
//      (in the daemon: SessionMux::OpenSession(job_id) on the shared
//      mesh) and runs the injected ScanFn on it (state kRunning);
//   4. checks the refreshed Phase-1 state back in and lands in kDone /
//      kFailed / kCancelled, with per-job metrics attributed by the
//      session's own TrafficMetrics.
//
// Deadlines and cancellation ride the existing abort path: the
// watchdog (per-job deadline_ms) and Cancel() invoke the session's
// abort hook, which poisons ONLY that session — the running scan fails
// with the given status, its abort broadcast fails the same session at
// the peers, and every other job on the mesh is untouched.
//
// The scheduler is deliberately transport- and protocol-agnostic (both
// are injected) so tests drive it with a single-party mesh or a fake
// scan without a daemon around it.

#ifndef DASH_SERVICE_JOB_SCHEDULER_H_
#define DASH_SERVICE_JOB_SCHEDULER_H_

#include <bitset>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "service/job.h"
#include "service/phase1_cache.h"
#include "transport/frame.h"
#include "transport/transport.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace dash {

// One job's live protocol endpoint, as produced by the SessionFactory.
struct ScanSession {
  // Party-bound, session-scoped transport the scan runs on. Owned by
  // the job for its duration.
  std::unique_ptr<Transport> transport;

  // Poisons the session with the given status (deadline, cancel,
  // shutdown); must be safe to call from another thread while the scan
  // is blocked in the transport, and after the scan returned. May be
  // empty when the backend cannot abort (the job then runs to its
  // transport timeout instead).
  std::function<void(const Status&)> abort;
};

// Opens the per-job session; called on the worker thread, may block
// (e.g. while the daemon re-establishes a torn mesh).
using SessionFactory = std::function<Result<ScanSession>(const JobSpec&)>;

// Runs one party's scan for `spec` over the session transport, with
// the checked-out Phase-1 state (never null). The daemon binds this to
// RunPartySecureScan over the spec's synthetic cohort. The output's
// result_checksum must be ScanResultChecksum(result), as the runner
// fills it: the scheduler reports it as the job's checksum without
// hashing the result again.
using ScanFn = std::function<Result<SecureScanOutput>(
    Transport*, const JobSpec&, Phase1State*)>;

struct JobSchedulerOptions {
  // Worker pool size = concurrent sessions on the mesh.
  int max_concurrent = 4;

  // Jobs waiting beyond the running ones; Submit rejects past this.
  int max_queued = 16;

  // Deadline-watchdog poll interval.
  int watchdog_interval_ms = 20;
};

struct JobSchedulerStats {
  int64_t submitted = 0;
  int64_t rejected = 0;   // queue-full / duplicate-id submissions
  int64_t completed = 0;  // kDone
  int64_t failed = 0;     // kFailed
  int64_t cancelled = 0;  // kCancelled
  int64_t phase1_cache_hits = 0;
  int running = 0;
  int queued = 0;
};

class JobScheduler {
 public:
  // Terminal (done, failed, cancelled) records kept for Query; beyond
  // this the oldest terminal record is dropped, so a resident daemon's
  // job table stays bounded however many jobs it completes.
  static constexpr size_t kMaxTerminalRecords = 1024;

  // `cache` may be null (Phase-1 caching disabled); when non-null it
  // must outlive the scheduler.
  JobScheduler(SessionFactory factory, ScanFn scan, Phase1Cache* cache,
               JobSchedulerOptions options = {});

  // Shutdown() + join.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  // Admits `spec` (client-chosen job_id in 1..kFrameMaxSessionId).
  // InvalidArgument on a bad id, AlreadyExists on an id this scheduler
  // ever admitted (its record may since have been dropped), Unavailable
  // when the queue is full or the scheduler is stopping.
  Status Submit(const JobSpec& spec);

  // Snapshot of the job's record; NotFound for unknown ids and for
  // terminal records dropped beyond kMaxTerminalRecords.
  Result<JobRecord> Query(uint32_t job_id) const;

  // Queued jobs leave the queue immediately; running jobs have their
  // session aborted and settle as kCancelled shortly after. NotFound
  // for unknown ids, FailedPrecondition for already-terminal jobs.
  Status Cancel(uint32_t job_id);

  JobSchedulerStats stats() const;

  // Rejects new work, cancels the queue, aborts running sessions with
  // Unavailable, joins all threads. Idempotent.
  void Shutdown();

 private:
  struct RunningJob {
    std::function<void(const Status&)> abort;
    Stopwatch started;
    int64_t deadline_ms = 0;
    bool cancel_requested = false;
    bool deadline_fired = false;
  };

  void WorkerLoop();
  void WatchdogLoop();
  void RunJob(uint32_t job_id);
  // Moves a job to its terminal state and updates counters.
  void FinishLocked(uint32_t job_id, JobState state, const Status& error)
      DASH_REQUIRES(mu_);

  const SessionFactory factory_;
  const ScanFn scan_;
  Phase1Cache* const cache_;
  const JobSchedulerOptions options_;

  // Rank kJobScheduler nests OUTSIDE kSessionMux: Cancel/Shutdown/the
  // watchdog call a running job's abort hook (SessionChannel::Abort
  // takes the mux lock) while holding mu_.
  mutable Mutex mu_{LockRank::kJobScheduler};
  CondVar work_cv_;      // workers: queue / stopping
  CondVar watchdog_cv_;  // watchdog only (see WatchdogLoop)
  bool stopping_ DASH_GUARDED_BY(mu_) = false;
  std::map<uint32_t, JobRecord> jobs_ DASH_GUARDED_BY(mu_);
  // Terminal job ids in the order they settled; the front is dropped
  // from jobs_ first.
  std::deque<uint32_t> terminal_order_ DASH_GUARDED_BY(mu_);
  // Every id ever admitted (ids are u16 session ids), so that duplicate
  // rejection stays exact after a record is dropped.
  std::bitset<kFrameMaxSessionId + 1> admitted_ids_ DASH_GUARDED_BY(mu_);
  std::map<uint32_t, Stopwatch> submit_times_ DASH_GUARDED_BY(mu_);
  std::deque<uint32_t> queue_ DASH_GUARDED_BY(mu_);
  std::map<uint32_t, RunningJob> running_ DASH_GUARDED_BY(mu_);
  JobSchedulerStats stats_ DASH_GUARDED_BY(mu_);

  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace dash

#endif  // DASH_SERVICE_JOB_SCHEDULER_H_
