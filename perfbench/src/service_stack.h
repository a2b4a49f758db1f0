// One party's resident scan service, assembled from the library's
// public pieces the way dash_partyd assembles it (SessionMux over the
// party's mesh, a Phase1Cache, a JobScheduler whose jobs run
// RunPartySecureScanStreamed on their own session), plus the
// closed-loop clients that drive P such stacks.
//
// Jobs scan pre-written DASHPACK cohort files: nothing is generated
// inside a job. When tracing is switched on, each job's session is
// wrapped in a TimedTransport and its spans land in the shared sink.

#ifndef PERFBENCH_SERVICE_STACK_H_
#define PERFBENCH_SERVICE_STACK_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scan_result.h"
#include "common.h"
#include "metrics.h"
#include "service/job_scheduler.h"
#include "service/phase1_cache.h"
#include "timed_transport.h"
#include "transport/session_mux.h"
#include "util/mutex.h"

namespace perfbench {

// State the P stacks of one run share with the workload code.
class ServiceHooks {
 public:
  std::atomic<bool> tracing{false};
  SpanSink sink;

  void RecordSessionOpen(double seconds);
  std::vector<double> TakeSessionOpenTimes();

  // Keeps the first result seen for each cohort (party 0's), so the
  // workload can check it against the pooled plaintext fit.
  void CaptureResult(const std::string& cohort, const dash::ScanResult& result);
  bool CapturedResult(const std::string& cohort, dash::ScanResult* out) const;

  void RecordError(const std::string& error);
  std::string FirstError() const;

 private:
  mutable dash::Mutex mu_{dash::LockRank::kLeaf};
  std::vector<double> session_open_s_ DASH_GUARDED_BY(mu_);
  std::map<std::string, dash::ScanResult> results_ DASH_GUARDED_BY(mu_);
  std::string first_error_ DASH_GUARDED_BY(mu_);
};

struct ServiceOptions {
  int max_concurrent = 4;
  size_t cache_entries = 8;
};

class ServiceParty {
 public:
  // `mesh` (borrowed) is this party's established TcpTransport;
  // cohort_paths maps a cohort key to this party's study file.
  ServiceParty(int party, dash::Transport* mesh,
               std::map<std::string, std::string> cohort_paths,
               const ServiceOptions& options, ServiceHooks* hooks);
  ServiceParty(const ServiceParty&) = delete;
  ServiceParty& operator=(const ServiceParty&) = delete;

  dash::JobScheduler* scheduler() { return scheduler_.get(); }

 private:
  dash::Result<dash::ScanSession> OpenSession(const dash::JobSpec& spec);
  dash::Result<dash::SecureScanOutput> Scan(dash::Transport* transport,
                                            const dash::JobSpec& spec,
                                            dash::Phase1State* phase1);

  const int party_;
  const std::map<std::string, std::string> cohort_paths_;
  ServiceHooks* const hooks_;
  // Destroyed bottom-up: the scheduler's workers stop before the mux
  // that carries their sessions.
  dash::SessionMux mux_;
  dash::Phase1Cache cache_;
  std::unique_ptr<dash::JobScheduler> scheduler_;
};

// One job as the client saw it across all parties.
struct JobOutcome {
  uint32_t job_id = 0;
  std::string cohort;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;  // terminal at every party
  bool ok = false;      // done at every party with agreeing checksums
  std::string error;
  uint64_t checksum = 0;
  bool cache_hit = false;  // Phase 1 skipped (all-or-nothing)
  std::vector<double> queue_s;  // per party
  std::vector<double> run_s;    // per party

  double latency_s() const { return NsToSeconds(done_ns - submit_ns); }
};

struct ClientPlan {
  std::vector<std::string> cohorts;
  // Draw probabilities per cohort; empty = every cohort once, in order.
  std::vector<double> weights;
  int clients = 1;
  double seconds = 0.0;  // weighted plans stop submitting after this
  uint64_t seed = 1;
  uint64_t protocol_seed = 1;
};

// Closed loop: each client submits one job to every party, waits until
// it is terminal everywhere, then submits the next. Job ids come from
// `next_job_id` (they double as session ids, so they stay unique).
std::vector<JobOutcome> RunClients(const std::vector<ServiceParty*>& parties,
                                   const ClientPlan& plan,
                                   std::atomic<uint32_t>* next_job_id);

// service.* metrics: per-(job, party) median queue and run time, mean
// session-open time, the share of jobs that skipped Phase 1, and the
// schedulers' rejected submissions.
void AddServiceMetrics(const std::vector<JobOutcome>& jobs,
                       const std::vector<double>& session_open_s,
                       const std::vector<ServiceParty*>& parties,
                       MetricSet* out);

}  // namespace perfbench

#endif  // PERFBENCH_SERVICE_STACK_H_
