// Service layer in isolation: Phase1Cache check-out/check-in + LRU,
// JobScheduler admission/cancel/deadline/shutdown against fake sessions
// and scans (plus one real scan on a single-party mesh, which needs no
// network), and the control protocol's line handling (no sockets —
// ControlServer::HandleLine is called directly).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/scan_result.h"
#include "data/workloads.h"
#include "service/control_server.h"
#include "service/job.h"
#include "service/job_scheduler.h"
#include "service/phase1_cache.h"
#include "transport/cluster_config.h"
#include "transport/frame.h"
#include "transport/party_runner.h"
#include "transport/session_mux.h"
#include "transport/tcp_transport.h"
#include "transport/transport.h"
#include "util/mutex.h"

namespace dash {
namespace {

// ---------------------------------------------------------------------
// Phase1Cache

Phase1State ValidState(uint64_t fingerprint) {
  Phase1State state;
  state.valid = true;
  state.local_fingerprint = fingerprint;
  state.total_samples = 100;
  return state;
}

TEST(Phase1CacheTest, TakeChecksOutExclusively) {
  Phase1Cache cache(4);
  cache.Put("a", ValidState(1));

  // First Take wins the entry; a concurrent same-cohort job misses and
  // recomputes instead of racing on shared state.
  const Phase1State first = cache.Take("a");
  EXPECT_TRUE(first.valid);
  const Phase1State second = cache.Take("a");
  EXPECT_FALSE(second.valid);

  const Phase1CacheStats stats = cache.stats();
  EXPECT_EQ(stats.take_hits, 1);
  EXPECT_EQ(stats.take_misses, 1);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(Phase1CacheTest, PutIgnoresInvalidStates) {
  Phase1Cache cache(4);
  cache.Put("a", Phase1State());  // never ran Phase 1: nothing to keep
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.Take("a").valid);
}

TEST(Phase1CacheTest, LruEvictsTheColdestCohort) {
  Phase1Cache cache(2);
  cache.Put("a", ValidState(1));
  cache.Put("b", ValidState(2));
  cache.Put("a", ValidState(3));  // refresh: "a" is now warmest
  cache.Put("c", ValidState(4));  // evicts "b", the coldest

  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_FALSE(cache.Take("b").valid);
  EXPECT_TRUE(cache.Take("a").valid);
  EXPECT_TRUE(cache.Take("c").valid);
}

TEST(Phase1CacheTest, InvalidateAndClearDropEntries) {
  Phase1Cache cache(4);
  cache.Put("a", ValidState(1));
  cache.Put("b", ValidState(2));
  cache.Invalidate("a");
  EXPECT_FALSE(cache.Take("a").valid);
  EXPECT_EQ(cache.stats().invalidations, 1);
  cache.Clear();
  EXPECT_FALSE(cache.Take("b").valid);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------
// JobScheduler, with a fake session factory and scan function.

class FakeTransport : public Transport {
 public:
  FakeTransport() : Transport(1) {}
  int local_party() const override { return 0; }
  Status Send(int, int, MessageTag, std::vector<uint8_t>) override {
    return Status::Ok();
  }
  Result<Message> Receive(int, int, MessageTag) override {
    return NotFoundError("fake transport holds no messages");
  }
  bool HasPending(int, int) override { return false; }
};

// Lets a test hold a "scan" mid-flight until the scheduler aborts it
// (deadline, cancel) or the test releases it.
struct JobGate {
  Mutex mu{LockRank::kLeaf};
  CondVar cv;
  Status abort_status DASH_GUARDED_BY(mu) = Status::Ok();
  bool released DASH_GUARDED_BY(mu) = false;

  void Abort(const Status& status) {
    MutexLock lock(&mu);
    abort_status = status;
    cv.NotifyAll();
  }
  void Release() {
    MutexLock lock(&mu);
    released = true;
    cv.NotifyAll();
  }
  // Blocks like a scan blocked on its transport; returns the abort
  // status (or Ok when released normally).
  Status Wait() {
    MutexLock lock(&mu);
    while (!released && abort_status.ok()) cv.Wait(&mu);
    return abort_status;
  }
};

SessionFactory GateFactory(std::shared_ptr<JobGate> gate) {
  return [gate](const JobSpec&) -> Result<ScanSession> {
    ScanSession session;
    session.transport = std::make_unique<FakeTransport>();
    session.abort = [gate](const Status& status) { gate->Abort(status); };
    return session;
  };
}

ScanFn GateScan(std::shared_ptr<JobGate> gate) {
  return [gate](Transport*, const JobSpec&,
                Phase1State*) -> Result<SecureScanOutput> {
    const Status aborted = gate->Wait();
    if (!aborted.ok()) return aborted;
    SecureScanOutput out;
    out.metrics.rounds = 5;
    out.result_checksum = ScanResultChecksum(out.result);
    return out;
  };
}

JobSpec Spec(uint32_t id, const std::string& cohort = "c") {
  JobSpec spec;
  spec.job_id = id;
  spec.cohort_key = cohort;
  return spec;
}

JobRecord WaitSettled(JobScheduler* scheduler, uint32_t id) {
  for (int i = 0; i < 2000; ++i) {
    auto record = scheduler->Query(id);
    EXPECT_TRUE(record.ok()) << record.status();
    if (!record.ok()) return JobRecord();
    if (record.value().state == JobState::kDone ||
        record.value().state == JobState::kFailed ||
        record.value().state == JobState::kCancelled) {
      return record.value();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "job " << id << " never settled";
  return JobRecord();
}

TEST(JobSchedulerTest, AdmissionControl) {
  auto gate = std::make_shared<JobGate>();
  JobSchedulerOptions options;
  options.max_concurrent = 1;
  options.max_queued = 1;
  JobScheduler scheduler(GateFactory(gate), GateScan(gate), nullptr,
                         options);

  EXPECT_EQ(scheduler.Submit(Spec(0)).code(), StatusCode::kInvalidArgument);
  JobSpec oversized = Spec(1);
  oversized.job_id = kFrameMaxSessionId + 1;
  EXPECT_EQ(scheduler.Submit(oversized).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(scheduler.Submit(Spec(1)).ok());  // occupies the worker
  EXPECT_EQ(scheduler.Submit(Spec(1)).code(), StatusCode::kAlreadyExists);

  // Wait until job 1 is RUNNING so the queue is empty for job 2.
  for (int i = 0; i < 1000; ++i) {
    if (scheduler.Query(1).value().state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(scheduler.Submit(Spec(2)).ok());  // fills the queue
  const Status full = scheduler.Submit(Spec(3));
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);
  EXPECT_NE(full.message().find("queue is full"), std::string::npos);
  // Out-of-range ids fail validation before admission; only the
  // duplicate and the overflow count as rejections.
  EXPECT_EQ(scheduler.stats().rejected, 2);

  gate->Release();
  EXPECT_EQ(WaitSettled(&scheduler, 1).state, JobState::kDone);
  EXPECT_EQ(WaitSettled(&scheduler, 2).state, JobState::kDone);
  EXPECT_EQ(scheduler.stats().completed, 2);
}

TEST(JobSchedulerTest, CancelQueuedAndRunning) {
  auto gate = std::make_shared<JobGate>();
  JobSchedulerOptions options;
  options.max_concurrent = 1;
  JobScheduler scheduler(GateFactory(gate), GateScan(gate), nullptr,
                         options);

  EXPECT_EQ(scheduler.Cancel(9).code(), StatusCode::kNotFound);

  ASSERT_TRUE(scheduler.Submit(Spec(1)).ok());
  for (int i = 0; i < 1000; ++i) {
    if (scheduler.Query(1).value().state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(scheduler.Submit(Spec(2)).ok());  // waits in the queue

  // Queued job: cancelled in place, the worker never sees it.
  ASSERT_TRUE(scheduler.Cancel(2).ok());
  EXPECT_EQ(scheduler.Query(2).value().state, JobState::kCancelled);

  // Running job: the session's abort fires and the scan unblocks.
  ASSERT_TRUE(scheduler.Cancel(1).ok());
  const JobRecord record = WaitSettled(&scheduler, 1);
  EXPECT_EQ(record.state, JobState::kCancelled);
  EXPECT_EQ(record.error.code(), StatusCode::kUnavailable);

  // A settled job cannot be cancelled again.
  EXPECT_EQ(scheduler.Cancel(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(scheduler.stats().cancelled, 2);
}

TEST(JobSchedulerTest, DeadlineFiresTheAbortPath) {
  auto gate = std::make_shared<JobGate>();
  JobSchedulerOptions options;
  options.watchdog_interval_ms = 5;
  JobScheduler scheduler(GateFactory(gate), GateScan(gate), nullptr,
                         options);

  JobSpec spec = Spec(1);
  spec.deadline_ms = 30;
  ASSERT_TRUE(scheduler.Submit(spec).ok());
  const JobRecord record = WaitSettled(&scheduler, 1);
  EXPECT_EQ(record.state, JobState::kFailed);
  EXPECT_EQ(record.error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(record.error.message().find("deadline"), std::string::npos);
}

TEST(JobSchedulerTest, ShutdownCancelsQueuedJobsAndAbortsRunning) {
  auto gate = std::make_shared<JobGate>();
  JobSchedulerOptions options;
  options.max_concurrent = 1;
  JobScheduler scheduler(GateFactory(gate), GateScan(gate), nullptr,
                         options);

  ASSERT_TRUE(scheduler.Submit(Spec(1)).ok());
  for (int i = 0; i < 1000; ++i) {
    if (scheduler.Query(1).value().state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(scheduler.Submit(Spec(2)).ok());

  scheduler.Shutdown();
  EXPECT_EQ(scheduler.Query(1).value().state, JobState::kCancelled);
  EXPECT_EQ(scheduler.Query(2).value().state, JobState::kCancelled);
  EXPECT_EQ(scheduler.Submit(Spec(3)).code(), StatusCode::kUnavailable);
}

TEST(JobSchedulerTest, CacheStateFlowsThroughRepeatJobs) {
  Phase1Cache cache(4);
  // The scan marks the state valid; a repeat job on the cohort must see
  // the previous job's state.
  Mutex mu(LockRank::kLeaf);
  std::vector<bool> seen_valid;
  const ScanFn scan = [&](Transport*, const JobSpec&,
                          Phase1State* phase1) -> Result<SecureScanOutput> {
    {
      MutexLock lock(&mu);
      seen_valid.push_back(phase1->valid);
    }
    phase1->valid = true;
    phase1->local_fingerprint = 42;
    SecureScanOutput out;
    out.metrics.phase1_cache_hit = phase1->local_fingerprint == 42;
    out.result_checksum = ScanResultChecksum(out.result);
    return out;
  };
  auto gate = std::make_shared<JobGate>();
  JobSchedulerOptions options;
  options.max_concurrent = 1;
  JobScheduler scheduler(GateFactory(gate), scan, &cache, options);

  ASSERT_TRUE(scheduler.Submit(Spec(1, "cohort")).ok());
  EXPECT_EQ(WaitSettled(&scheduler, 1).state, JobState::kDone);
  ASSERT_TRUE(scheduler.Submit(Spec(2, "cohort")).ok());
  EXPECT_EQ(WaitSettled(&scheduler, 2).state, JobState::kDone);

  // Query the cache before taking mu: kPhase1Cache (30) may not be
  // acquired while a kLeaf (90) lock is held (util/lock_rank.h).
  EXPECT_EQ(cache.stats().take_hits, 1);
  MutexLock lock(&mu);
  ASSERT_EQ(seen_valid.size(), 2u);
  EXPECT_FALSE(seen_valid[0]);  // first job: cold cache
  EXPECT_TRUE(seen_valid[1]);   // repeat job: previous state checked in
}

TEST(JobSchedulerTest, FinishedJobTableIsBoundedAndIdsStayUnique) {
  // One worker runs the jobs in submission order, so they settle in id
  // order and the oldest terminal records are the lowest ids.
  JobSchedulerOptions options;
  options.max_concurrent = 1;
  options.max_queued = 2000;
  const ScanFn instant = [](Transport*, const JobSpec&,
                            Phase1State*) -> Result<SecureScanOutput> {
    SecureScanOutput out;
    out.result_checksum = ScanResultChecksum(out.result);
    return out;
  };
  auto gate = std::make_shared<JobGate>();
  JobScheduler scheduler(GateFactory(gate), instant, nullptr, options);

  constexpr uint32_t kJobs = 1100;
  for (uint32_t id = 1; id <= kJobs; ++id) {
    ASSERT_TRUE(scheduler.Submit(Spec(id)).ok()) << "job " << id;
  }
  for (int i = 0; i < 5000 && scheduler.stats().completed < kJobs; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(scheduler.stats().completed, kJobs);

  // The newest 1,024 terminal records stay; the first 76 are dropped.
  const uint32_t dropped =
      kJobs - static_cast<uint32_t>(JobScheduler::kMaxTerminalRecords);
  ASSERT_EQ(dropped, 76u);
  for (uint32_t id = 1; id <= kJobs; ++id) {
    const Result<JobRecord> record = scheduler.Query(id);
    if (id <= dropped) {
      EXPECT_EQ(record.status().code(), StatusCode::kNotFound) << "job " << id;
    } else {
      ASSERT_TRUE(record.ok()) << "job " << id << ": " << record.status();
      EXPECT_EQ(record.value().state, JobState::kDone) << "job " << id;
    }
  }

  // A dropped record still reserves its id: reuse is rejected exactly.
  EXPECT_EQ(scheduler.Submit(Spec(1)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(scheduler.Submit(Spec(kJobs)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(scheduler.Cancel(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.stats().completed, kJobs);
}

TEST(JobSchedulerTest, DoneRecordCarriesTheRunnersResultChecksum) {
  // The daemon's stack at P = 1: RunPartySecureScan on a SessionMux
  // channel of a single-party TcpTransport, which dials no peer.
  ClusterConfig single;
  single.endpoints.push_back({"127.0.0.1", 1});  // never dialed
  auto tcp = TcpTransport::Connect(single, 0);
  ASSERT_TRUE(tcp.ok()) << tcp.status();
  SessionMux mux(tcp.value().get());

  GwasWorkloadOptions workload_options;
  workload_options.party_sizes = {80};
  workload_options.num_variants = 16;
  workload_options.num_covariates = 3;
  workload_options.num_causal = 1;
  workload_options.seed = 17;
  const ScanWorkload workload = MakeGwasWorkload(workload_options).value();
  const SecureScanOptions options;
  const auto reference = SecureAssociationScan(options).Run(workload.parties);
  ASSERT_TRUE(reference.ok()) << reference.status();

  const SessionFactory factory =
      [&mux](const JobSpec& spec) -> Result<ScanSession> {
    DASH_ASSIGN_OR_RETURN(std::unique_ptr<SessionChannel> channel,
                          mux.OpenSession(spec.job_id));
    ScanSession session;
    session.transport = std::move(channel);
    return session;
  };
  const ScanFn scan = [&](Transport* transport, const JobSpec&,
                          Phase1State* phase1) {
    return RunPartySecureScan(transport, workload.parties[0], options,
                              phase1);
  };
  JobScheduler scheduler(factory, scan, nullptr, {});
  ASSERT_TRUE(scheduler.Submit(Spec(1)).ok());
  const JobRecord record = WaitSettled(&scheduler, 1);
  EXPECT_EQ(record.state, JobState::kDone) << record.error;
  EXPECT_EQ(record.checksum, ScanResultChecksum(reference->result));
}

// ---------------------------------------------------------------------
// Control protocol (HandleLine directly; no sockets).

class ControlProtocolTest : public ::testing::Test {
 protected:
  ControlProtocolTest()
      : gate_(std::make_shared<JobGate>()),
        cache_(4),
        scheduler_(GateFactory(gate_), GateScan(gate_), &cache_, {}),
        server_(&scheduler_, &cache_, [this] { ++shutdowns_; }) {
    gate_->Release();  // scans complete immediately
  }

  std::shared_ptr<JobGate> gate_;
  Phase1Cache cache_;
  JobScheduler scheduler_;
  ControlServer server_;
  int shutdowns_ = 0;
};

TEST_F(ControlProtocolTest, PingAndUnknownVerb) {
  EXPECT_EQ(server_.HandleLine("PING"), "OK pong");
  EXPECT_EQ(server_.HandleLine("FLY"),
            "ERR InvalidArgument: unknown verb 'FLY'");
}

TEST_F(ControlProtocolTest, SubmitStatusResultRoundTrip) {
  EXPECT_EQ(server_.HandleLine("SUBMIT 1 a 32 64 3 7 masked 0"),
            "OK submitted 1");
  for (int i = 0; i < 1000; ++i) {
    if (scheduler_.Query(1).value().state == JobState::kDone) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string status = server_.HandleLine("STATUS 1");
  EXPECT_NE(status.find("OK state=done"), std::string::npos) << status;
  EXPECT_NE(status.find("cache_hit="), std::string::npos) << status;
  const std::string result = server_.HandleLine("RESULT 1");
  EXPECT_EQ(result.rfind("OK ", 0), 0u) << result;

  EXPECT_NE(server_.HandleLine("STATUS 99").find("ERR NotFound"),
            std::string::npos);
}

TEST_F(ControlProtocolTest, MalformedSubmitsAreRejected) {
  EXPECT_EQ(server_.HandleLine("SUBMIT").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(server_.HandleLine("SUBMIT 1 a 32").rfind("ERR", 0), 0u);
  const std::string bad_mode =
      server_.HandleLine("SUBMIT 1 a 32 64 3 7 quantum 0");
  EXPECT_NE(bad_mode.find("unknown mode"), std::string::npos) << bad_mode;
  // job_id 0 is the sessionless stream: rejected by the scheduler.
  EXPECT_NE(server_.HandleLine("SUBMIT 0 a 32 64 3 7 masked 0")
                .find("ERR InvalidArgument"),
            std::string::npos);
  // Shapes no cohort can have, or too large to build, are refused before
  // the job is admitted; the next valid SUBMIT is still served.
  for (const char* line : {"SUBMIT 3 c -5 96 3 42 masked 0",
                           "SUBMIT 3 c 100000000000 1000000 3 42 masked 0",
                           "SUBMIT 3 c 32 64 3 7 shamir 0",
                           "SUBMIT 3 c 32 64 3 7 masked 0 55 bogus"}) {
    const std::string reply = server_.HandleLine(line);
    EXPECT_EQ(reply.rfind("ERR InvalidArgument", 0), 0u) << line << ": "
                                                          << reply;
  }
  EXPECT_EQ(server_.HandleLine("SUBMIT 3 c 32 64 3 7 masked 0"),
            "OK submitted 3");
}

// The SUBMIT grammar has one parser (service/job.h ParseJobSpec), which
// the SUBMIT verb and `dash_partyd --simulate-job` both call: every line
// of this table is accepted by all three or refused by all three.
struct SubmitLine {
  const char* args;
  bool accepted;
};

constexpr SubmitLine kSubmitLines[] = {
    {"7 c 16 40 3 42 masked 0", true},
    {"8 c 16 40 3 42 additive 0 55", true},
    {"9 c 16 40 3 42 public 0 55 stream", true},
    {"10 c 16 40 3 42 masked 250 stream", true},
    {"11 c 16 40 3 42 masked 0 55 bogus", false},
    {"11 c 16 40 3 42 masked 0 stream 55", false},
    {"11 c 16 40 3 42 shamir 0", false},
    {"11 c 16 40 3 42 Masked 0", false},
    {"11 c 16 40 3 42 masked", false},
    {"x c 16 40 3 42 masked 0", false},
    {"", false},
};

// `dash_partyd --simulate-job <args> --parties 1`: 0 when it ran the
// job, 2 when it refused the line.
int SimulateJobExit(const std::string& args) {
  const std::string command = std::string("'") + DASH_PARTYD_PATH +
                              "' --simulate-job '" + args +
                              "' --parties 1 >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(ControlProtocolTest, SubmitAndSimulateJobShareOneGrammar) {
  for (const SubmitLine& line : kSubmitLines) {
    const Result<JobSpec> spec = ParseJobSpec(line.args);
    EXPECT_EQ(spec.ok(), line.accepted) << line.args << ": " << spec.status();
    const std::string reply =
        server_.HandleLine(std::string("SUBMIT ") + line.args);
    EXPECT_EQ(reply.rfind(line.accepted ? "OK submitted"
                                        : "ERR InvalidArgument",
                          0),
              0u)
        << line.args << ": " << reply;
    EXPECT_EQ(SimulateJobExit(line.args), line.accepted ? 0 : 2)
        << line.args;
  }
  const JobSpec spec = ParseJobSpec("9 c 16 40 3 42 additive 25 55 stream")
                           .value();
  EXPECT_EQ(spec.job_id, 9u);
  EXPECT_EQ(spec.cohort_key, "c");
  EXPECT_EQ(spec.variants, 16);
  EXPECT_EQ(spec.samples_per_party, 40);
  EXPECT_EQ(spec.covariates, 3);
  EXPECT_EQ(spec.data_seed, 42u);
  EXPECT_EQ(spec.mode, AggregationMode::kAdditive);
  EXPECT_EQ(spec.deadline_ms, 25);
  EXPECT_EQ(spec.protocol_seed, 55u);
  EXPECT_TRUE(spec.stream);
}

TEST_F(ControlProtocolTest, CancelInvalidateStatsShutdown) {
  EXPECT_NE(server_.HandleLine("CANCEL 5").find("ERR NotFound"),
            std::string::npos);
  cache_.Put("a", ValidState(1));  // so INVALIDATE has something to drop
  EXPECT_EQ(server_.HandleLine("INVALIDATE a"), "OK invalidated a");
  const std::string stats = server_.HandleLine("STATS");
  EXPECT_NE(stats.find("submitted="), std::string::npos) << stats;
  EXPECT_NE(stats.find("cache_invalidations=1"), std::string::npos)
      << stats;
  EXPECT_EQ(server_.HandleLine("SHUTDOWN"), "OK shutting-down");
  // HandleLine only ACKS; the socket loop invokes the callback, so a
  // direct call must NOT have fired it.
  EXPECT_EQ(shutdowns_, 0);
}

}  // namespace
}  // namespace dash
