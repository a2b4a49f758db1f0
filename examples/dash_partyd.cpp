// dash_partyd: ONE party of the secure association scan as a RESIDENT
// daemon. Where dash_party connects, runs one scan, and exits,
// dash_partyd keeps the TCP mesh up, multiplexes any number of
// concurrent scan sessions over it (transport/session_mux.h), and takes
// scan jobs over a small line-based control API (service/
// control_server.h) until told to SHUTDOWN:
//
//   $ dash_partyd --party 0 --cluster 127.0.0.1:7101,... --control-port 7201 &
//   $ dash_partyd --party 1 --cluster 127.0.0.1:7101,... --control-port 7202 &
//   $ dash_partyd --party 2 --cluster 127.0.0.1:7101,... --control-port 7203 &
//   $ tools/dash_jobctl.py --ports 7201,7202,7203 submit --job 1 --cohort a
//
// Clients submit the SAME job (same job_id = session id, same spec) to
// every party's daemon; each daemon derives its own slice of the
// deterministic synthetic cohort from the spec, so the revealed result
// and checksum are bit-identical across daemons AND to the in-process
// simulator (`--simulate-job` prints the reference checksum).
//
// Repeat jobs on one cohort_key reuse the pooled-QR Phase-1 state
// (service/phase1_cache.h) and skip Phase 1; watch `cache_hit=1` and
// the smaller `rounds=` in STATUS output.
//
// If a peer daemon dies, only the scan sessions that were running are
// failed; queued jobs wait while this daemon re-establishes the mesh
// (retrying until the peer returns) and then run normally.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/secure_scan.h"
#include "data/panel_stream.h"
#include "data/workloads.h"
#include "linalg/packed_matrix.h"
#include "service/control_server.h"
#include "service/job.h"
#include "service/job_scheduler.h"
#include "service/phase1_cache.h"
#include "transport/cluster_config.h"
#include "transport/party_runner.h"
#include "transport/session_mux.h"
#include "transport/tcp_transport.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/strings.h"

namespace {

using namespace dash;

// ---------------------------------------------------------------------
// JobSpec -> workload / options. ONE definition shared by the daemon
// path and the --simulate-job reference path, so both derive the exact
// same cohort and protocol configuration from a spec.

Result<ScanWorkload> WorkloadForSpec(const JobSpec& spec, int num_parties) {
  GwasWorkloadOptions data;
  data.party_sizes.assign(static_cast<size_t>(num_parties),
                          spec.samples_per_party);
  data.num_variants = spec.variants;
  data.num_covariates = spec.covariates;
  data.num_causal = spec.variants < 2 ? spec.variants : 2;
  data.seed = spec.data_seed;
  return MakeGwasWorkload(data);
}

SecureScanOptions ScanOptionsForSpec(const JobSpec& spec) {
  SecureScanOptions options;
  options.aggregation = spec.mode;
  options.seed = spec.protocol_seed;
  return options;
}

// Knobs for streamed jobs (spec.stream), set by daemon flags: where the
// packed studies and checkpoints live, how often the scan checkpoints,
// and an optional per-panel delay so the kill smokes can reliably
// SIGKILL a daemon mid-stream.
struct StreamingConfig {
  std::string checkpoint_dir;
  int64_t checkpoint_every_panels = 1;
  int64_t panel_delay_ms = 0;
};

// The streamed side of the scheduler's ScanFn: derive this party's
// cohort slice exactly like the in-memory path, pack it to a DASHPACK
// study on first touch (a restarted daemon finds the prior file — the
// fingerprint check guarantees it is byte-for-byte the same study and
// therefore that any leftover checkpoint is resumable), then stream the
// panels through the checkpointed scan loop.
Result<SecureScanOutput> RunStreamedJob(Transport* transport,
                                        const JobSpec& spec, int party,
                                        int num_parties,
                                        const StreamingConfig& config,
                                        Phase1State* phase1) {
  if (config.checkpoint_dir.empty()) {
    return FailedPreconditionError(
        "job asks for streaming but this daemon was started without "
        "--checkpoint-dir");
  }
  DASH_ASSIGN_OR_RETURN(ScanWorkload workload,
                        WorkloadForSpec(spec, num_parties));
  PartyData mine =
      std::move(workload.parties[static_cast<size_t>(party)]);
  std::optional<PackedGenotypeMatrix> packed =
      PackedGenotypeMatrix::TryFromDense(mine.x);
  if (!packed.has_value()) {
    return InvalidArgumentError(
        "streamed job: cohort genotypes are not 2-bit hard calls");
  }
  const uint64_t tag = spec.data_seed;
  const uint64_t fingerprint = StudyFingerprint(*packed, mine.y, mine.c, tag);
  const std::string stem = config.checkpoint_dir + "/" + spec.cohort_key +
                           "_p" + std::to_string(party);
  const std::string study_path = stem + ".dpk";
  bool have_study = false;
  {
    auto existing = PackedStudyReader::Open(study_path);
    have_study =
        existing.ok() && existing.value()->fingerprint() == fingerprint;
  }
  if (!have_study) {
    DASH_RETURN_IF_ERROR(
        WritePackedStudy(study_path, *packed, mine.y, mine.c, tag));
  }
  DASH_ASSIGN_OR_RETURN(std::unique_ptr<PackedStudyReader> reader,
                        PackedStudyReader::Open(study_path));
  StreamingPartyScan stream;
  stream.source = reader.get();
  stream.checkpoint_path = stem + ".dck";
  stream.checkpoint_every_panels = config.checkpoint_every_panels;
  stream.panel_delay_ms = config.panel_delay_ms;
  return RunPartySecureScanStreamed(transport, reader->phenotype(),
                                    reader->covariates(), stream,
                                    ScanOptionsForSpec(spec), phase1);
}

// ---------------------------------------------------------------------
// Mesh management: one TCP connection per peer, shared by every job
// through the SessionMux. A dead link fails only the open sessions; the
// daemon then drops the mesh and re-dials until the peer comes back, so
// queued jobs survive a peer crash + restart.

struct Mesh {
  std::unique_ptr<TcpTransport> tcp;
  std::unique_ptr<SessionMux> mux;
};

// The per-job transport the scheduler's ScanFn runs on: forwards to the
// job's SessionChannel while (a) keeping the whole Mesh alive through a
// shared_ptr — a remesh must not pull the mux out from under a running
// scan — and (b) mirroring traffic into its OWN TrafficMetrics so the
// job's metrics are attributable (party_runner reads the metrics of the
// transport it is handed).
class JobTransport : public Transport {
 public:
  JobTransport(std::shared_ptr<Mesh> mesh,
               std::unique_ptr<SessionChannel> channel)
      : Transport(channel->num_parties()),
        mesh_(std::move(mesh)),
        channel_(std::move(channel)) {}

  int local_party() const override { return channel_->local_party(); }
  uint32_t session_id() const override { return channel_->session_id(); }

  Status Send(int from, int to, MessageTag tag,
              std::vector<uint8_t> payload) override {
    const size_t payload_bytes = payload.size();
    DASH_RETURN_IF_ERROR(channel_->Send(from, to, tag, std::move(payload)));
    RecordSend(from, to, tag, payload_bytes);
    return Status::Ok();
  }

  Result<Message> Receive(int to, int from, MessageTag expected_tag) override {
    return channel_->Receive(to, from, expected_tag);
  }

  bool HasPending(int to, int from) override {
    return channel_->HasPending(to, from);
  }

  void BeginRound() override {
    Transport::BeginRound();
    channel_->BeginRound();
  }

  SessionChannel* channel() { return channel_.get(); }

 private:
  std::shared_ptr<Mesh> mesh_;
  std::unique_ptr<SessionChannel> channel_;
};

class MeshManager {
 public:
  MeshManager(ClusterConfig cluster, int party, TcpTransportOptions tcp)
      : cluster_(std::move(cluster)), party_(party), tcp_options_(tcp) {}

  ~MeshManager() { Shutdown(); }

  // Eager first connect (full connect timeout), then starts the monitor
  // thread, which from then on is the ONLY dialer: it watches link
  // health and re-dials a torn mesh until the peers come back. Eager
  // re-dialing matters for recovery — a restarted peer's own Connect
  // can only complete once the survivors dial too, so waiting for the
  // next job to notice the dead link would deadlock the restart.
  Status Connect() {
    auto mesh = Dial(tcp_options_);
    if (!mesh.ok()) return mesh.status();
    {
      MutexLock lock(&mu_);
      mesh_ = std::move(mesh).value();
    }
    monitor_ = std::thread([this] { MonitorLoop(); });
    return Status::Ok();
  }

  void Shutdown() {
    {
      MutexLock lock(&mu_);
      shutting_down_ = true;
      mesh_.reset();
      mesh_cv_.NotifyAll();
    }
    if (monitor_.joinable()) monitor_.join();
  }

  // The scheduler's SessionFactory: opens the job's session on the
  // current mesh, waiting (bounded) for the monitor to restore a torn
  // one. Runs on a worker thread; blocking here delays jobs, it never
  // fails the daemon.
  Result<ScanSession> OpenJobSession(const JobSpec& spec) {
    const Stopwatch waited;
    for (;;) {
      std::shared_ptr<Mesh> mesh;
      {
        MutexLock lock(&mu_);
        const auto poll_deadline = std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(200);
        while (!shutting_down_ && mesh_ == nullptr &&
               mesh_cv_.WaitUntil(&mu_, poll_deadline) !=
                   std::cv_status::timeout) {
        }
        if (shutting_down_) {
          return UnavailableError("daemon shutting down");
        }
        mesh = mesh_;
      }
      if (mesh == nullptr || !mesh->mux->LinkHealth().ok()) {
        if (waited.ElapsedSeconds() * 1e3 >
            static_cast<double>(remesh_budget_ms_)) {
          return UnavailableError("mesh down for " +
                                  std::to_string(remesh_budget_ms_) +
                                  " ms; giving up on job " +
                                  std::to_string(spec.job_id));
        }
        continue;  // monitor is re-dialing
      }

      Result<std::unique_ptr<SessionChannel>> channel =
          mesh->mux->OpenSession(spec.job_id);
      if (!channel.ok()) {
        if (channel.status().code() == StatusCode::kAlreadyExists) {
          return channel.status();  // client reused a live job id
        }
        // Mux raced link death / teardown: loop for the next mesh.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      auto transport = std::make_unique<JobTransport>(
          mesh, std::move(channel).value());
      ScanSession session;
      SessionChannel* raw = transport->channel();
      session.transport = std::move(transport);
      // Safe lifetime: the scheduler only invokes abort while the job is
      // in its running table, which it leaves before the transport (and
      // channel) is destroyed.
      session.abort = [raw](const Status& status) { raw->Abort(status); };
      return session;
    }
  }

 private:
  Result<std::shared_ptr<Mesh>> Dial(const TcpTransportOptions& options) {
    auto tcp = TcpTransport::Connect(cluster_, party_, options);
    if (!tcp.ok()) return tcp.status();
    auto mesh = std::make_shared<Mesh>();
    mesh->tcp = std::move(tcp).value();
    SessionMuxOptions mux_options;
    mux_options.receive_timeout_ms = tcp_options_.receive_timeout_ms;
    mesh->mux = std::make_unique<SessionMux>(mesh->tcp.get(), mux_options);
    return mesh;
  }

  void MonitorLoop() {
    // Short per-attempt deadline so a dead peer does not pin one dial
    // for the full connect timeout; the loop itself retries forever.
    TcpTransportOptions redial = tcp_options_;
    if (redial.connect_timeout_ms > 3000) redial.connect_timeout_ms = 3000;
    for (;;) {
      {
        MutexLock lock(&mu_);
        const auto poll_deadline = std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(300);
        while (!shutting_down_ &&
               mesh_cv_.WaitUntil(&mu_, poll_deadline) !=
                   std::cv_status::timeout) {
        }
        if (shutting_down_) return;
        if (mesh_ != nullptr) {
          const Status health = mesh_->mux->LinkHealth();
          if (health.ok()) continue;
          DASH_LOG(Warning) << "[partyd " << party_ << "] mesh lost ("
                            << health << "); re-dialing peers";
          // Running sessions were already failed by the mux; the old
          // mesh dies when the last JobTransport releases it.
          mesh_.reset();
        }
      }
      auto mesh = Dial(redial);
      MutexLock lock(&mu_);
      if (shutting_down_) return;
      if (mesh.ok() && mesh_ == nullptr) {
        mesh_ = std::move(mesh).value();
        // stderr (not DASH_LOG) so the kill smoke can grep it at any
        // log level, like the startup "mesh up" line.
        std::fprintf(stderr, "[partyd %d] mesh restored (%d parties)\n",
                     party_, cluster_.num_parties());
        mesh_cv_.NotifyAll();
      }
    }
  }

  const ClusterConfig cluster_;
  const int party_;
  const TcpTransportOptions tcp_options_;
  const int64_t remesh_budget_ms_ = 120000;

  // Rank kMeshManager nests OUTSIDE kSessionMux: the monitor probes
  // LinkHealth() and Shutdown/remesh destroy the mux under mu_.
  Mutex mu_{LockRank::kMeshManager};
  CondVar mesh_cv_;
  bool shutting_down_ DASH_GUARDED_BY(mu_) = false;
  std::shared_ptr<Mesh> mesh_ DASH_GUARDED_BY(mu_);
  std::thread monitor_;
};

// ---------------------------------------------------------------------

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: dash_partyd --party P (--cluster h:p,h:p,... | --config FILE)\n"
      "                   --control-port PORT [--control-host H]\n"
      "                   [--max-concurrent N] [--max-queued N]\n"
      "                   [--cache-entries N]\n"
      "                   [--checkpoint-dir DIR] [--checkpoint-every K]\n"
      "                   [--stream-delay-ms T]\n"
      "                   [--connect-timeout-ms T] [--receive-timeout-ms T]\n"
      "       dash_partyd --simulate-job \"<submit-args>\" --parties P\n"
      "\n"
      "--checkpoint-dir enables streamed jobs (SUBMIT's trailing 'stream'\n"
      "token): the cohort is packed to DIR as a DASHPACK study and the\n"
      "scan checkpoints its accumulators there every K panels, so a\n"
      "killed+restarted daemon resumes the job instead of recomputing.\n"
      "--stream-delay-ms stretches each panel (crash-test knob).\n"
      "\n"
      "--simulate-job runs the job in-process (the simulator) and prints\n"
      "the reference checksum; <submit-args> are the SUBMIT verb's\n"
      "arguments, e.g. \"7 cohortA 64 96 3 42 masked 0\". A trailing\n"
      "'stream' token is accepted and ignored: streamed results are\n"
      "bit-identical, so the reference checksum is the same.\n");
}

int SimulateJob(const std::string& args, int parties) {
  const Result<JobSpec> parsed = ParseJobSpec(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "--simulate-job \"%s\": %s\n", args.c_str(),
                 parsed.status().ToString().c_str());
    return 2;
  }
  const JobSpec& spec = parsed.value();
  const Status valid = ValidateJobSpec(spec, parties);
  if (!valid.ok()) {
    std::fprintf(stderr, "--simulate-job: %s\n", valid.ToString().c_str());
    return 2;
  }
  auto workload = WorkloadForSpec(spec, parties);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  const auto out =
      SecureAssociationScan(ScanOptionsForSpec(spec))
          .Run(workload.value().parties);
  if (!out.ok()) {
    std::fprintf(stderr, "simulate: %s\n", out.status().ToString().c_str());
    return 1;
  }
  std::printf("job %u checksum %" PRIu64 "\n", spec.job_id,
              out.value().result_checksum);
  return 0;
}

int RealMain(int argc, char** argv) {
  int party = -1;
  ClusterConfig cluster;
  TcpTransportOptions tcp_options;
  ControlServerOptions control_options;
  JobSchedulerOptions scheduler_options;
  StreamingConfig streaming;
  int64_t cache_entries = 8;
  std::string simulate_args;
  int64_t simulate_parties = 3;
  bool simulate = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const auto next_i64 = [&](int64_t* out) {
      const char* value = next();
      if (value == nullptr) return false;
      auto parsed = ParseInt64(value);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                     parsed.status().ToString().c_str());
        return false;
      }
      *out = parsed.value();
      return true;
    };
    int64_t v = 0;
    if (arg == "--party") {
      if (!next_i64(&v)) return 2;
      party = static_cast<int>(v);
    } else if (arg == "--cluster") {
      const char* value = next();
      if (value == nullptr) return 2;
      auto parsed = ParseClusterList(value);
      if (!parsed.ok()) {
        std::fprintf(stderr, "--cluster: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      cluster = std::move(parsed).value();
    } else if (arg == "--config") {
      const char* value = next();
      if (value == nullptr) return 2;
      auto parsed = LoadClusterConfig(value);
      if (!parsed.ok()) {
        std::fprintf(stderr, "--config: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      cluster = std::move(parsed).value();
    } else if (arg == "--control-port") {
      if (!next_i64(&v)) return 2;
      control_options.port = static_cast<uint16_t>(v);
    } else if (arg == "--control-host") {
      const char* value = next();
      if (value == nullptr) return 2;
      control_options.host = value;
    } else if (arg == "--max-concurrent") {
      if (!next_i64(&v)) return 2;
      scheduler_options.max_concurrent = static_cast<int>(v);
    } else if (arg == "--max-queued") {
      if (!next_i64(&v)) return 2;
      scheduler_options.max_queued = static_cast<int>(v);
    } else if (arg == "--cache-entries") {
      if (!next_i64(&cache_entries)) return 2;
    } else if (arg == "--checkpoint-dir") {
      const char* value = next();
      if (value == nullptr) return 2;
      streaming.checkpoint_dir = value;
    } else if (arg == "--checkpoint-every") {
      if (!next_i64(&streaming.checkpoint_every_panels)) return 2;
    } else if (arg == "--stream-delay-ms") {
      if (!next_i64(&streaming.panel_delay_ms)) return 2;
    } else if (arg == "--connect-timeout-ms") {
      if (!next_i64(&v)) return 2;
      tcp_options.connect_timeout_ms = static_cast<int>(v);
    } else if (arg == "--receive-timeout-ms") {
      if (!next_i64(&v)) return 2;
      tcp_options.receive_timeout_ms = static_cast<int>(v);
    } else if (arg == "--simulate-job") {
      const char* value = next();
      if (value == nullptr) return 2;
      simulate_args = value;
      simulate = true;
    } else if (arg == "--parties") {
      if (!next_i64(&v)) return 2;
      simulate_parties = v;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  if (simulate) {
    return SimulateJob(simulate_args, static_cast<int>(simulate_parties));
  }

  if (cluster.num_parties() == 0) {
    std::fprintf(stderr, "one of --cluster or --config is required\n");
    PrintUsage();
    return 2;
  }
  if (party < 0 || party >= cluster.num_parties()) {
    std::fprintf(stderr, "--party must be in [0, %d)\n",
                 cluster.num_parties());
    return 2;
  }

  MeshManager mesh(cluster, party, tcp_options);
  std::fprintf(stderr, "[partyd %d] connecting to %d peers...\n", party,
               cluster.num_parties() - 1);
  const Status connected = mesh.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "[partyd %d] connect: %s\n", party,
                 connected.ToString().c_str());
    return 1;
  }

  Phase1Cache cache(static_cast<size_t>(cache_entries));
  const int num_parties = cluster.num_parties();
  JobScheduler scheduler(
      [&mesh](const JobSpec& spec) { return mesh.OpenJobSession(spec); },
      [party, num_parties, streaming](Transport* transport,
                                      const JobSpec& spec,
                                      Phase1State* phase1)
          -> Result<SecureScanOutput> {
        if (spec.stream) {
          return RunStreamedJob(transport, spec, party, num_parties,
                                streaming, phase1);
        }
        DASH_ASSIGN_OR_RETURN(ScanWorkload workload,
                              WorkloadForSpec(spec, num_parties));
        return RunPartySecureScan(
            transport, workload.parties[static_cast<size_t>(party)],
            ScanOptionsForSpec(spec), phase1);
      },
      &cache, scheduler_options);

  Mutex shutdown_mu(LockRank::kLeaf);
  CondVar shutdown_cv;
  bool shutdown_requested = false;
  control_options.num_parties = num_parties;
  ControlServer control(&scheduler, &cache,
                        [&] {
                          MutexLock lock(&shutdown_mu);
                          shutdown_requested = true;
                          shutdown_cv.NotifyAll();
                        },
                        control_options);
  const Status started = control.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "[partyd %d] control: %s\n", party,
                 started.ToString().c_str());
    return 1;
  }

  // The line smoke tests grep for: mesh up + control port, one line.
  std::fprintf(stderr,
               "[partyd %d] mesh up; control listening on %s:%u "
               "(max %d concurrent, %d queued)\n",
               party, control_options.host.c_str(), control.port(),
               scheduler_options.max_concurrent,
               scheduler_options.max_queued);

  {
    MutexLock lock(&shutdown_mu);
    while (!shutdown_requested) shutdown_cv.Wait(&shutdown_mu);
  }
  std::fprintf(stderr, "[partyd %d] SHUTDOWN received; draining...\n", party);
  control.Stop();
  scheduler.Shutdown();
  mesh.Shutdown();
  std::fprintf(stderr, "[partyd %d] bye\n", party);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
