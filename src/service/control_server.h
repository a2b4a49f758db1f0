// dash_partyd's client API: a line-oriented text protocol on a local
// TCP socket (loopback by default). One request line in, one response
// line out; responses start with `OK ` or `ERR `.
//
//   PING
//   SUBMIT <job_id> <cohort> <variants> <samples> <covariates>
//          <data_seed> <mode> <deadline_ms> [protocol_seed] [stream]
//                          (service/job.h ParseJobSpec)
//   STATUS <job_id>        -> OK state=... checksum=... cache_hit=...
//   RESULT <job_id>        -> OK <checksum-hex>   (only when done)
//   CANCEL <job_id>
//   INVALIDATE <cohort>    -> drop the cohort's Phase-1 cache entry
//   STATS                  -> scheduler + cache counters, k=v pairs
//   SHUTDOWN               -> acknowledge, then stop the daemon
//
// The server is a thin adapter: every verb maps 1:1 onto JobScheduler /
// Phase1Cache calls, so the protocol carries no state of its own and a
// later RPC transport only has to re-wrap the same calls. Threading is
// accept-loop + thread-per-connection; fine for a control plane that
// sees tens of requests per second, not a data path.

#ifndef DASH_SERVICE_CONTROL_SERVER_H_
#define DASH_SERVICE_CONTROL_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "service/job_scheduler.h"
#include "service/phase1_cache.h"
#include "util/mutex.h"
#include "util/status.h"

namespace dash {

struct ControlServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; port() reports the bound one
  // Parties in the daemon's cluster: SUBMIT checks a job's cohort size
  // against ValidateJobSpec for this many parties.
  int num_parties = 1;
};

class ControlServer {
 public:
  // `scheduler` must outlive the server; `cache` may be null (the
  // INVALIDATE verb and cache counters then report unavailable);
  // `on_shutdown` runs once when a client issues SHUTDOWN (after the
  // OK is written) and is the daemon's cue to exit its main loop.
  ControlServer(JobScheduler* scheduler, Phase1Cache* cache,
                std::function<void()> on_shutdown,
                ControlServerOptions options = {});

  // Stop() + join.
  ~ControlServer();

  ControlServer(const ControlServer&) = delete;
  ControlServer& operator=(const ControlServer&) = delete;

  // Binds + listens + starts the accept loop.
  Status Start();

  // The bound port (after Start).
  uint16_t port() const { return port_; }

  // Closes the listener and joins every connection thread. Idempotent.
  void Stop();

  // One request line -> one response line (no trailing newline).
  // Public for direct use in tests, bypassing the socket.
  std::string HandleLine(const std::string& line);

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  JobScheduler* const scheduler_;
  Phase1Cache* const cache_;
  const std::function<void()> on_shutdown_;
  const ControlServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  Mutex conn_mu_{LockRank::kControlServerConns};
  std::vector<std::thread> connections_ DASH_GUARDED_BY(conn_mu_);
};

}  // namespace dash

#endif  // DASH_SERVICE_CONTROL_SERVER_H_
