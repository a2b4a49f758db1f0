// The benchmark's workloads. Each runs P=3 parties as threads of this
// process, every party its own TcpTransport endpoint on loopback, and
// reports either the end-to-end metrics (untraced) or the per-layer
// metrics (traced). See README.md for the metric definitions.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "transport/tcp_transport.h"
#include "layers.h"
#include "metrics.h"
#include "timed_transport.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch files (studies, CSVs); removed after
  std::string trace_path; // where a traced run writes its span file
};

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string error;  // first failure, for stderr
  bool finished = false;  // every metric was produced
  MetricSet metrics;
};

// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

struct ScanWorkloadConfig {
  StudyShape shape;
  int reference_fits = 8;   // variants checked against pooled OLS
  double slack_frac = 0.25;  // trace.unattributed_s slack, share of the scan
};

struct ServiceWorkloadConfig {
  StudyShape shape;       // one cohort
  int cohorts = 12;       // pool the clients draw from
  int hot_cohorts = 6;    // the seeded hot set...
  double hot_share = 0.92;  // ...drawing this share of the jobs
  // One closed-loop client: one job in flight, so at most P party
  // threads are busy and the cores keep headroom; with every core busy,
  // job latency follows the host's load (README.md, Noise).
  int clients = 1;
  int max_concurrent = 4; // daemon defaults
  size_t cache_entries = 8;
  int reference_fits = 4;  // per cohort
  double slack_frac = 0.5;
};

RunOutput RunScanWorkload(const ScanWorkloadConfig& config,
                          const RunArgs& args);
RunOutput RunServiceWorkload(const ServiceWorkloadConfig& config,
                             const RunArgs& args);

// --- Shared by both workloads -----------------------------------------

// One set-up of P parties, each on its own thread: `prepare(p)` (the
// party writes its study files), then TcpTransport::Connect into a
// fresh loopback mesh. Returns the wall time of the whole set-up.
dash::Result<double> SetUpMesh(
    int parties, const std::function<dash::Status(int)>& prepare,
    std::vector<std::unique_ptr<dash::TcpTransport>>* meshes);

// Sum over parties of the physical bytes / frames sent so far.
int64_t MeshBytesSent(
    const std::vector<std::unique_ptr<dash::TcpTransport>>& meshes);
int64_t MeshFramesSent(
    const std::vector<std::unique_ptr<dash::TcpTransport>>& meshes);

// The end-to-end metric names, in BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> latency_s;  // one per measured op
  double elapsed_s = 0.0;         // first op start to last op end
  double wire_bytes = 0.0;        // over the measured ops
  double cpu_s = 0.0;             // over the measured ops
  double peak_rss_mb = 0.0;
};
void AddEndToEndMetrics(const EndToEnd& e2e, MetricSet* out);

// The trace-health metrics and the slack check of the layer accounting.
// Returns false (and sets *error) when the accounting does not close.
bool AddTraceHealthMetrics(const RoundAccounting& acc,
                           const std::vector<LayerTimes>& layers,
                           bool writes_csv, double slack_frac,
                           double traced_latency_s, double untraced_latency_s,
                           MetricSet* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
