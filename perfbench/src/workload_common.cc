// Pieces both workloads share: mesh set-up, byte counters, and the
// end-to-end and trace-health metric blocks.

#include <cmath>
#include <cstdio>
#include <thread>

#include "common.h"
#include "transport/cluster_config.h"
#include "workloads.h"

namespace perfbench {

dash::Result<double> SetUpMesh(
    int parties, const std::function<dash::Status(int)>& prepare,
    std::vector<std::unique_ptr<dash::TcpTransport>>* meshes) {
  dash::ClusterConfig cluster;
  for (const uint16_t port : FreePorts(parties)) {
    cluster.endpoints.push_back({"127.0.0.1", port});
  }
  meshes->clear();
  meshes->resize(static_cast<size_t>(parties));
  std::vector<dash::Status> status(static_cast<size_t>(parties));
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int p = 0; p < parties; ++p) {
    threads.emplace_back([&, p] {
      dash::Status s = prepare(p);
      if (s.ok()) {
        dash::TcpTransportOptions options;
        options.connect_timeout_ms = 20000;
        auto tcp = dash::TcpTransport::Connect(cluster, p, options);
        if (tcp.ok()) {
          (*meshes)[static_cast<size_t>(p)] = std::move(tcp).value();
        } else {
          s = tcp.status();
        }
      }
      status[static_cast<size_t>(p)] = s;
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = NsToSeconds(NowNs() - start);
  for (const dash::Status& s : status) {
    if (!s.ok()) return s;
  }
  return seconds;
}

int64_t MeshBytesSent(
    const std::vector<std::unique_ptr<dash::TcpTransport>>& meshes) {
  int64_t sum = 0;
  for (const auto& tcp : meshes) sum += tcp->wire_stats().bytes_sent;
  return sum;
}

int64_t MeshFramesSent(
    const std::vector<std::unique_ptr<dash::TcpTransport>>& meshes) {
  int64_t sum = 0;
  for (const auto& tcp : meshes) sum += tcp->wire_stats().frames_sent;
  return sum;
}

void AddEndToEndMetrics(const EndToEnd& e2e, MetricSet* out) {
  const double ops = static_cast<double>(e2e.latency_s.size());
  out->Add("setup_s", e2e.setup_s, "s");
  out->Add("latency_s_p50", Percentile(e2e.latency_s, 50.0), "s");
  out->Add("latency_s_p90", Percentile(e2e.latency_s, 90.0), "s");
  out->Add("ops_per_s", e2e.elapsed_s > 0.0 ? ops / e2e.elapsed_s : 0.0,
           "1/s");
  out->Add("wire_bytes_per_op", ops > 0 ? e2e.wire_bytes / ops : 0.0, "B");
  out->Add("cpu_s_per_op", ops > 0 ? e2e.cpu_s / ops : 0.0, "s");
  out->Add("peak_rss_mb", e2e.peak_rss_mb, "MiB");
}

bool AddTraceHealthMetrics(const RoundAccounting& acc,
                           const std::vector<LayerTimes>& layers,
                           bool writes_csv, double slack_frac,
                           double traced_latency_s, double untraced_latency_s,
                           MetricSet* out, std::string* error) {
  const double unattributed = UnattributedSeconds(acc, layers, writes_csv);
  const double windows =
      std::max<double>(1.0, static_cast<double>(acc.windows.size()));
  const double slack = std::max(0.005, slack_frac * acc.window_s / windows);
  out->Add("trace.unattributed_s", unattributed, "s");
  out->Add("trace.overhead_frac",
           untraced_latency_s > 0.0 ? traced_latency_s / untraced_latency_s - 1.0
                                    : 0.0,
           "ratio");
  std::fprintf(stderr,
               "perfbench: layer accounting: %.6f s per party-op unattributed "
               "(slack %.6f s), spans tile their windows to %.3g s\n",
               unattributed, slack, acc.closure_error_s);
  if (acc.closure_error_s > 1e-6) {
    *error = "round spans overlap or fall outside their op window";
    return false;
  }
  if (std::abs(unattributed) > slack) {
    *error = "layer accounting leaves " + std::to_string(unattributed) +
             " s per party-op unattributed (slack " + std::to_string(slack) +
             " s)";
    return false;
  }
  return true;
}

}  // namespace perfbench
