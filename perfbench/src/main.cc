// dash_perfbench: end-to-end benchmark of the secure scan.
//
//   dash_perfbench --workload scan_tall|scan_wide|service_mixed
//                  --seed N --seconds S --trace 0|1
//                  --work-dir DIR --trace-out FILE
//
// Prints human-readable progress and metrics on stderr and, as the last
// line of stdout, one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// metrics, and writes the round spans to --trace-out as Chrome
// trace-event JSON. Exit code 0 only when every output was correct.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "core/kernels/stats_kernels.h"
#include "workloads.h"

namespace {

using perfbench::RunArgs;
using perfbench::RunOutput;

int Usage(const char* why) {
  std::fprintf(stderr,
               "dash_perfbench: %s\n"
               "usage: dash_perfbench --workload scan_tall|scan_wide|"
               "service_mixed --seed N --seconds S --trace 0|1 "
               "--work-dir DIR --trace-out FILE\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work_dir.empty() || args.trace_path.empty() || args.seconds <= 0) {
    return Usage("--work-dir, --trace-out and a positive --seconds are required");
  }

  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d isa=%s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0,
               dash::kernels::StatsIsaName(dash::kernels::ActiveStatsKernels().isa));

  if (!perfbench::ResetPeakRss()) {
    std::fprintf(stderr,
                 "perfbench: cannot reset the RSS high-water mark; "
                 "peak_rss_mb covers the whole process\n");
  }
  RunOutput out;
  if (args.workload == "scan_tall" || args.workload == "scan_wide") {
    perfbench::ScanWorkloadConfig config;
    config.shape.num_parties = 3;
    config.shape.covariates = 10;
    if (args.workload == "scan_tall") {
      // Pooled N ~ 100k, M = 10k: the kernel and panel streaming dominate.
      config.shape.samples_per_party = 33334;
      config.shape.variants = 10000;
    } else {
      // N_p = 1k, M = 100k: a 1.2M-word summand; masking, the wire and
      // finalization dominate.
      config.shape.samples_per_party = 1000;
      config.shape.variants = 100000;
    }
    out = perfbench::RunScanWorkload(config, args);
  } else if (args.workload == "service_mixed") {
    perfbench::ServiceWorkloadConfig config;
    config.shape.num_parties = 3;
    config.shape.samples_per_party = 1000;
    config.shape.variants = 2000;
    config.shape.covariates = 10;
    config.shape.causal = 4;
    out = perfbench::RunServiceWorkload(config, args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  if (!out.error.empty()) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", out.error.c_str());
  }
  std::fprintf(stderr, "perfbench: %lld ops attempted, %lld failed\n%s",
               static_cast<long long>(out.attempted),
               static_cast<long long>(out.failed), out.metrics.Table().c_str());
  if (!out.finished) return 1;
  std::printf("%s\n",
              out.metrics.ResultJson(out.correct, out.attempted, out.failed)
                  .c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
