// dash_party: ONE party of the secure association scan as its own OS
// process, talking to the other parties over TCP — the deployment shape
// the in-process simulator models. Run one instance per party (any start
// order; stragglers are awaited with retry + backoff):
//
//   $ dash_party --party 0 --cluster 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 &
//   $ dash_party --party 1 --cluster 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 &
//   $ dash_party --party 2 --cluster 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103
//
// Every instance deterministically generates the same pooled GWAS
// workload from --data-seed and takes its own slice, so the demo needs
// no input files; all parties print the identical revealed result and a
// result checksum that also matches the in-process scan bit for bit.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/secure_scan.h"
#include "data/panel_stream.h"
#include "data/workloads.h"
#include "transport/cluster_config.h"
#include "transport/party_runner.h"
#include "transport/tcp_transport.h"
#include "util/strings.h"

namespace {

using namespace dash;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: dash_party --party P (--cluster h:p,h:p,... | --config FILE)\n"
      "                  [--mode masked|additive|shamir|public]\n"
      "                  [--r-combine stack|tree] [--center]\n"
      "                  [--variants M] [--samples N-per-party]\n"
      "                  [--frac-bits N] [--seed S] [--data-seed S]\n"
      "                  [--connect-timeout-ms T] [--receive-timeout-ms T]\n"
      "                  [--stall-ms T] [--out results.csv]\n"
      "  out-of-core (X streams from a dash_pack file instead of RAM):\n"
      "                  [--stream study.dpk]\n"
      "                  [--checkpoint ckpt.dck] [--checkpoint-every K]\n"
      "                  [--stream-delay-ms T]\n");
}

int RealMain(int argc, char** argv) {
  int party = -1;
  ClusterConfig cluster;
  SecureScanOptions scan_options;
  TcpTransportOptions tcp_options;
  GwasWorkloadOptions data_options;
  int64_t variants = 2000;
  int64_t samples_per_party = 500;
  uint64_t data_seed = 42;
  int64_t stall_ms = 0;
  std::string out_path;
  std::string stream_path;
  StreamingPartyScan stream_config;

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
    } else if (arg == "--mode") {
      const char* value = next();
      if (value == nullptr) return 2;
      const std::string s = value;
      if (s == "masked") {
        scan_options.aggregation = AggregationMode::kMasked;
      } else if (s == "additive") {
        scan_options.aggregation = AggregationMode::kAdditive;
      } else if (s == "shamir") {
        scan_options.aggregation = AggregationMode::kShamir;
      } else if (s == "public") {
        scan_options.aggregation = AggregationMode::kPublicShare;
      } else {
        std::fprintf(stderr, "unknown --mode '%s'\n", value);
        return 2;
      }
    } else if (arg == "--r-combine") {
      const char* value = next();
      if (value == nullptr) return 2;
      const std::string s = value;
      if (s == "stack") {
        scan_options.r_combine = RCombineMode::kBroadcastStack;
      } else if (s == "tree") {
        scan_options.r_combine = RCombineMode::kBinaryTree;
      } else {
        std::fprintf(stderr, "unknown --r-combine '%s'\n", value);
        return 2;
      }
    } else if (arg == "--center") {
      scan_options.center_per_party = true;
    } else if (arg == "--variants") {
      if (!next_i64(&variants)) return 2;
    } else if (arg == "--samples") {
      if (!next_i64(&samples_per_party)) return 2;
    } else if (arg == "--frac-bits") {
      if (!next_i64(&v)) return 2;
      scan_options.frac_bits = static_cast<int>(v);
    } else if (arg == "--seed") {
      if (!next_i64(&v)) return 2;
      scan_options.seed = static_cast<uint64_t>(v);
    } else if (arg == "--data-seed") {
      if (!next_i64(&v)) return 2;
      data_seed = static_cast<uint64_t>(v);
    } else if (arg == "--connect-timeout-ms") {
      if (!next_i64(&v)) return 2;
      tcp_options.connect_timeout_ms = static_cast<int>(v);
    } else if (arg == "--receive-timeout-ms") {
      if (!next_i64(&v)) return 2;
      tcp_options.receive_timeout_ms = static_cast<int>(v);
    } else if (arg == "--stream") {
      const char* value = next();
      if (value == nullptr) return 2;
      stream_path = value;
    } else if (arg == "--checkpoint") {
      const char* value = next();
      if (value == nullptr) return 2;
      stream_config.checkpoint_path = value;
    } else if (arg == "--checkpoint-every") {
      if (!next_i64(&stream_config.checkpoint_every_panels)) return 2;
    } else if (arg == "--stream-delay-ms") {
      // Test hook: stretch the panel loop so the kill smokes can
      // reliably SIGKILL this process mid-stream.
      if (!next_i64(&stream_config.panel_delay_ms)) return 2;
    } else if (arg == "--stall-ms") {
      // Test hook: sleep between mesh-up and the scan, so fault tests
      // can kill this process at a deterministic protocol point.
      if (!next_i64(&stall_ms)) return 2;
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr) return 2;
      out_path = value;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
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

  // Out-of-core mode: y/C/X all come from the packed study file; the
  // self-generated workload is bypassed entirely.
  std::unique_ptr<PackedStudyReader> reader;
  if (!stream_path.empty()) {
    if (scan_options.center_per_party) {
      std::fprintf(stderr,
                   "--center is incompatible with --stream (X is immutable "
                   "on disk; center before dash_pack)\n");
      return 2;
    }
    auto opened = PackedStudyReader::Open(stream_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "--stream: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    reader = std::move(opened).value();
  }

  // Same seed + same cluster size => every process generates the same
  // pooled study; each keeps only its own slice.
  data_options.party_sizes.assign(static_cast<size_t>(cluster.num_parties()),
                                  samples_per_party);
  data_options.num_variants = variants;
  data_options.seed = data_seed;
  if (scan_options.center_per_party) data_options.num_covariates = 3;
  PartyData my_data;
  if (reader == nullptr) {
    auto workload = MakeGwasWorkload(data_options);
    if (!workload.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   workload.status().ToString().c_str());
      return 1;
    }
    my_data =
        std::move(workload.value().parties[static_cast<size_t>(party)]);
    if (scan_options.center_per_party) {
      // The GWAS workload's first covariate column is an intercept, which
      // per-party centering absorbs; drop it.
      Matrix c(my_data.c.rows(), my_data.c.cols() - 1);
      for (int64_t r = 0; r < c.rows(); ++r) {
        for (int64_t j = 0; j < c.cols(); ++j) c(r, j) = my_data.c(r, j + 1);
      }
      my_data.c = std::move(c);
    }
  }
  const int64_t my_samples =
      reader != nullptr ? reader->num_samples() : my_data.num_samples();
  const int64_t my_variants =
      reader != nullptr ? reader->num_variants() : variants;

  std::fprintf(stderr, "[party %d] listening on %s:%u, connecting to %d peers...\n",
               party, cluster.endpoints[static_cast<size_t>(party)].host.c_str(),
               cluster.endpoints[static_cast<size_t>(party)].port,
               cluster.num_parties() - 1);
  auto transport = TcpTransport::Connect(cluster, party, tcp_options);
  if (!transport.ok()) {
    std::fprintf(stderr, "[party %d] connect: %s\n", party,
                 transport.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[party %d] mesh up; running %s scan (M=%" PRId64
               ", N_p=%" PRId64 "%s)\n",
               party, AggregationModeName(scan_options.aggregation),
               my_variants, my_samples,
               reader != nullptr ? ", streamed" : "");
  if (stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }

  Result<SecureScanOutput> output =
      reader != nullptr
          ? [&]() -> Result<SecureScanOutput> {
              stream_config.source = reader.get();
              return RunPartySecureScanStreamed(
                  transport.value().get(), reader->phenotype(),
                  reader->covariates(), stream_config, scan_options);
            }()
          : RunPartySecureScan(transport.value().get(), my_data,
                               scan_options);
  if (!output.ok()) {
    // One-line diagnosis for scripts and operators: which party, which
    // round (carried in the Status message), and what failed.
    std::fprintf(stderr, "[party %d] scan FAILED after %d rounds: %s\n",
                 party, transport.value()->metrics().rounds(),
                 output.status().ToString().c_str());
    return 1;
  }

  const ScanResult& result = output.value().result;
  const SecureScanMetrics& metrics = output.value().metrics;
  const TcpWireStats wire = transport.value()->wire_stats();
  const int64_t top = result.TopHit();
  std::printf("party            %d / %d\n", party, cluster.num_parties());
  std::printf("variants         %" PRId64 "  (dof %" PRId64
              ", untestable %" PRId64 ")\n",
              result.num_variants(), result.dof, result.num_untestable);
  if (top >= 0) {
    std::printf("top hit          variant %" PRId64 "  beta=%.6g  p=%.3g\n",
                top, result.beta[static_cast<size_t>(top)],
                result.pval[static_cast<size_t>(top)]);
  }
  std::printf("result checksum  %016" PRIx64 "  (identical at every party)\n",
              ScanResultChecksum(result));
  if (metrics.streamed) {
    // STREAM line is machine-read by the kill smokes: resumed_from > 0
    // proves this run continued a prior run's checkpoint.
    std::printf("STREAM panels_streamed=%" PRId64 " resumed_from=%" PRId64
                " checkpoints=%" PRId64 "\n",
                metrics.panels_streamed, metrics.resumed_from_panel,
                metrics.checkpoints_written);
  }
  std::printf("logical traffic  %" PRId64 " bytes in %" PRId64
              " messages, %d rounds (this party's sends)\n",
              metrics.total_bytes, metrics.total_messages, metrics.rounds);
  std::printf("wire traffic     %" PRId64 " B out / %" PRId64
              " B in (%" PRId64 " / %" PRId64 " frames)\n",
              wire.bytes_sent, wire.bytes_received, wire.frames_sent,
              wire.frames_received);
  if (!out_path.empty()) {
    const Status s = result.WriteCsv(out_path);
    if (!s.ok()) {
      std::fprintf(stderr, "--out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote            %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
