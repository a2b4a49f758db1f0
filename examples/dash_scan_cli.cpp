// dash_scan_cli: run the secure multi-party association scan from flat
// files — the adoption path for users who are not linking the library.
//
//   $ dash_scan_cli --party x1.csv:y1.csv:c1.csv
//                   --party x2.csv:y2.csv:c2.csv
//                   [--mode masked|additive|public]
//                   [--r-combine stack|tree] [--impute]
//                   [--center] [--frac-bits N] [--threads N]
//                   [--out results.csv] [--report report.txt]
//
// Each --party names headerless CSVs: X (N_p x M), y (N_p x 1),
// C (N_p x K; omit the third path for K = 0). Prints the top hits and
// protocol traffic; --out writes the full per-variant table.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/imputation.h"
#include "core/scan_report.h"
#include "core/secure_scan.h"
#include "data/matrix_io.h"
#include "util/strings.h"

namespace {

using namespace dash;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: dash_scan_cli --party X.csv:y.csv[:C.csv] [--party ...]\n"
      "                     [--mode masked|additive|public]\n"
      "                     [--r-combine stack|tree] [--center] [--impute]\n"
      "                     [--frac-bits N] [--threads N] [--out FILE]\n"
      "                     [--report FILE]\n");
}

int RealMain(int argc, char** argv) {
  std::vector<PartyData> parties;
  SecureScanOptions options;
  std::string out_path;
  std::string report_path;
  bool impute = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--party") {
      const char* value = next();
      if (value == nullptr) return 2;
      const auto paths = StrSplit(value, ':');
      if (paths.size() != 2 && paths.size() != 3) {
        std::fprintf(stderr, "--party expects X.csv:y.csv[:C.csv]\n");
        return 2;
      }
      auto party = ReadPartyCsv(paths[0], paths[1],
                                paths.size() == 3 ? paths[2] : "");
      if (!party.ok()) {
        std::fprintf(stderr, "loading party %zu: %s\n", parties.size(),
                     party.status().ToString().c_str());
        return 1;
      }
      parties.push_back(std::move(party).value());
    } else if (arg == "--mode") {
      const char* value = next();
      if (value == nullptr) return 2;
      auto mode = ParseAggregationMode(value);
      if (!mode.ok()) {
        std::fprintf(stderr, "--mode: %s\n", mode.status().ToString().c_str());
        return 2;
      }
      options.aggregation = mode.value();
    } else if (arg == "--r-combine") {
      const char* value = next();
      if (value == nullptr) return 2;
      if (std::strcmp(value, "stack") == 0) {
        options.r_combine = RCombineMode::kBroadcastStack;
      } else if (std::strcmp(value, "tree") == 0) {
        options.r_combine = RCombineMode::kBinaryTree;
      } else {
        std::fprintf(stderr, "unknown --r-combine '%s'\n", value);
        return 2;
      }
    } else if (arg == "--center") {
      options.center_per_party = true;
    } else if (arg == "--impute") {
      impute = true;
    } else if (arg == "--frac-bits") {
      const char* value = next();
      if (value == nullptr) return 2;
      auto bits = ParseInt64(value);
      if (!bits.ok() || bits.value() < 1 || bits.value() > 62) {
        std::fprintf(stderr, "--frac-bits expects an integer in [1, 62]\n");
        return 2;
      }
      options.frac_bits = static_cast<int>(bits.value());
    } else if (arg == "--threads") {
      const char* value = next();
      if (value == nullptr) return 2;
      auto threads = ParseInt64(value);
      if (!threads.ok() || threads.value() < 1) {
        std::fprintf(stderr, "--threads expects a positive integer\n");
        return 2;
      }
      options.num_threads = static_cast<int>(threads.value());
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr) return 2;
      out_path = value;
    } else if (arg == "--report") {
      const char* value = next();
      if (value == nullptr) return 2;
      report_path = value;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  if (parties.empty()) {
    PrintUsage();
    return 2;
  }

  if (impute) {
    const auto imputed = SecureMeanImpute(&parties, options);
    if (!imputed.ok()) {
      std::fprintf(stderr, "imputation failed: %s\n",
                   imputed.status().ToString().c_str());
      return 1;
    }
    std::printf("imputed %lld missing entries (secure global means)\n",
                static_cast<long long>(imputed->total_missing));
  }

  const auto out = SecureAssociationScan(options).Run(parties);
  if (!out.ok()) {
    std::fprintf(stderr, "scan failed: %s\n", out.status().ToString().c_str());
    return 1;
  }
  const ScanResult& scan = out->result;

  int64_t n = 0;
  for (const auto& p : parties) n += p.num_samples();
  std::printf("scanned %lld variants over %lld samples in %zu parties "
              "(mode=%s)\n",
              static_cast<long long>(scan.num_variants()),
              static_cast<long long>(n), parties.size(),
              AggregationModeName(options.aggregation));
  std::printf("traffic: %lld bytes, %d rounds; dof = %lld\n",
              static_cast<long long>(out->metrics.total_bytes),
              out->metrics.rounds, static_cast<long long>(scan.dof));

  const int64_t top = scan.TopHit();
  if (top >= 0) {
    std::printf("top hit: variant %lld  beta=%.6f  se=%.6f  p=%.3e\n",
                static_cast<long long>(top),
                scan.beta[static_cast<size_t>(top)],
                scan.se[static_cast<size_t>(top)],
                scan.pval[static_cast<size_t>(top)]);
  }
  if (!report_path.empty()) {
    const Status s = WriteScanReport(scan, report_path);
    if (!s.ok()) {
      std::fprintf(stderr, "writing %s: %s\n", report_path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("report written to %s\n", report_path.c_str());
  }
  if (!out_path.empty()) {
    const Status s = scan.WriteCsv(out_path);
    if (!s.ok()) {
      std::fprintf(stderr, "writing %s: %s\n", out_path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("results written to %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
