// E10 / Figure 6 — fixed-point precision ablation for the ring secure
// sums.
//
// Ring aggregation quantizes each statistic to 2^-f; the revealed totals
// deviate from exact doubles by at most P quantization steps, while the
// usable magnitude shrinks as 2^(63-f).
// This bench sweeps f on an R-demo-shaped workload and reports the
// observed end-to-end error in beta and p-values, justifying the
// library default of f = 40.

#include <cmath>
#include <cstdio>

#include "core/association_scan.h"
#include "core/secure_scan.h"
#include "data/workloads.h"

namespace {

using namespace dash;

int RealMain() {
  std::printf("=== E10 (Figure 6): fixed-point bits vs scan accuracy ===\n");
  RDemoOptions demo;
  demo.n1 = 300;
  demo.n2 = 500;
  demo.n3 = 400;
  demo.num_variants = 400;
  demo.num_covariates = 3;
  demo.seed = 5;
  const ScanWorkload w = MakeRDemoWorkload(demo);
  const PooledData pooled = PoolParties(w.parties).value();
  const ScanResult exact =
      AssociationScan(pooled.x, pooled.y, pooled.c).value();
  std::printf("N = 1200, M = 400, K = 3, masked aggregation\n\n");
  std::printf("%-6s %14s %14s %14s %16s\n", "bits", "resolution",
              "ring headroom", "max|Δbeta|", "max|Δpval|");

  for (const int bits : {16, 24, 32, 40, 48}) {
    SecureScanOptions opts;
    opts.aggregation = AggregationMode::kMasked;
    opts.frac_bits = bits;
    const auto out = SecureAssociationScan(opts).Run(w.parties);
    if (!out.ok()) {
      std::printf("%-6d %14.1e %14.1e %14s %16s (%s)\n", bits,
                  std::ldexp(1.0, -bits), std::ldexp(1.0, 63 - bits),
                  "overflow", "-", out.status().ToString().c_str());
      continue;
    }
    std::printf("%-6d %14.1e %14.1e %14.2e %16.2e\n", bits,
                std::ldexp(1.0, -bits), std::ldexp(1.0, 63 - bits),
                MaxAbsDiff(out->result.beta, exact.beta),
                MaxAbsDiff(out->result.pval, exact.pval));
  }

  std::printf(
      "\nexpected shape: error halves per extra bit until double roundoff;\n"
      "f = 40 gives ~1e-12 scan error with 8.4e6 headroom (the default).\n");
  return 0;
}

}  // namespace

int main() { return RealMain(); }
