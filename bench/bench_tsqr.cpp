// E7 / Figure 5 — distributed TSQR: correctness of the R combination and
// the binary-tree round structure (paper §3 + footnote 3).
//
// For P parties: the combined R (stacked and tree) must match the pooled
// QR of the full covariate matrix; the tree needs ceil(log2 P) rounds;
// and each party only ever discloses a K x K triangle. Each combination
// runs as P threads of the per-party R-combine over the in-process mesh.
// Timings cover the per-merge cost (a 2K x K QR, independent of N).

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/distributed_qr.h"
#include "data/genotype_generator.h"
#include "linalg/qr.h"
#include "linalg/tsqr.h"
#include "net/network.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace {

using namespace dash;

// Combines the parties' factors as P threads; returns party 0's pooled R
// and the run's traffic.
Matrix Combine(const std::vector<Matrix>& local_r, RCombineMode mode,
               MeshTraffic* traffic) {
  std::vector<Matrix> pooled(local_r.size());
  const Status status = RunPartiesInProcess(
      static_cast<int>(local_r.size()),
      [&](Transport* t) -> Status {
        const size_t p = static_cast<size_t>(t->local_party());
        DASH_ASSIGN_OR_RETURN(DistributedQrResult qr,
                              CombineRFactorsOverNetwork(t, local_r[p], mode));
        pooled[p] = std::move(qr.r);
        return Status::Ok();
      },
      traffic);
  DASH_CHECK(status.ok()) << status;
  return pooled[0];
}

int RealMain() {
  std::printf("=== E7 (Figure 5): TSQR combination across parties ===\n");
  constexpr int64_t kK = 6;
  constexpr int64_t kPerParty = 64;
  std::printf("K = %lld, %lld samples per party\n\n",
              static_cast<long long>(kK), static_cast<long long>(kPerParty));
  std::printf("%-6s %8s %8s %14s %14s %14s\n", "P", "rounds", "merges",
              "max|R-Rpool|", "stack bytes", "tree bytes");

  for (const int p : {2, 4, 8, 16, 32, 64}) {
    Rng rng(100 + static_cast<uint64_t>(p));
    std::vector<Matrix> blocks;
    std::vector<Matrix> local_r;
    for (int i = 0; i < p; ++i) {
      blocks.push_back(GaussianMatrix(kPerParty, kK, &rng));
      local_r.push_back(QrRFactor(blocks.back()).value());
    }
    const Matrix pooled_r = QrRFactor(VStack(blocks)).value();

    MeshTraffic stack_traffic;
    const Matrix stacked =
        Combine(local_r, RCombineMode::kBroadcastStack, &stack_traffic);
    MeshTraffic tree_traffic;
    const Matrix tree =
        Combine(local_r, RCombineMode::kBinaryTree, &tree_traffic);

    const double err = std::max(MaxAbsDiff(stacked, pooled_r),
                                MaxAbsDiff(tree, pooled_r));
    std::printf("%-6d %8d %8d %14.2e %14lld %14lld\n", p,
                tree_traffic.rounds, p - 1, err,
                static_cast<long long>(stack_traffic.total_bytes),
                static_cast<long long>(tree_traffic.total_bytes));
  }

  std::printf("\n-- merge kernel timing (2K x K QR per merge) --\n");
  std::printf("%-6s %14s\n", "K", "merge (us)");
  for (const int64_t k : {2, 4, 8, 16, 32}) {
    Rng rng(200 + static_cast<uint64_t>(k));
    const Matrix r1 = QrRFactor(GaussianMatrix(4 * k, k, &rng)).value();
    const Matrix r2 = QrRFactor(GaussianMatrix(4 * k, k, &rng)).value();
    constexpr int kIters = 2000;
    Stopwatch timer;
    for (int i = 0; i < kIters; ++i) {
      const auto merged = QrRFactor(VStack({r1, r2}));
      DASH_CHECK(merged.ok());
    }
    std::printf("%-6lld %14.2f\n", static_cast<long long>(k),
                timer.ElapsedMicros() / kIters);
  }

  std::printf(
      "\nexpected shape: error at machine precision for every P; rounds =\n"
      "ceil(log2 P) + 1 (final broadcast); tree traffic < stack traffic\n"
      "for large P; merge cost depends only on K, never on N.\n");
  return 0;
}

}  // namespace

int main() { return RealMain(); }
