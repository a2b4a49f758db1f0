// E8 / Table 3 — cost of the secure-sum primitive by mode and party
// count (the paper's "these SMC protocols (if needed at all!) are fast
// because they require only simple secret sharing on tiny data").
//
// google-benchmark timings of one vector aggregation per (mode, P, len),
// with the exact wire bytes attached as counters. Every party runs its
// own PartySecureVectorSum on its own thread over the in-process mesh;
// the timed span starts when all P parties have finished key setup and
// ends when the last one holds the total.

#include <benchmark/benchmark.h>

#include <barrier>
#include <chrono>
#include <vector>

#include "mpc/secure_sum.h"
#include "net/network.h"
#include "util/check.h"
#include "util/random.h"

namespace {

using namespace dash;

std::vector<Vector> MakeInputs(int parties, int64_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> inputs(static_cast<size_t>(parties),
                             Vector(static_cast<size_t>(len)));
  for (auto& v : inputs) {
    for (auto& x : v) x = rng.Uniform(-100.0, 100.0);
  }
  return inputs;
}

void RunMode(benchmark::State& state, AggregationMode mode) {
  const int parties = static_cast<int>(state.range(0));
  const int64_t len = state.range(1);
  SecureSumOptions opts;
  opts.mode = mode;
  opts.frac_bits = 32;
  const auto inputs = MakeInputs(parties, len, 42);

  int64_t bytes_per_run = 0;
  for (auto _ : state) {
    using Clock = std::chrono::steady_clock;
    std::barrier sync(parties);
    Clock::time_point start;
    Clock::time_point end;
    std::vector<int64_t> run_bytes(static_cast<size_t>(parties), 0);
    const Status status = RunPartiesInProcess(parties, [&](Transport* t) {
      const int p = t->local_party();
      PartySecureVectorSum sum(t, opts);
      DASH_CHECK(sum.Setup().ok());
      const int64_t setup_bytes = t->metrics().total_bytes();
      sync.arrive_and_wait();
      if (p == 0) start = Clock::now();
      auto r = sum.Run(Secret<Vector>(inputs[static_cast<size_t>(p)]));
      DASH_CHECK(r.ok());
      benchmark::DoNotOptimize(r);
      sync.arrive_and_wait();
      if (p == 0) end = Clock::now();
      run_bytes[static_cast<size_t>(p)] =
          t->metrics().total_bytes() - setup_bytes;
      return Status::Ok();
    });
    DASH_CHECK(status.ok());
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
    bytes_per_run = 0;
    for (const int64_t b : run_bytes) bytes_per_run += b;
  }
  state.SetItemsProcessed(state.iterations() * len);
  state.counters["P"] = parties;
  state.counters["len"] = static_cast<double>(len);
  state.counters["bytes_per_run"] = static_cast<double>(bytes_per_run);
}

void BM_SecureSumPublic(benchmark::State& state) {
  RunMode(state, AggregationMode::kPublicShare);
}
void BM_SecureSumAdditive(benchmark::State& state) {
  RunMode(state, AggregationMode::kAdditive);
}
void BM_SecureSumMasked(benchmark::State& state) {
  RunMode(state, AggregationMode::kMasked);
}

#define DASH_SUM_ARGS                       \
  ->Args({3, 1000})                         \
      ->Args({3, 10000})                    \
      ->Args({8, 10000})                    \
      ->Args({16, 10000})                   \
      ->UseManualTime()

BENCHMARK(BM_SecureSumPublic) DASH_SUM_ARGS;
BENCHMARK(BM_SecureSumAdditive) DASH_SUM_ARGS;
BENCHMARK(BM_SecureSumMasked) DASH_SUM_ARGS;

// One-time masked-aggregation key agreement (the setup the steady-state
// rounds amortize away).
// Wall time includes starting the P party threads.
void BM_MaskedKeyAgreement(benchmark::State& state) {
  const int parties = static_cast<int>(state.range(0));
  SecureSumOptions opts;
  opts.mode = AggregationMode::kMasked;
  for (auto _ : state) {
    const Status status = RunPartiesInProcess(parties, [&](Transport* t) {
      return PartySecureVectorSum(t, opts).Setup();
    });
    DASH_CHECK(status.ok());
  }
  state.counters["P"] = parties;
}
BENCHMARK(BM_MaskedKeyAgreement)->Arg(3)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
