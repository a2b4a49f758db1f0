// E3 / Figure 2 — inter-party communication is O(M) and independent of N.
//
// The paper: "securely determine beta-hat and sigma-hat ... while
// communicating only O(M) bits inter-party. Note that O(M) is best
// possible since all parties must receive the results."
//
// Series 1 sweeps N at fixed M: bytes must be flat.
// Series 2 sweeps M at fixed N: bytes must grow linearly, and we report
// bytes/M against the information-theoretic floor of 16 bytes/M (every
// party must receive beta and se).
// Series 3 sweeps P at fixed N and M and reports the most bytes any one
// party sends: Phase 2's reduce-scatter + all-gather keeps that under
// two summand vectors for any P.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/secure_scan.h"
#include "data/workloads.h"
#include "net/network.h"
#include "transport/party_runner.h"

namespace {

using namespace dash;

ScanWorkload MakeSized(int64_t n_total, int64_t m, uint64_t seed) {
  RDemoOptions opts;
  opts.n1 = n_total / 3;
  opts.n2 = n_total / 3;
  opts.n3 = n_total - 2 * (n_total / 3);
  opts.num_variants = m;
  opts.num_covariates = 4;
  opts.seed = seed;
  return MakeRDemoWorkload(opts);
}

SecureScanMetrics Metrics(const ScanWorkload& w, AggregationMode mode) {
  SecureScanOptions opts;
  opts.aggregation = mode;
  opts.frac_bits = 32;
  const auto out = SecureAssociationScan(opts).Run(w.parties);
  DASH_CHECK(out.ok()) << out.status();
  return out->metrics;
}

// The most bytes one party sends in a scan of `parties` as P threads
// over the in-process mesh (each endpoint counts its own sends).
int64_t MaxPartyBytes(const std::vector<PartyData>& parties,
                      AggregationMode mode) {
  SecureScanOptions opts;
  opts.aggregation = mode;
  opts.frac_bits = 32;
  std::vector<int64_t> sent(parties.size(), 0);
  const Status status = RunPartiesInProcess(
      static_cast<int>(parties.size()), [&](Transport* transport) -> Status {
        const size_t p = static_cast<size_t>(transport->local_party());
        DASH_ASSIGN_OR_RETURN(
            SecureScanOutput out,
            RunPartySecureScan(transport, parties[p], opts));
        sent[p] = out.metrics.total_bytes;
        return Status::Ok();
      });
  DASH_CHECK(status.ok()) << status;
  return *std::max_element(sent.begin(), sent.end());
}

int RealMain() {
  std::printf("=== E3 (Figure 2): communication scaling ===\n");
  std::printf("P = 3 parties, K = 4; total bytes over all links\n\n");

  const AggregationMode modes[3] = {AggregationMode::kPublicShare,
                                    AggregationMode::kAdditive,
                                    AggregationMode::kMasked};

  std::printf("-- series 1: sweep N, M = 1000 (bytes must be flat in N) --\n");
  std::printf("%-8s | %12s %12s %12s\n", "N", "public", "additive",
              "masked");
  for (const int64_t n : {300, 3000, 30000}) {
    const ScanWorkload w = MakeSized(n, 1000, 3 + static_cast<uint64_t>(n));
    std::printf("%-8lld |", static_cast<long long>(n));
    for (const auto mode : modes) {
      std::printf(" %12lld",
                  static_cast<long long>(Metrics(w, mode).total_bytes));
    }
    std::printf("\n");
  }

  std::printf("\n-- series 2: sweep M, N = 3000 (bytes linear in M) --\n");
  std::printf("%-8s | %12s %9s | %12s %9s\n", "M", "additive", "bytes/M",
              "masked", "bytes/M");
  for (const int64_t m : {250, 1000, 4000, 16000}) {
    const ScanWorkload w = MakeSized(3000, m, 7 + static_cast<uint64_t>(m));
    std::printf("%-8lld |", static_cast<long long>(m));
    for (const auto mode :
         {AggregationMode::kAdditive, AggregationMode::kMasked}) {
      const int64_t bytes = Metrics(w, mode).total_bytes;
      std::printf(" %12lld %9.1f |", static_cast<long long>(bytes),
                  static_cast<double>(bytes) / static_cast<double>(m));
    }
    std::printf("\n");
  }

  std::printf(
      "\n-- series 3: sweep P, N = 3000, M = 1000 (max bytes one party "
      "sends) --\n");
  std::printf("%-8s | %12s %12s %12s | %9s\n", "P", "public", "additive",
              "masked", "vector");
  for (const int parties : {2, 3, 5, 8}) {
    GwasWorkloadOptions data;
    data.party_sizes.assign(static_cast<size_t>(parties), 3000 / parties);
    data.num_variants = 1000;
    data.num_covariates = 4;
    data.seed = 11;
    const auto w = MakeGwasWorkload(data);
    DASH_CHECK(w.ok()) << w.status();
    std::printf("%-8d |", parties);
    for (const auto mode : modes) {
      std::printf(" %12lld", static_cast<long long>(
                                 MaxPartyBytes(w->parties, mode)));
    }
    // One summand vector: L = 1 + K + (2 + K) * M words.
    std::printf(" | %9lld\n", 8LL * (1 + 4 + 6 * 1000));
  }

  std::printf("\n-- per-link view (masked, N = 3000, M = 4000) --\n");
  const ScanWorkload w = MakeSized(3000, 4000, 99);
  const SecureScanMetrics m = Metrics(w, AggregationMode::kMasked);
  std::printf("total %lld bytes, busiest link %lld bytes, %d rounds, "
              "%lld messages\n",
              static_cast<long long>(m.total_bytes),
              static_cast<long long>(m.max_link_bytes), m.rounds,
              static_cast<long long>(m.total_messages));
  std::printf(
      "\nexpected shape: series 1 rows identical down the column; series 2\n"
      "bytes/M constant per mode (the O(M) claim), with masked cheapest;\n"
      "series 3 masked under two vectors at every P, additive growing\n"
      "only by its share round's (P-1) vectors, public by (P-1) vectors.\n");
  return 0;
}

}  // namespace

int main() { return RealMain(); }
