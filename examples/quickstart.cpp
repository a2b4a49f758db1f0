// Quickstart: three parties run a secure association scan and compare
// against the pooled plaintext analysis they could never actually run.
//
//   $ ./examples/quickstart
//
// Walks through the library's core API: building PartyData, configuring
// SecureAssociationScan, and reading ScanResult.

#include <cstdio>

#include "core/association_scan.h"
#include "core/secure_scan.h"
#include "data/genotype_generator.h"
#include "data/party_split.h"
#include "util/random.h"

namespace {

int RealMain() {
  using namespace dash;

  // --- Each party's private data (never leaves the party) -------------
  // 3 parties, 12 variants, covariates = intercept + age-like column.
  Rng rng(2024);
  std::vector<PartyData> parties;
  for (const int64_t n : {int64_t{150}, int64_t{220}, int64_t{180}}) {
    PartyData p;
    p.x = GaussianMatrix(n, 12, &rng);
    p.c = WithInterceptColumn(GaussianMatrix(n, 1, &rng));
    p.y.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      // Variant 4 carries a real effect; everything else is null.
      p.y[static_cast<size_t>(i)] =
          0.35 * p.x(i, 4) + 0.5 * p.c(i, 1) + rng.Gaussian();
    }
    parties.push_back(std::move(p));
  }

  // --- The secure multi-party scan -------------------------------------
  SecureScanOptions options;
  options.aggregation = AggregationMode::kMasked;  // masked secure sum
  const auto secure = SecureAssociationScan(options).Run(parties);
  if (!secure.ok()) {
    std::fprintf(stderr, "secure scan failed: %s\n",
                 secure.status().ToString().c_str());
    return 1;
  }
  const ScanResult& result = secure->result;

  std::printf("Secure 3-party association scan (N=550, M=12, K=2)\n");
  std::printf("%-8s %10s %10s %10s %12s\n", "variant", "beta", "se", "t",
              "p");
  for (int64_t m = 0; m < result.num_variants(); ++m) {
    const size_t i = static_cast<size_t>(m);
    std::printf("%-8lld %10.4f %10.4f %10.3f %12.3e\n",
                static_cast<long long>(m), result.beta[i], result.se[i],
                result.tstat[i], result.pval[i]);
  }
  std::printf("\ntop hit: variant %lld (true causal variant is 4)\n",
              static_cast<long long>(result.TopHit()));
  std::printf("inter-party traffic: %lld bytes in %d rounds\n",
              static_cast<long long>(secure->metrics.total_bytes),
              secure->metrics.rounds);

  // --- Sanity: the pooled plaintext scan gives the same answer ---------
  const auto pooled = PoolParties(parties);
  const auto plain =
      AssociationScan(pooled->x, pooled->y, pooled->c);
  std::printf("max |beta_secure - beta_pooled| = %.3e\n",
              MaxAbsDiff(result.beta, plain->beta));
  return 0;
}

}  // namespace

int main() { return RealMain(); }
