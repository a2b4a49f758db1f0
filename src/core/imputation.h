// Secure multi-party mean imputation of missing genotypes.
//
// Each party holds NaN-marked missing entries. The global per-variant
// mean dosage is sum_p(column sums) / sum_p(non-missing counts) — two
// more additive statistics, aggregated with the same secure-sum
// machinery as the scan itself. Each party then imputes locally and the
// usual protocol proceeds; the only values revealed are the per-variant
// means and call rates, which the scan's output discloses in spirit
// anyway (a variant's mean dosage is 2x its allele frequency, a
// routinely published quantity — parties preferring otherwise can run
// the aggregation under any of the secure modes).

#ifndef DASH_CORE_IMPUTATION_H_
#define DASH_CORE_IMPUTATION_H_

#include <vector>

#include "core/secure_scan.h"
#include "data/party_split.h"
#include "util/status.h"

namespace dash {

struct SecureImputationOutput {
  Vector means;       // per-variant global mean of the observed entries
  Vector call_rates;  // fraction observed per variant
  int64_t total_missing = 0;
  SecureScanMetrics metrics;
};

// Aggregates global column means over simulated parties — P threads of
// RunPartySummandProtocol (transport/party_runner.h) with no Q — using
// the configured aggregation mode, then imputes every party's X in
// place. Columns with no observed entries anywhere impute to 0 (and will
// be flagged untestable by the scan). Parties must already validate
// (consistent M). options.center_per_party configures the scan that
// follows and is ignored here.
Result<SecureImputationOutput> SecureMeanImpute(
    std::vector<PartyData>* parties, const SecureScanOptions& options = {});

}  // namespace dash

#endif  // DASH_CORE_IMPUTATION_H_
