// Party-local computations of the secure scan — everything a party does
// on its own data without communicating.
//
// The runner's Phases 0–1 (transport/party_runner.cc) evaluate these
// same expressions on the party's covariate block; they are exposed as
// stages so benches can time, and tests verify, each one in isolation.
// Stage 3, the party's summand, is ComputeLocalStatsFlat(X_p, y_p, Q_p)
// (core/suff_stats.h).

#ifndef DASH_CORE_PARTY_LOCAL_H_
#define DASH_CORE_PARTY_LOCAL_H_

#include "data/party_split.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace dash {

// Stage 1: the K x K local R factor of the party's covariate block.
// Discloses only covariate angles, never rows (see paper §3).
Result<Matrix> PartyLocalRFactor(const PartyData& party);

// Stage 2: the party's rows of the global Q, via Q_p = C_p R⁻¹.
Matrix PartyLocalQ(const PartyData& party, const Matrix& r_inverse);

}  // namespace dash

#endif  // DASH_CORE_PARTY_LOCAL_H_
