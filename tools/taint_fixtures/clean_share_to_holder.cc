// dash-taint-fixture-as: src/transport/clean_share.cc
//
// Known-clean fixture: a Secret share leaving via the allowlisted
// SerializeShareForHolder reveal point, directly on the Send line — the
// shape the additive share round uses. The allowlisted call blesses the
// sink line.

#include <cstdint>
#include <utility>
#include <vector>

#include "mpc/additive_sharing.h"
#include "mpc/secrecy.h"
#include "transport/transport.h"
#include "util/random.h"
#include "util/status.h"

namespace dash {

Status SendShares(Transport* transport, Rng* rng) {
  const Secret<RingVector> values(RingVector{4, 5, 6});
  auto shares = AdditiveShareVector(values, 2, rng);
  return transport->Send(0, 1, MessageTag::kAdditiveShare,
                         SerializeShareForHolder(shares[1]));
}

}  // namespace dash
