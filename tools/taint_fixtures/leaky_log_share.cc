// dash-taint-fixture-as: src/mpc/evil_log.cc
//
// Known-leaky fixture for dash_taint --self-test: inside the MPC layer a
// share is one MpcPass away from its raw words, and the type system
// stops tracking them there. The revealed share flows into DASH_LOG;
// TL001 must fire on the log line.

#include <cstdint>

#include "mpc/additive_sharing.h"
#include "util/logging.h"
#include "util/random.h"

namespace dash {

void DebugDumpShare(const Secret<RingVector>& value, Rng* rng) {
  const auto shares = AdditiveShareVector(value, 3, rng);
  const RingVector& raw = shares[1].Reveal(MpcPass::Get());
  DASH_LOG(INFO) << "share[1]=" << raw[0];  // EXPECT-TAINT: TL001@19
}

}  // namespace dash
