// dash-taint-fixture-as: src/mpc/evil_stream.cc
//
// Known-leaky fixture: derived taint into a std::ostream. The share
// vector comes from a Secret-returning primitive; copying one revealed
// word into a plain scalar keeps it tainted, and the cerr insert must
// trip TL001.

#include <cstdint>
#include <iostream>

#include "mpc/additive_sharing.h"
#include "util/random.h"

namespace dash {

void PrintShare(const Secret<RingVector>& value, Rng* rng) {
  const auto shares = AdditiveShareVector(value, 2, rng);
  const uint64_t first = shares[1].Reveal(MpcPass::Get())[0];
  std::cerr << "share=" << first << "\n";  // EXPECT-TAINT: TL001@19
}

}  // namespace dash
