// dash-taint-fixture-as: src/mpc/evil_send.cc
//
// Known-leaky fixture: a raw share is serialized straight into a
// ByteWriter and shipped — bypassing SerializeShareForHolder, the
// blessed reveal point for exactly this move. TL001 must fire on the
// Put line (where the secret meets the serializer).

#include <cstdint>

#include "mpc/additive_sharing.h"
#include "net/serialization.h"
#include "transport/transport.h"
#include "util/random.h"
#include "util/status.h"

namespace dash {

Status SendRawShare(Transport* transport, const Secret<RingVector>& value,
                    Rng* rng) {
  const auto shares = AdditiveShareVector(value, 2, rng);
  ByteWriter w;
  w.PutU64Vector(shares[1].Reveal(MpcPass::Get()));  // EXPECT-TAINT: TL001@22
  return transport->Send(0, 1, MessageTag::kAdditiveShare, w.Take());
}

}  // namespace dash
