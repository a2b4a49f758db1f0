// Secure multi-party vector summation: one party's end of it.
//
// This is the protocol the paper's §3 invokes to combine the parties'
// sufficient-statistic summands "by computing their internal summands and
// either sharing them to sum or by applying an SMC sum protocol which
// only reveals the overall sum". Three interchangeable modes:
//
//  * kPublicShare — every party broadcasts its plaintext contribution;
//    not secure, exact in doubles; the baseline the secure modes are
//    measured against ("sharing them to sum").
//  * kAdditive — each party additively secret-shares its fixed-point
//    contribution among all parties (one share round) and seals the sum
//    of the shares it holds.
//  * kMasked — each party seals its fixed-point contribution plus
//    pairwise ChaCha20 masks that cancel in the total (Bonawitz-style),
//    after a one-time key agreement.
//
// The two secure modes differ only in how a party's sealed vector is
// made; both then run one reduce-scatter and one all-gather. Party o
// owns chunk o = [floor(o*L/P), floor((o+1)*L/P)) of the L-word vector.
// Reduce: every party sends chunk o of its sealed vector to party o,
// which opens chunk o of the total. Gather: every owner sends its
// opened chunk to every peer, and each party decodes the assembled
// total with its own codec. A party so sends about 2(P-1)*L/P words per
// sum (plus (P-1)*L in the additive share round), under two vectors
// for any P.
//
// All modes reveal exactly the element-wise sum to every party and cost
// O(length) bytes per party, independent of the per-party sample counts
// — the communication property experiment E3 verifies.
//
// PartySecureVectorSum is the protocol's only implementation. Each party
// runs its own instance over its own party-bound transport: one TCP
// process per party in a deployment, one thread per party over the
// in-process mesh in the simulator (net/network.h).

#ifndef DASH_MPC_SECURE_SUM_H_
#define DASH_MPC_SECURE_SUM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/vector_ops.h"
#include "mpc/fixed_point.h"
#include "mpc/secrecy.h"
#include "transport/transport.h"
#include "util/chacha20.h"
#include "util/random.h"
#include "util/status.h"

namespace dash {

enum class AggregationMode {
  kPublicShare = 0,
  kAdditive = 1,
  kMasked = 2,
};

// Stable name, e.g. "masked".
const char* AggregationModeName(AggregationMode mode);

// Inverse of AggregationModeName; InvalidArgument names an unknown mode.
Result<AggregationMode> ParseAggregationMode(const std::string& name);

struct SecureSumOptions {
  AggregationMode mode = AggregationMode::kMasked;

  // Fixed-point fractional bits for the ring encoding, in [1, 62].
  int frac_bits = FixedPointCodec::kDefaultFracBits;

  // Seed for the per-party randomness (shares, masks, DH exponents).
  uint64_t seed = 0xda5b;

  // Domain separator mixed into the seed chain (0 = none, the exact
  // historical chain). Concurrent logical sessions over one mesh set
  // this to their session id so no two sessions ever derive the same DH
  // exponents — and therefore never share pairwise mask keys — even
  // when every job runs with the same protocol seed. The revealed total
  // is independent of the randomness (ring sums are exact), so
  // results stay bit-identical across domains.
  uint64_t mask_domain = 0;
};

// One party's end of the sum protocol, over a party-bound transport
// (this party is transport->local_party()). It performs the sends this
// party makes and consumes the messages addressed to it, in a fixed
// per-link order and round structure, so every party reveals the same
// bits:
//  * public     — every party sums the plaintext vectors in ascending
//                 party order;
//  * additive   — Z_2^64 wrapping adds are commutative/associative, so
//                 receive order cannot change the total;
//  * masked     — same ring argument after the pairwise masks cancel.
// Decoding word e depends only on word e, so opening the total chunk by
// chunk changes no bit.
//
// Party i draws its share/mask/DH randomness from the i-th output of
// the SplitMix64 chain over options.seed, so two deployments with equal
// seeds exchange identical ciphertexts. The object keeps that state
// (RNG, pairwise keys) so repeated Run() calls reuse the one-time
// setup, as a long-lived deployment would.
//
// A peer vector of the wrong length fails every mode with
// FailedPrecondition ("protocol desync"): every reduce message carries
// its sender's full length, which the owner checks before it adds.
class PartySecureVectorSum {
 public:
  // `transport` must outlive this object.
  PartySecureVectorSum(Transport* transport, const SecureSumOptions& options);

  // One-time setup. For kMasked this runs the Diffie-Hellman pairwise
  // key agreement; other modes are no-ops. Idempotent.
  Status Setup();

  // `input` is this party's PRIVATE contribution (mpc/secrecy.h); all
  // parties' must share one length. Returns the element-wise total —
  // the one value the protocol declares public. Runs Setup() on first
  // use if the caller did not.
  Result<Vector> Run(const Secret<Vector>& input);

  const SecureSumOptions& options() const { return options_; }

 private:
  Result<Vector> RunPublic(const Secret<Vector>& input);
  // The additive mode's share round: sends share j of `encoded` to
  // party j and seals the sum of the P shares this party then holds.
  Result<Masked<RingVector>> ShareAndAccumulate(
      const Secret<RingVector>& encoded);
  // The reduce-scatter both secure modes end with. `sealed` is this
  // party's additive partial or masked contribution; the P parties'
  // sealed vectors add up to the ring-encoded total. Sends chunk o of
  // it to party o, opens this party's own chunk from the peers' chunks
  // and gathers the total.
  Result<Vector> ReduceScatter(const Masked<RingVector>& sealed);
  // The all-gather the reduce-scatter ends with: sends this party's
  // opened chunk of the ring total to every peer, assembles the
  // `length`-word total from all P chunks and decodes it.
  Result<Vector> GatherTotal(const RingVector& own_chunk, size_t length);

  Transport* net_;
  int local_;
  SecureSumOptions options_;
  FixedPointCodec codec_;
  Rng rng_;
  // [q] = mask key shared with party q; secret material (mpc/secrecy.h).
  std::vector<Secret<ChaCha20Rng::Key>> pairwise_keys_;
  uint64_t round_nonce_ = 0;
  bool setup_done_ = false;
};

}  // namespace dash

#endif  // DASH_MPC_SECURE_SUM_H_
