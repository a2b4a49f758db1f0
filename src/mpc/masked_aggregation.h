// Pairwise-masked aggregation (Bonawitz et al. style secure sum).
//
// Each ordered pair (i, j), i < j, shares a ChaCha20 key k_ij. Party i
// adds PRG(k_ij) to its ring-encoded contribution and party j subtracts
// the identical stream, so all masks cancel in the sum:
//
//   masked_p = v_p + sum_{q > p} PRG(k_pq) - sum_{q < p} PRG(k_qp)
//   sum_p masked_p = sum_p v_p  (mod 2^64)
//
// Summing the masked_p element by element reveals only the total. The
// secure sum (mpc/secure_sum.h) splits that sum by chunks: each party
// sends chunk o of masked_p to party o, which opens chunk o of the
// total — one vector's worth of words per party per sum, the cheapest
// of the secure modes. The additive mode's partial share-sums reach the
// same open by the same reduce.
//
// `round_nonce` must change between protocol invocations that reuse the
// same pairwise keys; it selects a fresh ChaCha20 stream so masks are
// never reused.
//
// Types (mpc/secrecy.h): the input contribution and the pairwise keys
// are Secret; the output carries the masks and is sealed Masked — the
// one buffer of this mode that is safe to broadcast.

#ifndef DASH_MPC_MASKED_AGGREGATION_H_
#define DASH_MPC_MASKED_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "mpc/fixed_point.h"
#include "mpc/secrecy.h"
#include "util/chacha20.h"

namespace dash {

// Applies party `party_index`'s masks for one aggregation round.
// pairwise_keys[q] is the key shared with party q (entry `party_index`
// itself is ignored). Returns values + masks (wrapping), sealed for the
// wire.
Masked<RingVector> ApplyPairwiseMasks(
    int party_index, const Secret<RingVector>& values,
    const std::vector<Secret<ChaCha20Rng::Key>>& pairwise_keys,
    uint64_t round_nonce);

// Opens chunk [begin, end) of the ring total: own_masked's words there
// plus every peer's words for that chunk (each peer_chunks entry is
// end - begin long; another length is a protocol desync). Reveal point
// (round-key phase2-masked): the P parties' sealed vectors — pairwise-
// masked contributions, or additive partial share-sums — add up to the
// ring-encoded total once all P parties' words for an element are
// added, so the output is exactly that chunk of the aggregate the
// protocol reveals. PartySecureVectorSum opens only the chunk it owns.
Result<RingVector> OpenMaskedChunk(const Masked<RingVector>& own_masked,
                                   size_t begin, size_t end,
                                   const std::vector<RingVector>& peer_chunks);

// The whole-vector form: opens and decodes the total from the party's
// own masked vector and every peer's full one.
Result<Vector> OpenMaskedTotal(const Masked<RingVector>& own_masked,
                               const std::vector<RingVector>& peer_masked,
                               const FixedPointCodec& codec);

}  // namespace dash

#endif  // DASH_MPC_MASKED_AGGREGATION_H_
