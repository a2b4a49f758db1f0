// Additive secret sharing over the ring Z_2^64.
//
// A value v is split into n shares s_1..s_n, uniformly random subject to
// s_1 + ... + s_n = v (mod 2^64). Any n-1 shares are jointly uniform and
// carry no information about v; only the full set reconstructs it. This
// is the "simple secret sharing on tiny data" the paper's §3 invokes for
// the secure sums.
//
// Share vectors are Secret<RingVector>: protocol code outside src/mpc/
// can route them to SerializeShareForHolder (one share, to its holder)
// or through the accumulate step below, but cannot read the raw words — see mpc/secrecy.h and DESIGN.md §11.

#ifndef DASH_MPC_ADDITIVE_SHARING_H_
#define DASH_MPC_ADDITIVE_SHARING_H_

#include <cstdint>
#include <vector>

#include "mpc/fixed_point.h"
#include "mpc/secrecy.h"
#include "util/random.h"
#include "util/status.h"

namespace dash {

// Element-wise sharing of a vector: result[j] is the j-th party's share
// vector, result[j][i] a share of values[i]. Requires n >= 1.
[[nodiscard]] std::vector<Secret<RingVector>> AdditiveShareVector(
    const Secret<RingVector>& values, int n, Rng* rng);

// Element-wise reconstruction; all share vectors must have equal length.
// Reveal point (round-key phase2-additive): consumes the FULL share set,
// so the output is exactly the value the protocol reveals anyway.
Result<RingVector> AdditiveReconstructVector(
    const std::vector<Secret<RingVector>>& share_vectors);

// Folds the shares received from peers into the party's own kept share.
// The result is a partial share-sum — individually uniform, hence
// sealed Masked and safe to send. The secure sum opens chunk o of all P
// partials with OpenMaskedChunk (mpc/masked_aggregation.h), as it opens
// the masked mode's contributions.
Result<Masked<RingVector>> AccumulateAdditiveShares(
    const Secret<RingVector>& own_share,
    const std::vector<RingVector>& received_shares);

}  // namespace dash

#endif  // DASH_MPC_ADDITIVE_SHARING_H_
