// The distributed QR step of the secure scan (paper §3).
//
// Each party holds only its local upper-triangular R_p (K x K, K(K+1)/2
// numbers, independent of N — the "angles between pairs of permanent
// covariates"). The parties combine the R_p into the pooled R over the
// network, then each privately forms its rows of the global Q as
// Q_p = C_p R⁻¹ (party_local.h). Each party runs the combination over
// its own party-bound transport; every party ends with the same R.
//
// Combination strategies:
//  * kBroadcastStack — every party broadcasts R_p; everyone stacks and
//    factors locally. One round, P(P-1) K x K messages.
//  * kBinaryTree     — the footnote-3 variant: parties merge pairwise in
//    ceil(log2 P) rounds, so each party shares its K x K matrix with at
//    most one peer per round; the final holder broadcasts R.

#ifndef DASH_CORE_DISTRIBUTED_QR_H_
#define DASH_CORE_DISTRIBUTED_QR_H_

#include "linalg/matrix.h"
#include "transport/transport.h"
#include "util/status.h"

namespace dash {

enum class RCombineMode {
  kBroadcastStack = 0,
  kBinaryTree = 1,
};

const char* RCombineModeName(RCombineMode mode);

struct DistributedQrResult {
  Matrix r;          // pooled K x K factor (identical at every party)
  Matrix r_inverse;  // R⁻¹, used to lift C_p to Q_p
};

// Combines this party's K x K factor `own_r` with its peers' over
// `transport` (this party is transport->local_party()). A peer factor
// of another shape is a protocol desync (FailedPrecondition).
Result<DistributedQrResult> CombineRFactorsOverNetwork(Transport* transport,
                                                       const Matrix& own_r,
                                                       RCombineMode mode);

}  // namespace dash

#endif  // DASH_CORE_DISTRIBUTED_QR_H_
