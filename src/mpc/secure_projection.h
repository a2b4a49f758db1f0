// Secure computation of the scan's projected statistics (paper §3,
// "for even greater security, they can use a more sophisticated SMC
// algorithm to only share the three right-hand quantities (two dot
// products of K-vectors for each m)").
//
// The parties hold additive summands of the global Qᵀy (K-vector) and
// QᵀX (K x M). The baseline protocol reveals those sums; this protocol
// reveals ONLY the scalars Lemma 2.1 actually consumes:
//
//   Qᵀy.Qᵀy          (one scalar)
//   QᵀX_m.Qᵀy        (one scalar per m)
//   QᵀX_m.QᵀX_m      (one scalar per m)
//
// using Beaver-triple multiplication on the summands themselves (a
// party's summand IS its additive share of the global vector). Two
// online rounds: one opening of the 2(K + 2KM) masked values, one
// opening of the 2M + 1 results. Communication is O(KM) — larger than
// the reveal-the-sums baseline's O(M) by the factor K the paper accepts
// for the stronger privacy — still independent of N and parallel in m.
//
// Fixed-point note: products carry 2*frac_bits fractional bits and are
// only rescaled after the final opening (no intermediate truncation, so
// the integer arithmetic is exact). Headroom therefore shrinks twice as
// fast in frac_bits; Run() enforces the bound and the default of 20 bits
// covers |summand| up to ~480 per entry at K=8, P=4.
//
// Each party runs its own SecureProjectedAggregation over its own
// party-bound transport, like every other round. The triples come from
// a simulated trusted dealer (mpc/beaver.h) whose seeded output every
// party replays, keeping only its own shares; a deployment would take
// them from a real offline phase instead.

#ifndef DASH_MPC_SECURE_PROJECTION_H_
#define DASH_MPC_SECURE_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "mpc/beaver.h"
#include "mpc/secrecy.h"
#include "transport/transport.h"
#include "util/status.h"

namespace dash {

struct SecureProjectionOptions {
  // Fractional bits of the ring encoding; results carry 2x this.
  int frac_bits = 20;
  // Seed for the dealer's triple randomness.
  uint64_t seed = 0xbea7e5;
};

// The quantities revealed to every party.
struct ProjectedStats {
  double qty_qty = 0.0;
  Vector qtx_qty;  // length M
  Vector qtx_qtx;  // length M
};

class SecureProjectedAggregation {
 public:
  // `transport` is this party's endpoint and must outlive this object.
  SecureProjectedAggregation(Transport* transport,
                             const SecureProjectionOptions& options);

  // `qty` is this party's K-vector summand of Qᵀy, `qtx` its K x M
  // summand of QᵀX. Summands are per-party private data, hence Secret
  // (mpc/secrecy.h); only the masked d/e openings and the opened result
  // scalars cross the wire. Values must fit the fixed-point headroom
  // (OutOfRange otherwise); a peer whose shapes differ is a protocol
  // desync (FailedPrecondition).
  Result<ProjectedStats> Run(const Secret<Vector>& qty,
                             const Secret<Matrix>& qtx);

 private:
  Transport* net_;
  SecureProjectionOptions options_;
};

}  // namespace dash

#endif  // DASH_MPC_SECURE_PROJECTION_H_
