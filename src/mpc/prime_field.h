// Arithmetic in the Mersenne prime field F_p, p = 2^61 - 1.
//
// The Diffie-Hellman key agreement of the masked secure sum
// (mpc/key_exchange.h) works in this field's multiplicative group. The
// Mersenne modulus admits a fast reduction (fold the high bits).

#ifndef DASH_MPC_PRIME_FIELD_H_
#define DASH_MPC_PRIME_FIELD_H_

#include <cstdint>

#include "util/check.h"
#include "util/random.h"

namespace dash {

// 2^61 - 1, prime.
inline constexpr uint64_t kFieldPrime = (uint64_t{1} << 61) - 1;

// Reduces an arbitrary 64-bit value modulo p.
inline uint64_t FieldReduce(uint64_t x) {
  x = (x & kFieldPrime) + (x >> 61);
  if (x >= kFieldPrime) x -= kFieldPrime;
  return x;
}

// Product via 128-bit intermediate and Mersenne folding.
uint64_t FieldMul(uint64_t a, uint64_t b);

// a^e mod p by square-and-multiply.
uint64_t FieldPow(uint64_t a, uint64_t e);

// Uniform field element.
uint64_t FieldUniform(Rng* rng);

}  // namespace dash

#endif  // DASH_MPC_PRIME_FIELD_H_
