#include "mpc/prime_field.h"

namespace dash {

uint64_t FieldMul(uint64_t a, uint64_t b) {
  DASH_DCHECK(a < kFieldPrime);
  DASH_DCHECK(b < kFieldPrime);
  const unsigned __int128 prod =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  // Split at 61 bits and fold: 2^61 ≡ 1 (mod p).
  const uint64_t lo = static_cast<uint64_t>(prod) & kFieldPrime;
  const uint64_t hi = static_cast<uint64_t>(prod >> 61);
  return FieldReduce(lo + FieldReduce(hi));
}

uint64_t FieldPow(uint64_t a, uint64_t e) {
  uint64_t base = FieldReduce(a);
  uint64_t result = 1;
  while (e != 0) {
    if (e & 1) result = FieldMul(result, base);
    base = FieldMul(base, base);
    e >>= 1;
  }
  return result;
}

uint64_t FieldUniform(Rng* rng) {
  // Rejection from 61 random bits keeps the distribution exactly uniform.
  for (;;) {
    const uint64_t v = rng->NextU64() >> 3;
    if (v < kFieldPrime) return v;
  }
}

}  // namespace dash
