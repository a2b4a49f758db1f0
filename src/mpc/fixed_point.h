// Fixed-point encoding of reals into the ring Z_2^64.
//
// Ring-based secure aggregation (additive shares, PRG masks) operates on
// uint64 ring elements; real-valued statistics are quantized as
// round(x * 2^frac_bits) in two's complement. Addition in the ring then
// corresponds exactly to fixed-point addition as long as the true sum
// stays inside the representable range |x| < 2^(63 - frac_bits).
//
// The default of 40 fractional bits gives ~9e-13 resolution with
// headroom to ~8.4e6 in magnitude, comfortable for the scan's sufficient
// statistics (see experiment E10 for the precision/headroom ablation).

#ifndef DASH_MPC_FIXED_POINT_H_
#define DASH_MPC_FIXED_POINT_H_

#include <cstdint>
#include <vector>

#include "linalg/vector_ops.h"
#include "mpc/secrecy.h"
#include "util/status.h"

namespace dash {

class FixedPointCodec {
 public:
  static constexpr int kDefaultFracBits = 40;

  // frac_bits must lie in [1, 62].
  explicit FixedPointCodec(int frac_bits = kDefaultFracBits);

  int frac_bits() const { return frac_bits_; }

  // Largest magnitude representable without wrapping.
  double MaxMagnitude() const { return max_magnitude_; }

  // Quantization step 2^-frac_bits.
  double Resolution() const { return resolution_; }

  // Encodes; DASH_CHECKs that |value| is in range and finite. Use
  // TryEncode when the input is not already validated.
  uint64_t Encode(double value) const;
  Result<uint64_t> TryEncode(double value) const;

  // Inverse of Encode (interprets the ring element as two's complement).
  double Decode(uint64_t ring_value) const;

  // Element-wise vector forms. EncodeVector returns what TryEncode
  // returns on every element, and on failure the Status of the first
  // element that fails; it runs as one branch-free range check over the
  // vector and one conversion pass (llround from the truncation and its
  // exact remainder), so the call and the Result per element are gone.
  Result<std::vector<uint64_t>> EncodeVector(const Vector& values) const;
  Vector DecodeVector(const std::vector<uint64_t>& ring_values) const;

  // Secrecy-preserving vector encode: a Secret in, a Secret out. This
  // is the entry point protocol code uses on a party's private
  // contribution; the raw EncodeVector remains for already-public data.
  Result<Secret<RingVector>> EncodeSecretVector(
      const Secret<Vector>& values) const;

 private:
  int frac_bits_;
  double scale_;
  double max_magnitude_;
  double resolution_;
};

// Ring addition/subtraction (wrapping); spelled out for readability at
// protocol call sites.
inline uint64_t RingAdd(uint64_t a, uint64_t b) { return a + b; }
inline uint64_t RingSub(uint64_t a, uint64_t b) { return a - b; }

}  // namespace dash

#endif  // DASH_MPC_FIXED_POINT_H_
