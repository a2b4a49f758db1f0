#include "mpc/fixed_point.h"

#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/strings.h"

namespace dash {
namespace {

// The int64 range is [-2^63, 2^63).
constexpr double kTwoTo63 = 9.223372036854775808e18;

}  // namespace

FixedPointCodec::FixedPointCodec(int frac_bits) : frac_bits_(frac_bits) {
  DASH_CHECK(1 <= frac_bits && frac_bits <= 62) << "frac_bits=" << frac_bits;
  scale_ = std::ldexp(1.0, frac_bits);
  max_magnitude_ = std::ldexp(1.0, 63 - frac_bits);
  resolution_ = 1.0 / scale_;
}

uint64_t FixedPointCodec::Encode(double value) const {
  Result<uint64_t> r = TryEncode(value);
  DASH_CHECK(r.ok()) << r.status().ToString();
  return r.value();
}

Result<uint64_t> FixedPointCodec::TryEncode(double value) const {
  if (!std::isfinite(value)) {
    return InvalidArgumentError("cannot fixed-point encode non-finite value");
  }
  const double scaled = value * scale_;
  if (!(scaled >= -kTwoTo63 && scaled < kTwoTo63)) {
    return OutOfRangeError("value " + DoubleToString(value) +
                           " exceeds fixed-point range (frac_bits=" +
                           std::to_string(frac_bits_) + ")");
  }
  const int64_t q = static_cast<int64_t>(std::llround(scaled));
  return static_cast<uint64_t>(q);
}

double FixedPointCodec::Decode(uint64_t ring_value) const {
  return static_cast<double>(static_cast<int64_t>(ring_value)) * resolution_;
}

Result<std::vector<uint64_t>> FixedPointCodec::EncodeVector(
    const Vector& values) const {
  const size_t n = values.size();
  std::vector<uint64_t> out(n);
  // One branch-free pass checks every scaled value; NaN and ±inf fail.
  bool in_range = true;
  for (size_t i = 0; i < n; ++i) {
    const double scaled = values[i] * scale_;
    in_range &= (scaled >= -kTwoTo63) & (scaled < kTwoTo63);
  }
  if (!in_range) {
    // The per-element path names the first offender, as it always has.
    for (size_t i = 0; i < n; ++i) {
      DASH_ASSIGN_OR_RETURN(out[i], TryEncode(values[i]));
    }
    return out;
  }
  // llround without the call: d = scaled − trunc(scaled) is exact, and
  // rounding half away from zero moves t by one when |d| >= 0.5.
  for (size_t i = 0; i < n; ++i) {
    const double scaled = values[i] * scale_;
    int64_t t = static_cast<int64_t>(scaled);
    const double d = scaled - static_cast<double>(t);
    t += static_cast<int64_t>(d >= 0.5) - static_cast<int64_t>(d <= -0.5);
    out[i] = static_cast<uint64_t>(t);
  }
  return out;
}

Result<Secret<RingVector>> FixedPointCodec::EncodeSecretVector(
    const Secret<Vector>& values) const {
  DASH_ASSIGN_OR_RETURN(RingVector encoded,
                        EncodeVector(values.Reveal(MpcPass::Get())));
  return Secret<RingVector>(std::move(encoded));
}

Vector FixedPointCodec::DecodeVector(
    const std::vector<uint64_t>& ring_values) const {
  Vector out(ring_values.size());
  for (size_t i = 0; i < ring_values.size(); ++i) out[i] = Decode(ring_values[i]);
  return out;
}

}  // namespace dash
