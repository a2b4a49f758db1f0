#include "util/strings.h"

#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

#include "util/check.h"

namespace dash {
namespace {

using Uint128 = unsigned __int128;

// 5^k for the scale exponents FormatDouble17 uses, k in [0, 28]; 5^28
// needs 66 bits, and m · 5^28 < 2^119.
constexpr std::array<Uint128, 29> kPow5 = [] {
  std::array<Uint128, 29> p{};
  p[0] = 1;
  for (size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * 5;
  return p;
}();

// "00" "01" ... "99", two characters per entry.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> t{};
  for (int i = 0; i < 100; ++i) {
    t[static_cast<size_t>(2 * i)] = static_cast<char>('0' + i / 10);
    t[static_cast<size_t>(2 * i + 1)] = static_cast<char>('0' + i % 10);
  }
  return t;
}();

constexpr uint64_t kPow10_16 = 10000000000000000ull;
constexpr uint64_t kPow10_17 = 100000000000000000ull;

}  // namespace

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && (text[b] == ' ' || text[b] == '\t' || text[b] == '\r' ||
                   text[b] == '\n')) {
    ++b;
  }
  while (e > b && (text[e - 1] == ' ' || text[e - 1] == '\t' ||
                   text[e - 1] == '\r' || text[e - 1] == '\n')) {
    --e;
  }
  return text.substr(b, e - b);
}

Result<double> ParseDouble(std::string_view text) {
  const std::string s(StripWhitespace(text));
  if (s.empty()) return InvalidArgumentError("empty string is not a double");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE) {
    return InvalidArgumentError("cannot parse double: '" + s + "'");
  }
  return v;
}

Result<int64_t> ParseInt64(std::string_view text) {
  const std::string s(StripWhitespace(text));
  if (s.empty()) return InvalidArgumentError("empty string is not an integer");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) {
    return InvalidArgumentError("cannot parse integer: '" + s + "'");
  }
  return static_cast<int64_t>(v);
}

char* FormatDouble17(char* out, double value) {
  const double a = std::fabs(value);
  if (!(a >= 1e-11 && a < 1e17)) {  // also false for NaN
    const std::to_chars_result r =
        std::to_chars(out, out + kDouble17MaxChars, value,
                      std::chars_format::general, 17);
    DASH_CHECK(r.ec == std::errc());
    return r.ptr;
  }
  // a = m · 2^e2 with 2^52 <= m < 2^53 (a is normal here).
  const uint64_t bits = std::bit_cast<uint64_t>(a);
  const int biased = static_cast<int>(bits >> 52);
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  const int e2 = biased - 1075;
  // e10 = ⌊(biased − 1023) · log10 2⌋ is the decimal exponent E of a or
  // E − 1; the loop below corrects it, so it runs at most twice.
  int e10 = ((biased - 1023) * 78913) >> 18;
  uint64_t q = 0;  // ⌊a · 10^(16 − e10)⌋, 17 digits once e10 = E
  bool round_up = false;
  for (;;) {
    // a · 10^k = m · 5^k · 2^(e2 + k), exact in 128 bits for k <= 28.
    const int k = 16 - e10;
    const Uint128 n = m * kPow5[static_cast<size_t>(k)];
    const int s = e2 + k;
    if (s >= 0) {  // an integer: nothing to round
      q = static_cast<uint64_t>(n << s);
      round_up = false;
    } else {  // -s <= 62: q and the exact remainder of the shift
      q = static_cast<uint64_t>(n >> -s);
      const Uint128 rem = n & ((Uint128{1} << -s) - 1);
      const Uint128 half = Uint128{1} << (-s - 1);
      round_up = rem > half || (rem == half && (q & 1) != 0);  // half-even
    }
    if (q < kPow10_17) break;
    ++e10;
  }
  if (round_up && ++q == kPow10_17) {  // 99…9.5 carries into a new digit
    q = kPow10_16;
    ++e10;
  }

  char digits[17];
  digits[0] = static_cast<char>('0' + q / kPow10_16);
  uint64_t rest = q % kPow10_16;
  for (int i = 15; i >= 1; i -= 2) {
    const size_t pair = static_cast<size_t>(rest % 100) * 2;
    rest /= 100;
    digits[i] = kDigitPairs[pair];
    digits[i + 1] = kDigitPairs[pair + 1];
  }
  int len = 17;  // %g drops trailing zeros; digits[0] is nonzero
  while (digits[len - 1] == '0') --len;

  char* p = out;
  if (value < 0) *p++ = '-';
  if (e10 >= 0) {  // %f with 16 − E decimals: E + 1 integer digits
    const int int_len = e10 + 1;  // e10 <= 16 because a < 1e17
    for (int i = 0; i < int_len; ++i) *p++ = digits[i];
    if (len > int_len) {
      *p++ = '.';
      for (int i = int_len; i < len; ++i) *p++ = digits[i];
    }
  } else if (e10 >= -4) {  // %f: "0." and −E − 1 zeros before the digits
    *p++ = '0';
    *p++ = '.';
    for (int z = -1; z > e10; --z) *p++ = '0';
    for (int i = 0; i < len; ++i) *p++ = digits[i];
  } else {  // %e, E in [−12, −5]: two exponent digits
    *p++ = digits[0];
    if (len > 1) {
      *p++ = '.';
      for (int i = 1; i < len; ++i) *p++ = digits[i];
    }
    *p++ = 'e';
    *p++ = '-';
    *p++ = static_cast<char>('0' + (-e10) / 10);
    *p++ = static_cast<char>('0' + (-e10) % 10);
  }
  return p;
}

std::string DoubleToString(double value) {
  char buf[kDouble17MaxChars];
  return std::string(buf, FormatDouble17(buf, value));
}

}  // namespace dash
