// Small string helpers (split/join/trim/parse) used by CSV I/O and the
// bench harnesses. Parsing returns Result rather than throwing.

#ifndef DASH_UTIL_STRINGS_H_
#define DASH_UTIL_STRINGS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace dash {

// Splits on every occurrence of `sep`; empty fields are preserved.
std::vector<std::string> StrSplit(std::string_view text, char sep);

// Joins with `sep` between elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// Strict numeric parsing of the full string.
Result<double> ParseDouble(std::string_view text);
Result<int64_t> ParseInt64(std::string_view text);

// The longest FormatDouble17 output: "-1.2345678901234567e-308".
inline constexpr size_t kDouble17MaxChars = 24;

// Writes the bytes of printf("%.17g", value) at `out`, which must have
// room for kDouble17MaxChars, and returns one past the last byte written.
// Enough digits to round-trip, untrimmed (0.1 -> "0.10000000000000001"),
// and no locale or stdio is involved. A normal |value| in [1e-11, 1e17)
// is formatted by exact integer arithmetic (DESIGN.md §6): the 17
// digits are ⌊|value|·10^k⌋ in 128 bits, rounded half-even from the
// exact remainder. Zero, subnormals, NaN, ±inf and every other
// magnitude go through std::to_chars(general, 17). Either way the bytes
// are printf's; tests/util_misc_test.cc checks them against
// std::to_chars and snprintf.
char* FormatDouble17(char* out, double value);

// FormatDouble17 as a string.
std::string DoubleToString(double value);

}  // namespace dash

#endif  // DASH_UTIL_STRINGS_H_
