// Small string helpers (split/join/trim/parse) used by CSV I/O and the
// bench harnesses. Parsing returns Result rather than throwing.

#ifndef DASH_UTIL_STRINGS_H_
#define DASH_UTIL_STRINGS_H_

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

// Formats a double with enough digits to round-trip: the bytes of
// printf("%.17g"), untrimmed (0.1 -> "0.10000000000000001"), through
// std::to_chars, so no locale or stdio is involved.
std::string DoubleToString(double value);

// Appends DoubleToString(value) to *out without a temporary string.
void AppendDouble(std::string* out, double value);

}  // namespace dash

#endif  // DASH_UTIL_STRINGS_H_
