#include "util/strings.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <system_error>

#include "util/check.h"

namespace dash {

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

void AppendDouble(std::string* out, double value) {
  char buf[32];  // "%.17g" needs at most 24: "-1.2345678901234567e-308"
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  DASH_CHECK(r.ec == std::errc());
  out->append(buf, r.ptr);
}

std::string DoubleToString(double value) {
  std::string out;
  AppendDouble(&out, value);
  return out;
}

}  // namespace dash
