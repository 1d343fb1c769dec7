// Strict text-to-number parsing shared by the dataset and report readers
// and the query server.

#ifndef UMICRO_UTIL_PARSE_H_
#define UMICRO_UTIL_PARSE_H_

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

namespace umicro::util {

/// Parses all of `text` as a double (strtod syntax). False when `text` is
/// empty, has trailing characters, or is out of range: an overflow or an
/// underflow to zero. A subnormal result is in range: strtod flags it
/// with ERANGE, but it is the correctly rounded value, and the %.17g
/// writers emit such values. `*out` is written only on success.
inline bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (errno != 0 && (value == 0.0 || std::isinf(value))) return false;
  *out = value;
  return true;
}

}  // namespace umicro::util

#endif  // UMICRO_UTIL_PARSE_H_
