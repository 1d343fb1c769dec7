// In-place token reader for the text formats in io/: whitespace-separated
// words and strict decimal numbers, read with std::from_chars straight
// out of the input, with no stream and no copy.

#ifndef UMICRO_IO_TEXT_CURSOR_H_
#define UMICRO_IO_TEXT_CURSOR_H_

#include <charconv>
#include <cmath>
#include <cstddef>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace umicro::io {

/// Reads the tokens of one text in order. The token rule
/// (docs/data_formats.md):
///   - tokens are separated by whitespace (space, \t, \n, \v, \f, \r);
///   - a number is decimal with no leading '+', and ends at whitespace
///     or at the end of the input ("1.5labels" is not a number);
///   - an unsigned field takes no sign at all;
///   - a double is finite and in range: a subnormal is accepted, a
///     value that rounds to zero or to infinity ("1e-400", "1e400") is
///     not, and neither are "inf" and "nan".
/// Once a read fails every later read fails too, like a stream's
/// failbit, so a parser can chain reads and check them once.
class TextCursor {
 public:
  explicit TextCursor(std::string_view text) : text_(text) {}

  /// Bytes not yet consumed.
  std::size_t remaining() const { return text_.size() - pos_; }

  /// Reads the next word: the longest run of non-whitespace bytes.
  bool Word(std::string_view* out) {
    if (failed_) return false;
    SkipSpace();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    if (pos_ == start) return Fail();
    *out = text_.substr(start, pos_ - start);
    return true;
  }

  /// Reads the next word and requires it to be `keyword`.
  bool Keyword(std::string_view keyword) {
    std::string_view word;
    if (!Word(&word)) return false;
    return word == keyword || Fail();
  }

  /// Reads the next token as an integer (decimal, or in `base`) or as a
  /// finite double, under the token rule above.
  template <typename T>
  bool Number(T* out, int base = 10) {
    if (failed_) return false;
    SkipSpace();
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + text_.size();
    T value{};
    std::from_chars_result result;
    if constexpr (std::is_floating_point_v<T>) {
      result = std::from_chars(first, last, value);
    } else {
      result = std::from_chars(first, last, value, base);
    }
    if (result.ec != std::errc() ||
        (result.ptr != last && !IsSpace(*result.ptr))) {
      return Fail();
    }
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) return Fail();
    }
    pos_ = static_cast<std::size_t>(result.ptr - text_.data());
    *out = value;
    return true;
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  bool Fail() {
    failed_ = true;
    return false;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace umicro::io

#endif  // UMICRO_IO_TEXT_CURSOR_H_
