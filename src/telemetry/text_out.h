// Append-only text builders for the exports: strings and characters go in
// verbatim, integers as decimal digits through std::to_chars, all into one
// std::string (TextOut), or into a buffer sized exactly up front
// (RawTextOut). Integer formatting matches an ostream's operator<<, so it
// renders the same bytes a std::ostringstream did, without the locale and
// stream-state machinery per value.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <system_error>
#include <string_view>
#include <type_traits>

namespace bandslim::telemetry {

// Number of decimal digits TextOut renders for `value` (1 for 0): the
// sizing pass of an exact-size export counts with it.
inline std::size_t DecimalDigits(std::uint64_t value) {
  static constexpr auto kPow10 = [] {
    std::array<std::uint64_t, 20> pow10{1};
    for (std::size_t i = 1; i < pow10.size(); ++i) {
      pow10[i] = pow10[i - 1] * 10;
    }
    return pow10;
  }();
  // floor(log10(value)) or one more: log10(2) ~= 1233 / 4096.
  const std::size_t guess =
      static_cast<std::size_t>(std::bit_width(value | 1)) * 1233 >> 12;
  return guess + ((value | 1) >= kPow10[guess] ? 1 : 0);
}

class TextOut {
 public:
  explicit TextOut(std::string* out) : out_(out) {}

  TextOut& operator<<(std::string_view s) {
    out_->append(s);
    return *this;
  }
  TextOut& operator<<(char c) {
    out_->push_back(c);
    return *this;
  }
  // Character-sized integers are excluded: an ostream prints them as
  // characters, not digits.
  template <typename T>
    requires(std::is_integral_v<T> && sizeof(T) > 1)
  TextOut& operator<<(T value) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    out_->append(buf, end);
    return *this;
  }

 private:
  std::string* out_;
};

// TextOut's rendering into a buffer already sized to the byte: text by
// memcpy and integers by std::to_chars through one write pointer, with no
// size or capacity check per piece. Debug builds assert that every write
// stays inside the buffer.
class RawTextOut {
 public:
  RawTextOut(char* begin, char* end) : at_(begin), end_(end) {}

  RawTextOut& operator<<(std::string_view s) {
    assert(s.size() <= static_cast<std::size_t>(end_ - at_));
    std::memcpy(at_, s.data(), s.size());
    at_ += s.size();
    return *this;
  }
  template <typename T>
    requires(std::is_integral_v<T> && sizeof(T) > 1)
  RawTextOut& operator<<(T value) {
    const std::to_chars_result r = std::to_chars(at_, end_, value);
    assert(r.ec == std::errc());
    at_ = r.ptr;
    return *this;
  }

  // The next byte to write.
  const char* at() const { return at_; }

 private:
  char* at_;
  char* end_;
};

}  // namespace bandslim::telemetry
