// Append-only text builder for the exports: strings and characters go in
// verbatim, integers as decimal digits through std::to_chars, all into one
// std::string. Integer formatting matches an ostream's operator<<, so it
// renders the same bytes a std::ostringstream did, without the locale and
// stream-state machinery per value.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

namespace bandslim::telemetry {

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

}  // namespace bandslim::telemetry
