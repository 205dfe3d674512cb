// InlineKey: an LSM key held by value. BandSlim carries a key of at most
// kMaxKeySize (16) bytes inline in the NVMe KV command (dword2-3 +
// dword14-15, Figure 6), and the device LSM holds it the same way: the key
// bytes zero padded to 16, plus their length. It is trivially copyable, so
// MemTable entries, SSTable entries, merge cursors and the decoded caches
// copy 24 bytes and never touch the heap.
//
// Order: the two big-endian 64-bit words, then the length. That is exactly
// std::string's order (unsigned bytes, a proper prefix first): the first
// differing byte decides the words, zero padding sorts at or below any key
// byte, and the length breaks the one tie padding leaves (a prefix followed
// only by 0x00 bytes).
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/types.h"

namespace bandslim::lsm {

class InlineKey {
 public:
  InlineKey() = default;
  // Implicit from anything that views as a string (std::string, literals,
  // std::string_view). A key longer than kMaxKeySize keeps its first 16
  // bytes and length kMaxKeySize + 1: it then sorts where the whole key
  // would among keys of up to 16 bytes and equals none of them, and
  // nothing is written past the inline buffer.
  template <typename S>
    requires std::convertible_to<const S&, std::string_view>
  InlineKey(const S& key) {  // NOLINT
    const std::string_view view(key);
    const std::size_t n = std::min(view.size(), kMaxKeySize);
    if (n > 0) std::memcpy(bytes_, view.data(), n);
    len_ = static_cast<std::uint8_t>(std::min(view.size(), kMaxKeySize + 1));
  }

  // The key bytes (the first 16 of an over-long key).
  std::string_view view() const {
    return {bytes_, std::min<std::size_t>(len_, kMaxKeySize)};
  }
  // kMaxKeySize + 1 for an over-long key.
  std::size_t size() const { return len_; }

  friend bool operator==(const InlineKey& a, const InlineKey& b) {
    return a.Raw(0) == b.Raw(0) && a.Raw(1) == b.Raw(1) && a.len_ == b.len_;
  }
  friend std::strong_ordering operator<=>(const InlineKey& a,
                                          const InlineKey& b) {
    const std::uint64_t a0 = a.Word(0), b0 = b.Word(0);
    if (a0 != b0) return a0 <=> b0;
    const std::uint64_t a1 = a.Word(1), b1 = b.Word(1);
    if (a1 != b1) return a1 <=> b1;
    return a.len_ <=> b.len_;
  }

  // The first 8 key bytes as a big-endian word: keys with different
  // prefixes order as their prefixes do (the MemTable's radix sort keys on
  // it and compares in full only within an equal prefix).
  std::uint64_t Prefix() const { return Word(0); }

  // A 64-bit hash for the point indexes, mixing both words and the length
  // through SplitMix64's finalizer: keys that share their first 8 or 15
  // bytes, or differ only by a trailing 0x00, still spread across slots.
  std::uint64_t Hash() const {
    return Mix(Mix(Raw(0) ^ (len_ * 0x9e3779b97f4a7c15ULL)) ^ Raw(1));
  }

 private:
  static std::uint64_t Mix(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  std::uint64_t Raw(int i) const {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes_ + 8 * i, sizeof w);
    return w;
  }
  // Word i read big-endian: integer order is byte order.
  std::uint64_t Word(int i) const {
    const std::uint64_t w = Raw(i);
    if constexpr (std::endian::native == std::endian::little) {
      return __builtin_bswap64(w);
    }
    return w;
  }

  alignas(8) char bytes_[kMaxKeySize] = {};
  std::uint8_t len_ = 0;
};

static_assert(std::is_trivially_copyable_v<InlineKey>);
static_assert(sizeof(InlineKey) == 24);

}  // namespace bandslim::lsm
