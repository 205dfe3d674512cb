// Bloom filter for SSTable key membership. Filters live in device DRAM
// alongside the table metadata (as PinK keeps its meta resident), so a GET
// for an absent key skips the NAND reads of loading the table. Double
// hashing over a 64-bit mix gives k probe positions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace bandslim::lsm {

class BloomFilter {
 public:
  // ~10 bits/key, k = 7: <1 % false-positive rate.
  static constexpr std::size_t kBitsPerKey = 10;
  static constexpr int kNumProbes = 7;

  BloomFilter() = default;

  // Builds a filter sized for `expected_keys`.
  explicit BloomFilter(std::size_t expected_keys);
  // Reconstructs from serialized bits.
  explicit BloomFilter(Bytes bits);

  void Add(std::string_view key);
  // False negatives never happen; false positives at the configured rate.
  bool MayContain(std::string_view key) const {
    return MayContainHash(Hash(key));
  }
  // The key hash every filter probes from: a lookup that checks several
  // filters for one key hashes it once.
  static std::uint64_t Hash(std::string_view key);
  // MayContain() for the key whose Hash() is `hash`.
  bool MayContainHash(std::uint64_t hash) const;

  const Bytes& bits() const { return bits_; }
  bool empty() const { return bits_.empty(); }

 private:
  // `x % nbits` via Lemire's fastmod (a multiply instead of a hardware
  // divide on every probe). Produces exactly the same bit positions as the
  // plain modulo, so filter contents and false-positive behaviour — and the
  // simulated timing that depends on them — are unchanged.
  std::uint64_t ModBits(std::uint64_t x) const {
    const unsigned __int128 lowbits = mod_magic_ * x;
    const unsigned __int128 bottom =
        (lowbits & ~std::uint64_t{0}) * nbits_ >> 64;
    const unsigned __int128 top = (lowbits >> 64) * nbits_;
    return static_cast<std::uint64_t>((bottom + top) >> 64);
  }
  void InitModMagic();

  Bytes bits_;
  std::uint64_t nbits_ = 0;
  unsigned __int128 mod_magic_ = 0;  // floor(2^128 / nbits_) + 1.
};

}  // namespace bandslim::lsm
