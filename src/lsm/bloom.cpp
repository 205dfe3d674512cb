#include "lsm/bloom.h"

#include "common/random.h"

namespace bandslim::lsm {

BloomFilter::BloomFilter(std::size_t expected_keys) {
  std::size_t bits = expected_keys * kBitsPerKey;
  if (bits < 64) bits = 64;
  bits_.assign((bits + 7) / 8, 0);
  InitModMagic();
}

BloomFilter::BloomFilter(Bytes bits) : bits_(std::move(bits)) {
  InitModMagic();
}

void BloomFilter::InitModMagic() {
  nbits_ = bits_.size() * 8;
  if (nbits_ == 0) return;
  mod_magic_ = ~static_cast<unsigned __int128>(0) / nbits_ + 1;
}

std::uint64_t BloomFilter::Hash(std::string_view key) {
  // FNV-1a folded through SplitMix64 for avalanche.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return SplitMix64(h);
}

void BloomFilter::Add(std::string_view key) {
  if (bits_.empty()) return;
  const std::uint64_t h = Hash(key);
  std::uint64_t a = h;
  const std::uint64_t b = (h >> 32) | (h << 32);
  for (int i = 0; i < kNumProbes; ++i) {
    const std::uint64_t bit = ModBits(a);
    bits_[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    a += b;
  }
}

bool BloomFilter::MayContainHash(std::uint64_t h) const {
  if (bits_.empty()) return true;  // No filter -> must check the table.
  std::uint64_t a = h;
  const std::uint64_t b = (h >> 32) | (h << 32);
  for (int i = 0; i < kNumProbes; ++i) {
    const std::uint64_t bit = ModBits(a);
    if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) return false;
    a += b;
  }
  return true;
}

}  // namespace bandslim::lsm
