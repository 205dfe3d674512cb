#include "lsm/memtable.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <string>

namespace bandslim::lsm {

MemTable::MemTable(std::uint64_t seed)
    : index_(kInitialIndexSlots, 0), rng_(seed) {}

int MemTable::RandomHeight() {
  // Geometric heights with p = 1/4, as in LevelDB.
  int height = 1;
  while (height < kMaxHeight && rng_.Below(4) == 0) ++height;
  return height;
}

std::size_t MemTable::SlotFor(const InlineKey& key, std::uint64_t hash) const {
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  const std::uint32_t tag = Tag(hash, mask);
  std::size_t slot = hash & mask;
  for (; index_[slot] != 0; slot = (slot + 1) & mask) {
    if ((index_[slot] & ~mask) == tag &&
        entries_[(index_[slot] & mask) - 1].key == key) {
      break;
    }
  }
  return slot;
}

void MemTable::Rehash(std::size_t slots) {
  index_.assign(slots, 0);
  const auto mask = static_cast<std::uint32_t>(slots - 1);
  for (std::size_t id = 0; id < entries_.size(); ++id) {
    const std::uint64_t hash = entries_[id].key.Hash();
    std::size_t slot = hash & mask;
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = Tag(hash, mask) | static_cast<std::uint32_t>(id + 1);
  }
}

void MemTable::Put(const InlineKey& key, const ValueRef& ref) {
  const std::uint64_t hash = key.Hash();
  const std::size_t slot = SlotFor(key, hash);
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  if (index_[slot] != 0) {
    entries_[(index_[slot] & mask) - 1].ref = ref;
    return;
  }
  // Only a new key draws a height, in arrival order, so the footprint and
  // the flush points built on it match a skiplist's exactly.
  const int height = RandomHeight();
  entries_.push_back({key, ref});
  if (2 * entries_.size() > index_.size()) {
    Rehash(2 * index_.size());
  } else {
    index_[slot] =
        Tag(hash, mask) | static_cast<std::uint32_t>(entries_.size());
  }
  // Footprint accounting deliberately models the original layout (a
  // std::string key, the ref and a height-entry heap tower of node
  // pointers per skiplist node) rather than the entry array: the total
  // drives the flush threshold, and the deterministic timing built on top
  // of it must not move when the in-memory representation does.
  static constexpr std::size_t kAccountedNodeBytes =
      sizeof(std::string) + sizeof(ValueRef) + sizeof(std::vector<void*>);
  approx_bytes_ += key.size() + sizeof(ValueRef) +
                   static_cast<std::size_t>(height) * sizeof(void*) +
                   kAccountedNodeBytes;
}

const ValueRef* MemTable::Get(const InlineKey& key) const {
  const std::uint32_t value = index_[SlotFor(key, key.Hash())];
  if (value == 0) return nullptr;
  const auto mask = static_cast<std::uint32_t>(index_.size() - 1);
  return &entries_[(value & mask) - 1].ref;
}

void MemTable::Clear() {
  entries_.clear();
  order_.clear();
  std::fill(index_.begin(), index_.end(), 0);
  approx_bytes_ = 0;
}

void MemTable::SortNewKeys() {
  const std::size_t sorted = order_.size();
  const std::size_t n = entries_.size();
  if (sorted == n) return;
  const std::size_t m = n - sorted;
  struct Item {
    std::uint64_t prefix;
    std::uint32_t id;
  };
  auto items = std::make_unique_for_overwrite<Item[]>(m);
  auto spare = std::make_unique_for_overwrite<Item[]>(m);
  // The prefix bits that differ among the new keys: the sort passes over
  // those only (the zero padding of short keys, a shared leading byte and
  // the like take no pass).
  const std::uint64_t first = entries_[sorted].key.Prefix();
  std::uint64_t varying = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t prefix = entries_[sorted + i].key.Prefix();
    items[i] = {prefix, static_cast<std::uint32_t>(sorted + i)};
    varying |= prefix ^ first;
  }
  // LSD radix sort, kDigitBits at a time from the lowest varying bit; each
  // pass is stable, so the last leaves the items in prefix order.
  constexpr int kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  const int high = std::bit_width(varying);
  std::array<std::uint32_t, std::size_t{1} << kDigitBits> count;
  for (int shift = std::countr_zero(varying); shift < high;
       shift += kDigitBits) {
    count.fill(0);
    for (std::size_t i = 0; i < m; ++i) {
      ++count[(items[i].prefix >> shift) & kDigitMask];
    }
    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t here = c;
      c = offset;
      offset += here;
    }
    for (std::size_t i = 0; i < m; ++i) {
      spare[count[(items[i].prefix >> shift) & kDigitMask]++] = items[i];
    }
    std::swap(items, spare);
  }
  const auto by_key = [this](std::uint32_t a, std::uint32_t b) {
    return entries_[a].key < entries_[b].key;
  };
  // Keys sharing a prefix are ordered by the full compare.
  order_.resize(n);
  const auto out = order_.begin() + static_cast<std::ptrdiff_t>(sorted);
  for (std::size_t i = 0; i < m;) {
    std::size_t j = i;
    for (; j < m && items[j].prefix == items[i].prefix; ++j) {
      out[static_cast<std::ptrdiff_t>(j)] = items[j].id;
    }
    if (j - i > 1) {
      std::sort(out + static_cast<std::ptrdiff_t>(i),
                out + static_cast<std::ptrdiff_t>(j), by_key);
    }
    i = j;
  }
  if (sorted > 0) std::inplace_merge(order_.begin(), out, order_.end(), by_key);
}

MemTable::Iterator MemTable::Begin() {
  SortNewKeys();
  return Iterator(entries_.data(), order_.data(),
                  order_.data() + order_.size());
}

MemTable::Iterator MemTable::Seek(const InlineKey& from) {
  SortNewKeys();
  const auto at = std::partition_point(
      order_.begin(), order_.end(),
      [&](std::uint32_t id) { return entries_[id].key < from; });
  return Iterator(entries_.data(), order_.data() + (at - order_.begin()),
                  order_.data() + order_.size());
}

}  // namespace bandslim::lsm
