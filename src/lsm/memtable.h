// MemTable: the in-memory component of the device LSM-tree (Figure 2),
// mapping keys to vLog value references. Entries are (key -> address,
// size) — values themselves live in the vLog; this is the key-value
// separation the paper builds on (Section 2.1).
//
// Entries live in insertion order in one array, found through an exact
// hash index (open addressing, linear probing, load at most 1/2) that is
// always on: a Put() is one probe plus an overwrite in place or an append,
// and a Get() is one probe. Key order is built only when it is read:
// Begin() and Seek() sort the keys that arrived since the last ordered
// read (a radix sort on the big-endian 8-byte prefix, the full compare
// only within equal prefixes) and merge them into the order kept from
// before. A flush-bound PUT stream therefore sorts once per flush.
//
// The DRAM footprint that decides flush points is modeled, not measured:
// each new key draws the tower height a seeded skiplist node would get
// and is charged for it, so runs reproduce exactly (see approximate_bytes).
//
// Lifetimes: a pointer from Get() and any Iterator stay valid until the
// next Put() of a new key (an overwrite keeps them) or Clear().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "lsm/inline_key.h"
#include "vlog/address.h"

namespace bandslim::lsm {

struct ValueRef {
  vlog::VlogAddr addr = 0;
  std::uint32_t size = 0;
  bool tombstone = false;
};

class MemTable {
 private:
  struct Entry {
    InlineKey key;
    ValueRef ref;
  };

 public:
  explicit MemTable(std::uint64_t seed = 0x5eed);

  // Inserts or overwrites.
  void Put(const InlineKey& key, const ValueRef& ref);
  void Delete(const InlineKey& key) { Put(key, ValueRef{0, 0, true}); }

  // Returns the entry (including tombstones) or nullptr.
  const ValueRef* Get(const InlineKey& key) const;

  std::size_t entry_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  // Modeled DRAM footprint: per key, its bytes, the ref and the tower of a
  // skiplist node (see Put()).
  std::size_t approximate_bytes() const { return approx_bytes_; }

  // Empties the table, keeping its storage for the next fill.
  void Clear();

  // Forward iteration in key order, starting at the first key >= `from`.
  class Iterator {
   public:
    bool Valid() const { return at_ != end_; }
    const InlineKey& key() const { return entries_[*at_].key; }
    const ValueRef& ref() const { return entries_[*at_].ref; }
    void Next() { ++at_; }

   private:
    friend class MemTable;
    Iterator(const Entry* entries, const std::uint32_t* at,
             const std::uint32_t* end)
        : entries_(entries), at_(at), end_(end) {}
    const Entry* entries_;
    const std::uint32_t* at_;
    const std::uint32_t* end_;
  };
  Iterator Seek(const InlineKey& from);
  Iterator Begin();

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr std::size_t kInitialIndexSlots = 64;  // A power of two.

  // The tower height a LevelDB skiplist node would draw; only the
  // footprint uses it.
  int RandomHeight();
  // Index slot holding `key` (hash `hash`), or the empty slot where it
  // would go.
  std::size_t SlotFor(const InlineKey& key, std::uint64_t hash) const;
  // The hash bits a slot keeps above the entry id, in an index of
  // `mask` + 1 slots.
  static std::uint32_t Tag(std::uint64_t hash, std::uint32_t mask) {
    return static_cast<std::uint32_t>(hash >> 32) & ~mask;
  }
  // Rebuilds the index over every entry with `slots` (a power of two of
  // at least twice entry_count()) slots.
  void Rehash(std::size_t slots);
  // Extends order_ over every entry: sorts the ids appended since the last
  // call and merges them into the ids already ordered.
  void SortNewKeys();

  std::vector<Entry> entries_;  // Insertion order.
  // Point index: a power-of-two slot array, 0 = empty. A slot holds an
  // entry id + 1 in its low bits (below the slot count) and, above them,
  // the matching bits of the key's hash's high word, so a probe reads an
  // entry only when those bits match; the slot comes from the hash's low
  // bits.
  std::vector<std::uint32_t> index_;
  // Entry ids in key order; covers entries_[0, order_.size()).
  std::vector<std::uint32_t> order_;
  std::size_t approx_bytes_ = 0;
  Xoshiro256 rng_;
};

}  // namespace bandslim::lsm
