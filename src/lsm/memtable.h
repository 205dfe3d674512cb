// MemTable: the in-memory component of the device LSM-tree (Figure 2),
// mapping keys to vLog value references. Implemented as a classic skiplist
// with deterministic (seeded) tower heights so runs reproduce exactly.
// Entries are (key -> address, size) — values themselves live in the vLog;
// this is the key-value separation the paper builds on (Section 2.1).
//
// Keys are InlineKeys, and every node is bump-allocated from the table's
// own arena with a tower sized to its drawn height; Clear() rewinds the
// arena and keeps its blocks for the next fill.
//
// Beside the skiplist sits an exact hash index from key to node (open
// addressing, linear probing, load at most 1/2), built by the first Get()
// after a Clear() and kept up to date from then on. Get() is one index
// probe. While the index exists, a Put() of a key already present
// overwrites through it without walking the skiplist; a fill that nobody
// reads (a load, a flush-bound PUT stream) never pays for it. Only a new
// key draws a height, so heights — and the footprint and flush points that
// follow from them — do not depend on the index. The skiplist serves
// ordered iteration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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
  struct Node {
    InlineKey key;
    ValueRef ref;
    // The node's tower: `height` forward pointers laid out right after the
    // node in the arena (NewNode sizes the allocation to cover them).
    Node** next() { return reinterpret_cast<Node**>(this + 1); }
    Node* const* next() const {
      return reinterpret_cast<Node* const*>(this + 1);
    }
  };

 public:
  explicit MemTable(std::uint64_t seed = 0x5eed);

  // Inserts or overwrites.
  void Put(const InlineKey& key, const ValueRef& ref);
  void Delete(const InlineKey& key) { Put(key, ValueRef{0, 0, true}); }

  // Returns the entry (including tombstones) or nullptr.
  const ValueRef* Get(const InlineKey& key) const;

  std::size_t entry_count() const { return count_; }
  bool empty() const { return count_ == 0; }
  // Approximate DRAM footprint: keys + refs + tower pointers.
  std::size_t approximate_bytes() const { return approx_bytes_; }

  void Clear();

  // Forward iteration in key order, starting at the first key >= `from`.
  class Iterator {
   public:
    bool Valid() const { return node_ != nullptr; }
    const InlineKey& key() const { return node_->key; }
    const ValueRef& ref() const { return node_->ref; }
    void Next() { node_ = node_->next()[0]; }

   private:
    friend class MemTable;
    explicit Iterator(const Node* node) : node_(node) {}
    const Node* node_;
  };
  Iterator Seek(const InlineKey& from) const;
  Iterator Begin() const { return Iterator(head_->next()[0]); }

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr std::size_t kArenaBlockBytes = 64 * 1024;
  static constexpr std::size_t kInitialIndexSlots = 1024;  // A power of two.

  int RandomHeight();
  // Index slot holding `key`'s node, or the empty slot where it would go.
  std::size_t SlotFor(const InlineKey& key) const;
  // (Re)builds the index over every node with `slots` (a power of two of
  // at least twice entry_count()) slots.
  void IndexAll(std::size_t slots) const;
  // A node with a `height`-pointer null tower, from the arena.
  Node* NewNode(const InlineKey& key, const ValueRef& ref, int height);
  // First node with key >= `key`; when `prev` is non-null it receives the
  // last node with key < `key` at every level.
  Node* FindGreaterOrEqual(const InlineKey& key, Node** prev) const;

  // Arena: fixed-size blocks filled in order; blocks_[block_] holds the
  // next free byte at offset used_.
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  std::size_t block_ = 0;
  std::size_t used_ = 0;
  Node* head_ = nullptr;
  // Point index: a power-of-two slot array, nullptr = empty. Valid only
  // while indexed_; Clear() drops it, and the rebuild reuses its storage.
  mutable std::vector<Node*> index_;
  mutable bool indexed_ = false;
  int height_ = 1;
  std::size_t count_ = 0;
  std::size_t approx_bytes_ = 0;
  Xoshiro256 rng_;
};

}  // namespace bandslim::lsm
