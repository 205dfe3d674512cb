#include "lsm/memtable.h"

#include <algorithm>
#include <bit>
#include <new>
#include <string>
#include <type_traits>

namespace bandslim::lsm {

static_assert(std::is_trivially_destructible_v<InlineKey> &&
                  std::is_trivially_destructible_v<ValueRef>,
              "Clear() rewinds the arena without running destructors");

MemTable::MemTable(std::uint64_t seed) : rng_(seed) {
  blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(kArenaBlockBytes));
  Clear();
}

int MemTable::RandomHeight() {
  // Geometric heights with p = 1/4, as in LevelDB.
  int height = 1;
  while (height < kMaxHeight && rng_.Below(4) == 0) ++height;
  return height;
}

MemTable::Node* MemTable::NewNode(const InlineKey& key, const ValueRef& ref,
                                  int height) {
  const std::size_t bytes =
      sizeof(Node) + static_cast<std::size_t>(height) * sizeof(Node*);
  static_assert(sizeof(Node) % alignof(Node) == 0 &&
                alignof(Node) == alignof(Node*));
  if (used_ + bytes > kArenaBlockBytes) {
    if (++block_ == blocks_.size()) {
      blocks_.push_back(
          std::make_unique_for_overwrite<std::byte[]>(kArenaBlockBytes));
    }
    used_ = 0;
  }
  Node* node = new (blocks_[block_].get() + used_) Node{key, ref};
  used_ += bytes;
  std::fill_n(node->next(), height, nullptr);
  return node;
}

MemTable::Node* MemTable::FindGreaterOrEqual(const InlineKey& key,
                                             Node** prev) const {
  Node* node = head_;
  for (int level = height_ - 1; level >= 0; --level) {
    Node* next = node->next()[level];
    while (next != nullptr && next->key < key) {
      node = next;
      next = node->next()[level];
    }
    if (prev != nullptr) prev[level] = node;
  }
  return node->next()[0];
}

std::size_t MemTable::SlotFor(const InlineKey& key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = key.Hash() & mask;
  while (index_[slot] != nullptr && !(index_[slot]->key == key)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void MemTable::IndexAll(std::size_t slots) const {
  index_.assign(slots, nullptr);
  const std::size_t mask = slots - 1;
  for (Node* node = head_->next()[0]; node != nullptr; node = node->next()[0]) {
    std::size_t slot = node->key.Hash() & mask;
    while (index_[slot] != nullptr) slot = (slot + 1) & mask;
    index_[slot] = node;
  }
  indexed_ = true;
}

void MemTable::Put(const InlineKey& key, const ValueRef& ref) {
  std::size_t slot = 0;
  if (indexed_) {
    slot = SlotFor(key);
    if (index_[slot] != nullptr) {
      index_[slot]->ref = ref;
      return;
    }
  }
  Node* prev[kMaxHeight];
  Node* found = FindGreaterOrEqual(key, prev);
  if (found != nullptr && found->key == key) {
    found->ref = ref;
    return;
  }
  const int height = RandomHeight();
  for (; height_ < height; ++height_) prev[height_] = head_;
  Node* node = NewNode(key, ref, height);
  for (int level = 0; level < height; ++level) {
    node->next()[level] = prev[level]->next()[level];
    prev[level]->next()[level] = node;
  }
  ++count_;
  if (indexed_) {
    if (2 * count_ > index_.size()) {
      IndexAll(2 * index_.size());
    } else {
      index_[slot] = node;
    }
  }
  // Footprint accounting deliberately models the original layout (a
  // std::string key, the ref and a height-entry heap tower per node) rather
  // than the arena node: the total drives the flush threshold, and the
  // deterministic timing built on top of it must not move when the
  // in-memory representation does.
  static constexpr std::size_t kAccountedNodeBytes =
      sizeof(std::string) + sizeof(ValueRef) + sizeof(std::vector<Node*>);
  approx_bytes_ += key.size() + sizeof(ValueRef) +
                   static_cast<std::size_t>(height) * sizeof(Node*) +
                   kAccountedNodeBytes;
}

const ValueRef* MemTable::Get(const InlineKey& key) const {
  if (!indexed_) {
    IndexAll(std::max({kInitialIndexSlots, index_.size(),
                       std::bit_ceil(2 * count_)}));
  }
  Node* node = index_[SlotFor(key)];
  return node != nullptr ? &node->ref : nullptr;
}

void MemTable::Clear() {
  block_ = 0;
  used_ = 0;
  head_ = NewNode(InlineKey(), ValueRef(), kMaxHeight);
  indexed_ = false;
  height_ = 1;
  count_ = 0;
  approx_bytes_ = 0;
}

MemTable::Iterator MemTable::Seek(const InlineKey& from) const {
  return Iterator(FindGreaterOrEqual(from, nullptr));
}

}  // namespace bandslim::lsm
