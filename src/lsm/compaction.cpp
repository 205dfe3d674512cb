#include "lsm/compaction.h"

#include <algorithm>

namespace bandslim::lsm {

Status MergeRuns(const std::vector<MergeInput>& inputs, bool drop_tombstones,
                 const std::function<Status(const SSTableEntry&)>& sink) {
  struct Cursor {
    const SSTableEntry* at;
    const SSTableEntry* end;
    std::uint32_t age;
    std::uint32_t input;
  };
  // Min-heap on (key, age, input): the newest version of a key pops first.
  auto greater = [](const Cursor& a, const Cursor& b) {
    if (const auto order = a.at->key <=> b.at->key; order != 0) return order > 0;
    return a.age != b.age ? a.age > b.age : a.input > b.input;
  };
  std::vector<Cursor> heap;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<SSTableEntry>& run = *inputs[i].run;
    if (!run.empty()) {
      heap.push_back({run.data(), run.data() + run.size(), inputs[i].age,
                      static_cast<std::uint32_t>(i)});
    }
  }
  std::make_heap(heap.begin(), heap.end(), greater);
  // Restores the heap after its top cursor advanced: one sift-down, which
  // stops at once while the same input keeps holding the smallest key.
  auto sift_top = [&] {
    const Cursor moved = heap.front();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < heap.size(); child = 2 * hole + 1) {
      if (child + 1 < heap.size() && greater(heap[child], heap[child + 1])) {
        ++child;
      }
      if (!greater(moved, heap[child])) break;
      heap[hole] = heap[child];
      hole = child;
    }
    heap[hole] = moved;
  };

  // Inputs outlive the merge, so the last key is tracked by pointer.
  const InlineKey* last_key = nullptr;
  while (!heap.empty()) {
    Cursor& top = heap.front();
    const SSTableEntry& e = *top.at;
    if (last_key == nullptr || e.key != *last_key) {
      if (!(drop_tombstones && e.ref.tombstone)) {
        BANDSLIM_RETURN_IF_ERROR(sink(e));
      }
      last_key = &e.key;
    }
    if (++top.at == top.end) {
      top = heap.back();
      heap.pop_back();
    }
    if (!heap.empty()) sift_top();
  }
  return Status::Ok();
}

}  // namespace bandslim::lsm
