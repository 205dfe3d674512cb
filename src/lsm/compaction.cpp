#include "lsm/compaction.h"

#include <queue>

namespace bandslim::lsm {

Status MergeRuns(const std::vector<MergeInput>& inputs, bool drop_tombstones,
                 const std::function<Status(const SSTableEntry&)>& sink) {
  struct Cursor {
    std::size_t input;
    std::size_t index;
  };
  auto entry_of = [&](const Cursor& c) -> const SSTableEntry& {
    return (*inputs[c.input].run)[c.index];
  };
  // Min-heap on (key, age, input): the newest version of a key pops first.
  auto greater = [&](const Cursor& a, const Cursor& b) {
    const int order = entry_of(a).key.compare(entry_of(b).key);
    if (order != 0) return order > 0;
    const std::uint32_t age_a = inputs[a.input].age;
    const std::uint32_t age_b = inputs[b.input].age;
    return age_a != age_b ? age_a > age_b : a.input > b.input;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(greater);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!inputs[i].run->empty()) heap.push({i, 0});
  }

  // Inputs outlive the merge, so the last key is tracked by pointer.
  const std::string* last_key = nullptr;
  while (!heap.empty()) {
    const Cursor c = heap.top();
    heap.pop();
    const SSTableEntry& e = entry_of(c);
    if (last_key == nullptr || e.key != *last_key) {
      if (!(drop_tombstones && e.ref.tombstone)) {
        BANDSLIM_RETURN_IF_ERROR(sink(e));
      }
      last_key = &e.key;
    }
    if (c.index + 1 < inputs[c.input].run->size()) {
      heap.push({c.input, c.index + 1});
    }
  }
  return Status::Ok();
}

}  // namespace bandslim::lsm
