#include "lsm/compaction.h"

#include <algorithm>

namespace bandslim::lsm {

RunMerger::RunMerger(std::span<const MergeInput> inputs) {
  heap_.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& runs = inputs[i].runs;
    Cursor c{nullptr, nullptr, runs.data(), runs.data() + runs.size(),
             static_cast<std::uint32_t>(i)};
    if (NextNonEmpty(&c)) heap_.push_back(c);
  }
  std::make_heap(heap_.begin(), heap_.end(), Greater);
}

bool RunMerger::NextNonEmpty(Cursor* c) {
  for (; c->next_run != c->runs_end; ++c->next_run) {
    const std::vector<SSTableEntry>& run = **c->next_run;
    if (!run.empty()) {
      c->at = run.data();
      c->end = run.data() + run.size();
      ++c->next_run;
      return true;
    }
  }
  return false;
}

bool RunMerger::Greater(const Cursor& a, const Cursor& b) {
  if (const auto order = a.at->key <=> b.at->key; order != 0) return order > 0;
  return a.input > b.input;
}

void RunMerger::SiftTop() {
  // One sift-down, which stops at once while the same input keeps holding
  // the smallest key.
  const Cursor moved = heap_.front();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < heap_.size(); child = 2 * hole + 1) {
    if (child + 1 < heap_.size() && Greater(heap_[child], heap_[child + 1])) {
      ++child;
    }
    if (!Greater(moved, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = moved;
}

std::span<const SSTableEntry> RunMerger::NextRun() {
  while (!heap_.empty()) {
    Cursor& top = heap_.front();
    const SSTableEntry* begin = top.at;
    const SSTableEntry* end = begin + 1;
    if (last_key_ != nullptr && begin->key == *last_key_) {
      // An older version of the key handed out last: skipped.
      begin = end;
    } else if (heap_.size() == 1) {
      end = top.end;
    } else {
      // The run goes on while the keys stay below the runner-up's, the
      // smaller child of the top.
      const Cursor& runner_up =
          heap_.size() > 2 && Greater(heap_[1], heap_[2]) ? heap_[2] : heap_[1];
      const InlineKey& bound = runner_up.at->key;
      while (end != top.end && end->key < bound) ++end;
    }
    top.at = end;
    if (end == top.end && !NextNonEmpty(&top)) {
      top = heap_.back();
      heap_.pop_back();
    }
    if (!heap_.empty()) SiftTop();
    if (begin != end) {
      last_key_ = &(end - 1)->key;
      return {begin, end};
    }
  }
  return {};
}

}  // namespace bandslim::lsm
