// Merge machinery for LSM compaction and iteration. Sorted inputs are
// merged in one streaming pass with newest-first precedence; shadowed
// entries are dropped and tombstones are elided only when merging into the
// bottom-most populated level (no older data can be resurrected). Thanks to
// key-value separation only references move — values stay put in the vLog
// (Section 2.1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lsm/sstable.h"

namespace bandslim::lsm {

// One merge input: sorted runs with unique keys, in key order and pairwise
// disjoint — a single run, or one level's tables, which share an age —
// read as one chained cursor.
struct MergeInput {
  std::vector<std::shared_ptr<const std::vector<SSTableEntry>>> runs;
};

// The merge of inputs given newest first (on equal keys the earlier input
// wins), handed out as runs of consecutive entries of one input: every
// entry of a run is the newest version of its key, and the runs follow one
// another in key order. A run lasts while its input's keys stay below
// every other input's next key, so a heap step is paid per run, not per
// entry.
class RunMerger {
 public:
  // `inputs` must outlive the merger.
  explicit RunMerger(std::span<const MergeInput> inputs);

  // The next run, or an empty span once every input is drained.
  std::span<const SSTableEntry> NextRun();

 private:
  struct Cursor {
    const SSTableEntry* at;
    const SSTableEntry* end;
    // The input's remaining runs.
    const std::shared_ptr<const std::vector<SSTableEntry>>* next_run;
    const std::shared_ptr<const std::vector<SSTableEntry>>* runs_end;
    std::uint32_t input;
  };
  // Moves `c` to its input's next nonempty run; false when none is left.
  static bool NextNonEmpty(Cursor* c);
  // Heap order on (key, input): the newest version of a key pops first.
  static bool Greater(const Cursor& a, const Cursor& b);
  // Restores the heap after its top cursor advanced.
  void SiftTop();

  std::vector<Cursor> heap_;
  const InlineKey* last_key_ = nullptr;  // The last entry handed out.
};

// Streams the merge of `inputs` (newest first) into `sink`, one entry per
// key, as a Status(const SSTableEntry&) call inlined into the loop. Stops
// at, and returns, the first error `sink` returns.
template <typename Sink>
Status MergeRuns(std::span<const MergeInput> inputs, bool drop_tombstones,
                 Sink&& sink) {
  RunMerger merger(inputs);
  for (auto run = merger.NextRun(); !run.empty(); run = merger.NextRun()) {
    for (const SSTableEntry& e : run) {
      if (drop_tombstones && e.ref.tombstone) continue;
      BANDSLIM_RETURN_IF_ERROR(sink(e));
    }
  }
  return Status::Ok();
}

}  // namespace bandslim::lsm
