// Merge machinery for LSM compaction and iteration. Sorted inputs are
// merged in one streaming pass with newest-first precedence; shadowed
// entries are dropped and tombstones are elided only when merging into the
// bottom-most populated level (no older data can be resurrected). Thanks to
// key-value separation only references move — values stay put in the vLog
// (Section 2.1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "lsm/sstable.h"

namespace bandslim::lsm {

// One sorted input with unique keys. On equal keys the lower `age` (newer)
// wins; inputs that never share a key, such as one level's disjoint
// tables, may share an age.
struct MergeInput {
  std::shared_ptr<const std::vector<SSTableEntry>> run;
  std::uint32_t age = 0;
};

// Streams the merge of `inputs` into `sink` in key order, one entry per
// key. Stops at, and returns, the first error `sink` returns.
Status MergeRuns(const std::vector<MergeInput>& inputs, bool drop_tombstones,
                 const std::function<Status(const SSTableEntry&)>& sink);

}  // namespace bandslim::lsm
