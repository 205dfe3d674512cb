// Host-side key-value store (Figure 1a): the conventional stack the paper
// motivates against. A WiscKey-style design — in-host-memory index mapping
// keys to a value log stored as a "file" on a block-interface SSD — driven
// through a modeled kernel path: every operation pays user/kernel crossing
// and filesystem + block-layer costs before the NVMe round trip, and all
// media I/O happens in whole 4 KiB blocks.
//
// Durability modes:
//  * fsync_each_put = true  — every PUT rewrites the vLog tail block
//    (durability parity with a KV-SSD PUT); exhibits the block-granular
//    write amplification the paper's Problem #1/#2 generalize.
//  * fsync_each_put = false — page-cache buffering: the tail block is
//    written once full; fast, but PUTs since the last flush are volatile.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "blockdev/block_ssd.h"
#include "common/status.h"
#include "core/kv_store.h"
#include "lsm/memtable.h"

namespace bandslim::hostkvs {

struct HostKvsConfig {
  bool fsync_each_put = true;
};

// Implements the topology-neutral KvStore interface, so any harness that
// drives a KvSsd or KvCluster through a KvStore& runs unchanged against
// the conventional stack. The batch ops have no kernel bulk path on this
// design: each record pays its own syscall crossings, which IS the
// comparison the paper draws (host-side batching only helps once the
// device understands it).
class HostKvs : public KvStore {
 public:
  HostKvs(blockdev::BlockSsd* ssd, sim::VirtualClock* clock,
          const sim::CostModel* cost, stats::MetricsRegistry* metrics,
          HostKvsConfig config = {});

  using KvStore::Put;
  using KvStore::PutBatch;
  Status Put(std::string_view key, ByteSpan value) override;
  Status GetInto(std::string_view key, Bytes* value) override;
  Status Delete(std::string_view key) override;
  Status PutBatch(std::span<const KvPair> batch) override;
  Result<std::vector<BatchGetResult>> GetBatch(
      std::span<const std::string> keys) override;
  Result<std::uint32_t> DeleteBatch(std::span<const std::string> keys) override;
  // Writes out the buffered tail and the index snapshot, then flushes the
  // device cache (fsync + fdatasync of the index file).
  Status Flush() override;

  // KvStore introspection. The conventional stack reports what it can
  // observe from the host: kernel/block counters (via the registry dump),
  // values written, and the block device's clock. Allocation-free in steady
  // state (mirrors the KvSsd / KvCluster contract): refills `*out` reusing
  // its one-shard snapshot and counter map, so fleet-style sampling loops
  // can poll the conventional stack on the same terms as the KV-SSD
  // topologies.
  void InspectInto(StoreSnapshot* out) const override;
  KvSsdStats GetStats() const override;
  sim::Nanoseconds Now() const override { return clock_->Now(); }

  std::uint64_t puts_issued() const { return puts_issued_; }
  std::uint64_t vlog_bytes() const { return vlog_tail_; }

 private:
  // Models entering the kernel and traversing VFS/FS/block layers once.
  void ChargeKernelPath();
  // Writes the dirty tail block(s) of the vLog file to the device.
  Status SyncTail();

  blockdev::BlockSsd* ssd_;
  sim::VirtualClock* clock_;
  const sim::CostModel* cost_;
  stats::MetricsRegistry* metrics_;  // For the Inspect() counter dump.
  HostKvsConfig config_;
  std::uint64_t value_bytes_written_ = 0;

  lsm::MemTable index_;       // Key -> (vLog offset, size); host RAM.
  std::uint64_t vlog_tail_ = 0;       // Append offset (bytes).
  std::uint64_t synced_until_ = 0;    // All bytes below are on the device.
  Bytes staging_;                     // Page-cache image of the tail block.

  std::uint64_t puts_issued_ = 0;
  stats::Counter* kernel_crossings_;
  stats::Counter* block_ios_;
};

}  // namespace bandslim::hostkvs
