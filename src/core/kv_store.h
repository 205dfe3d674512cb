// bandslim::KvStore — the topology-neutral client API.
//
// One handle drives any KV backend in the tree:
//   * KvSsd      — a single simulated KV-SSD (core/kvssd.h),
//   * KvCluster  — a host-side router sharding keys across a fleet of
//                  KvSsd instances (cluster/kv_cluster.h),
//   * HostKvs    — the conventional host-side stack on a block SSD the
//                  paper motivates against (hostkvs/host_kvs.h).
//
// Examples, benches, and the workload executors accept a KvStore&, so every
// harness runs unchanged against one device or a sharded fleet. The
// interface is the KV data path plus observation; device maintenance
// (power cycling, fault arming, queue drivers) stays on the concrete types.
//
// Contracts every implementation must honor:
//   * GetBatch returns EXACTLY one result per requested key, in request
//     order — even when keys land on different shards of a cluster and the
//     per-shard sub-batches complete in a different order. Absent keys are
//     reported in place as found == false, never compacted away.
//   * DeleteBatch skips absent keys (not an error) and returns how many
//     were actually removed, summed across shards.
//   * All timing is virtual: Now() is the store's client-visible clock, and
//     a run is deterministic for a given option set and op sequence.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/snapshot.h"
#include "driver/driver.h"
#include "sim/clock.h"

namespace bandslim {

// Aggregated observation point for any KvStore: the summed counter block
// plus one DeviceSnapshot per backing device. A bare KvSsd reports itself
// as a one-shard store; a KvCluster reports its router-level accounting on
// top of the per-shard snapshots.
struct StoreSnapshot {
  // Summed across shards; elapsed_ns is the store's own clock (Now()), not
  // a sum — virtual times of concurrently running shards do not add.
  KvSsdStats stats;
  std::vector<DeviceSnapshot> shards;  // Shard-index order; size 1 = device.

  // Router-level accounting (all zero for a non-clustered store).
  std::uint64_t batch_subops = 0;         // Shard-local sub-batches issued.
  std::uint64_t cross_shard_batches = 0;  // Batches spanning >= 2 shards.
  std::uint64_t qos_refill_windows = 0;   // Admission credit refills.

  // Fleet-level watchdog state (telemetry/fleet.h), one entry per configured
  // fleet rule — shard imbalance, hot-shard p99 skew, ring skew, straggler
  // stall. Empty for a non-clustered store or a disabled aggregator;
  // per-DEVICE watchdog alerts stay on each shard's DeviceSnapshot.
  std::vector<DeviceSnapshot::AlertInfo> alerts;
  // Fleet aggregator stream sizes (0 when absent or disabled).
  std::uint64_t fleet_samples = 0;
  std::uint64_t fleet_events = 0;

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards.size());
  }
};

class KvStore {
 public:
  // The batch record types are the driver's: one wire format regardless of
  // which topology carries the batch.
  using KvPair = driver::KvDriver::KvPair;
  using BatchGetResult = driver::KvDriver::BatchGetResult;

  virtual ~KvStore() = default;

  // --- KV API --------------------------------------------------------------
  virtual Status Put(std::string_view key, ByteSpan value) = 0;
  Status Put(std::string_view key, std::string_view value) {
    return Put(key,
               ByteSpan(reinterpret_cast<const std::uint8_t*>(value.data()),
                        value.size()));
  }
  virtual Result<Bytes> Get(std::string_view key) = 0;
  // Allocation-free GET: fills `*value` in place, reusing its capacity.
  virtual Status GetInto(std::string_view key, Bytes* value) = 0;
  virtual Status Delete(std::string_view key) = 0;

  // Host-side batching (Dotori/KV-CSD style, Section 1). A cluster splits
  // the batch by owner shard, dispatches the sub-batches in parallel time
  // frames, and merges results; see the ordering contract above.
  virtual Status PutBatch(std::span<const KvPair> batch) = 0;
  Status PutBatch(std::initializer_list<KvPair> batch) {
    return PutBatch(std::span<const KvPair>(batch.begin(), batch.size()));
  }
  // Bulk GET: one result per key, in REQUEST order (absent -> !found).
  virtual Result<std::vector<BatchGetResult>> GetBatch(
      std::span<const std::string> keys) = 0;
  // Bulk DELETE: returns how many keys were actually removed.
  virtual Result<std::uint32_t> DeleteBatch(
      std::span<const std::string> keys) = 0;

  // Drains buffered state to durable media on every backing device.
  virtual Status Flush() = 0;

  // --- Introspection -------------------------------------------------------
  // One-call observation point aggregating every backing device.
  virtual StoreSnapshot Inspect() const = 0;
  // In-place variant for sampling loops: refills `*out`, reusing its
  // vectors, maps and strings. Concrete stores override this to be
  // allocation-free in steady state (no structural change since the last
  // call); the default falls back to a full Inspect() copy.
  virtual void InspectInto(StoreSnapshot* out) const { *out = Inspect(); }
  // Summed counter block (cheaper than Inspect when only counters matter).
  virtual KvSsdStats GetStats() const = 0;
  // The store's client-visible virtual time.
  virtual sim::Nanoseconds Now() const = 0;

 protected:
  KvStore() = default;
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;
};

}  // namespace bandslim
