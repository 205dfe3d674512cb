// Workload executors: run an OpStream (workload/op_stream.h) against any
// topology on the virtual clock, collecting the per-op latency histogram,
// the per-tenant op accounting and the counter deltas the paper's figures
// are built from. There are exactly two:
//   * RunSerial   — ops issue back-to-back on the targets' own timeline;
//   * RunParallel — the stream is split into lanes (the queue pairs of one
//                   device, or the shards of a cluster), each lane a closed
//                   loop in its own time frame, interleaved on an
//                   EventEngine by (local time, sequence).
// Both apply the same outcome rules: a GET of a missing key is a miss, a
// kBusy rejection is a per-tenant shed, and any other non-OK status stops
// the run and is reported in RunResult::status.
#pragma once

#include <span>

#include "cluster/kv_cluster.h"
#include "common/status.h"
#include "core/kv_store.h"
#include "core/kvssd.h"
#include "stats/histogram.h"
#include "workload/op_stream.h"

namespace bandslim::workload {

// Op accounting for one tenant (or, in RunResult, the whole run). `ops`
// counts completed ops: OK, GET miss, or shed; the latency histogram and
// requested bytes cover exactly those.
struct OpTally {
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;     // Of `ops`; PUTs are ops - gets - deletes.
  std::uint64_t deletes = 0;  // Of `ops`.
  std::uint64_t misses = 0;   // GETs that found no key.
  std::uint64_t shed = 0;     // kBusy admission rejections.
  std::uint64_t requested_value_bytes = 0;  // PUT payload bytes.
  stats::Histogram latency_ns;
};

struct RunResult : OpTally {
  // OK when the whole stream ran; otherwise the status that stopped it
  // (the failing op is not counted).
  Status status;
  sim::Nanoseconds elapsed_ns = 0;
  // Counter deltas across the run.
  KvSsdStats delta;
  // Per-tenant breakdown, indexed by Op::tenant; the base tally is its sum.
  std::vector<OpTally> tenants;

  bool ok() const { return status.ok(); }
  double MeanResponseUs() const { return latency_ns.Mean() / 1000.0; }
  double P99ResponseUs() const { return latency_ns.Percentile(99) / 1000.0; }
  double KopsPerSec() const {
    if (elapsed_ns == 0) return 0.0;
    return static_cast<double>(ops) / (static_cast<double>(elapsed_ns) / 1e9) /
           1000.0;
  }
  // Host-to-device traffic per op / amplification factor.
  double TrafficPerOpBytes() const {
    return ops == 0 ? 0.0
                    : static_cast<double>(delta.pcie_h2d_bytes) /
                          static_cast<double>(ops);
  }
  double TrafficAmplification() const {
    return requested_value_bytes == 0
               ? 0.0
               : static_cast<double>(delta.pcie_h2d_bytes) /
                     static_cast<double>(requested_value_bytes);
  }
  double WriteAmplification() const {
    return requested_value_bytes == 0
               ? 0.0
               : static_cast<double>(delta.nand_pages_programmed) *
                     static_cast<double>(kNandPageSize) /
                     static_cast<double>(requested_value_bytes);
  }
};

// Subtracts every counter (after - before), elapsed_ns included.
KvSsdStats StatsDelta(const KvSsdStats& after, const KvSsdStats& before);

// Serial executor: op i issues on targets[op.tenant] once op i-1 has
// completed. elapsed_ns and delta are read from targets[0], so every target
// must share one timeline and counter space — one store, or the tenant
// facades of one cluster (cluster.Tenant(t)), whose QoS credits, tracer
// tenant stamps and attribution plane then see the real tenant. An op whose
// tenant has no target stops the run with kInvalidArgument.
RunResult RunSerial(std::span<KvStore* const> targets, const OpStream& stream);
RunResult RunSerial(KvStore& store, const OpStream& stream);

// Multi-stream executor over the queue pairs of one device: op i issues on
// queue pair i % num_queues (the device must be opened with num_queues >=
// that; queue 0 is the device's own driver) with parallel arbitration on,
// so the transport and the NAND channel/way scheduler decide how much of
// the work overlaps. elapsed_ns is the latest lane finish. With one queue
// the run is op-for-op identical to RunSerial.
RunResult RunParallel(KvSsd& ssd, const OpStream& stream,
                      std::uint16_t num_queues);

// Multi-stream executor over the shards of a cluster: each op issues on its
// owner shard directly (bypassing the router), every shard starting in the
// router's frame. elapsed_ns is the latest shard finish minus that common
// dispatch time — the open-loop N-client view the shard scaling ablation
// measures — and the router clock is synced to it afterwards. With one
// shard the run is op-for-op identical to RunSerial on the cluster.
RunResult RunParallel(cluster::KvCluster& cluster, const OpStream& stream);

// Serially PUTs every key of the spec's key space through the store's
// normal path so the mixed run's GETs always hit, then flushes.
Status PreloadMixedKeys(KvStore& store, const MixedWorkloadSpec& spec);

// Preloads every tenant's key space by PUTting each key directly on its
// owner shard (bypassing the router, so the setup work stays UNTAGGED in
// the attribution plane rather than charged to tenant 0), then syncs the
// router clock and flushes.
Status PreloadTenantBlend(cluster::KvCluster& cluster,
                          const TenantBlendSpec& spec);

}  // namespace bandslim::workload
