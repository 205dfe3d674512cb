// The observability scenarios: the runs behind the timeline, fleet and
// tenant planes' export bytes. Each scenario is a config plus a workload,
// run to completion with every store left open so the caller can inspect
// it. bench/timeline_report runs one scenario, prints its table and writes
// and serves its documents; tests/scenario_test runs the same scenarios
// and asserts every telemetry invariant on them (reconciliation, merged
// percentiles, double-run byte identity, observer neutrality, storm
// alerts, control bounds). The workloads are pinned by
// bench/golden/exports.sha256: changing one changes those digests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/kv_cluster.h"
#include "core/kvssd.h"
#include "telemetry/timeline.h"
#include "workload/runner.h"

namespace bandslim::bench {

// One export document and the suffix timeline_report appends to its
// --export prefix.
struct Document {
  std::string suffix;
  std::string body;
};
using Documents = std::vector<Document>;

using Alerts = std::vector<DeviceSnapshot::AlertInfo>;
// Fire count of `rule` (0 when the rule is not configured).
std::uint64_t AlertFires(const Alerts& alerts, const std::string& rule);
// Fire count summed over every rule.
std::uint64_t TotalFires(const Alerts& alerts);

// A finished single-device run; `failed_ops` counts PUTs and flushes that
// did not return OK (kBusy sheds are retried, never counted).
struct DeviceRun {
  std::unique_ptr<KvSsd> ssd;
  std::uint64_t failed_ops = 0;
};

// device: telemetry at 50 us with the canned device and LSM rules.
struct DeviceScenario {
  DeviceRun clean;       // `ops` PUTs, value size 64 B then 2 KiB at ops/2.
  DeviceRun fault;       // ops/4 of the same PUTs under a command-drop storm.
  DeviceRun compaction;  // max(ops, 2000) 64 B PUTs on an undersized LSM.
  Documents docs;        // The clean run's .prom, .jsonl and .csv.
};
KvSsdOptions DeviceOptions(bool faults);
// A finished device's .prom, .jsonl and .csv exports.
Documents DeviceDocuments(const KvSsd& ssd);
// `sink` (may be null) receives the clean run's published snapshots.
DeviceScenario RunDevice(std::uint64_t ops,
                         telemetry::SnapshotSink* sink = nullptr);

// control: max(ops, 2000) 64 B PUTs on a trigger-2 LSM that stalls nearly
// every flush, run uncontrolled, under the null policy (controller built,
// every knob off) and under the storm policy (paced compaction, flush
// admission, GC pacing, SQ credits). timeline_report's control scenario is
// the device scenario followed by these three runs.
struct ControlScenario {
  DeviceRun uncontrolled, null_policy, controlled;
  Documents docs;  // .control.csv (side by side) and .actuations.csv.
};
ControlScenario RunControl(std::uint64_t ops);
// Longest streak of consecutive samples that saw a memtable stall.
std::uint64_t StallStreak(const KvSsd& ssd);

// A finished cluster run.
struct ClusterRun {
  std::unique_ptr<cluster::KvCluster> cluster;
  std::uint64_t failed_ops = 0;  // Failed PUTs, batches, preloads, flushes.
  workload::RunResult result;  // The blend's tally (tenant scenario only).
};

// fleet: 4 shards, fleet aggregator at 2 ms with the three fleet rules.
struct FleetScenario {
  ClusterRun uniform;   // Hashed keys, 64 B then 1 KiB, one 32-key batch.
  ClusterRun hot;       // max(ops/3, 1000) PUTs, every key owned by shard 0.
  ClusterRun disabled;  // The uniform run with the aggregator off.
  Documents docs;       // The uniform run's .prom, .jsonl, .shards.jsonl.
};
constexpr std::uint32_t kFleetShards = 4;
cluster::ClusterConfig FleetOptions(bool enabled);
FleetScenario RunFleet(std::uint64_t ops,
                       telemetry::SnapshotSink* sink = nullptr);

// tenant: the fleet cluster carrying a victim tenant ("frontend", 200 us /
// 99.0% SLO) and a metered neighbor ("batch", 8 credits per 2 ms window),
// preloaded shard-direct (untagged), then an interleaved blend.
struct TenantScenario {
  ClusterRun clean;     // Both tenants within budget.
  ClusterRun storm;     // batch floods one shard-0 key with 2 KiB PUTs.
  ClusterRun disabled;  // The clean run with attribution off.
  Documents docs;       // The clean run's .prom, .jsonl, .slo.jsonl.
};
constexpr std::size_t kVictim = 0;  // Tenant indices in the roster.
constexpr std::size_t kHog = 1;
TenantScenario RunTenant(std::uint64_t ops,
                         telemetry::SnapshotSink* sink = nullptr);

}  // namespace bandslim::bench
