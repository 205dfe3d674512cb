#include "scenarios.h"

#include <algorithm>
#include <map>

#include "bench_util.h"
#include "control/control_loop.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/export.h"
#include "telemetry/fleet.h"
#include "workload/value_gen.h"

namespace bandslim::bench {
namespace {

// PUTs prefix<i> for i < ops, 64 B values then `large` from ops/2 on,
// retrying kBusy sheds (retryable by contract: the shed already charged
// its backoff). Returns the number of PUTs that failed.
std::uint64_t PutRange(KvStore& store, std::uint64_t ops, const char* prefix,
                       std::uint64_t seed, std::size_t large) {
  std::uint64_t failed_ops = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const Bytes value = workload::MakeValue(i < ops / 2 ? 64 : large, seed, i);
    const std::string key = prefix + std::to_string(i);
    Status st = store.Put(key, ByteSpan(value));
    while (st.IsBusy()) st = store.Put(key, ByteSpan(value));
    failed_ops += !st.ok();
  }
  return failed_ops;
}

// Opens a device with `o`, runs PutRange and a flush, and closes the
// timeline at the run's end.
DeviceRun RunPuts(const KvSsdOptions& o, std::uint64_t ops, const char* prefix,
                  std::uint64_t seed, std::size_t large,
                  telemetry::SnapshotSink* sink = nullptr) {
  DeviceRun run;
  run.ssd = KvSsd::Open(o).value();
  run.ssd->Hooks().sampler->SetSink(sink);
  run.failed_ops = PutRange(*run.ssd, ops, prefix, seed, large);
  run.failed_ops += !run.ssd->Flush().ok();
  run.ssd->Hooks().sampler->Finalize();
  return run;
}

// The undersized LSM of both storms: a tiny MemTable, an L1 target of
// 1 KiB, and ~20 B entries split into 128 B tables, so a 128-run L0 flood
// makes ~100 output tables, more than one 64-pass MaybeCompact drains.
KvSsdOptions UndersizedLsm(std::uint32_t l0_trigger) {
  KvSsdOptions o = DeviceOptions(/*faults=*/false);
  o.lsm.memtable_limit_bytes = 512;
  o.lsm.l0_compaction_trigger = l0_trigger;
  o.lsm.level_base_bytes = 1024;
  o.lsm.sstable_target_bytes = 128;
  o.lsm.max_levels = 3;
  return o;
}

// Every sample's value of `name` (0 where the series is absent).
std::vector<std::uint64_t> SeriesVec(const telemetry::Timeline& t,
                                     const std::string& name) {
  const std::int64_t id = t.series().Find(name);
  std::vector<std::uint64_t> out;
  for (const telemetry::Sample& s : t.samples()) {
    out.push_back(id < 0 ? 0 : s.Value(static_cast<std::uint32_t>(id)));
  }
  return out;
}

// Per-interval percentiles side by side, aligned by sample index (each run
// keeps its own timestamps: the runs advance virtual time differently).
std::string SideBySideCsv(const KvSsd& unc, const KvSsd& ctl) {
  const auto columns = [](const KvSsd& ssd) {
    std::vector<std::vector<std::uint64_t>> cols(1);
    for (const auto& s : ssd.telemetry().samples()) cols[0].push_back(s.t_ns);
    for (const char* name : {"trace.op.put.p50", "trace.op.put.p95",
                             "trace.op.put.p99", "delta.lsm.memtable_stalls"}) {
      cols.push_back(SeriesVec(ssd.telemetry(), name));
    }
    return cols;
  };
  const auto u = columns(unc), c = columns(ctl);
  std::map<std::uint64_t, std::uint64_t> actuations_at;  // t_ns -> count.
  for (const auto& rec : ctl.control()->actuations()) {
    ++actuations_at[static_cast<std::uint64_t>(rec.t_ns)];
  }
  std::string out =
      "idx,unc_t_ns,unc_p50,unc_p95,unc_p99,unc_stalls,"
      "ctl_t_ns,ctl_p50,ctl_p95,ctl_p99,ctl_stalls,ctl_actuations\n";
  for (std::size_t i = 0; i < std::max(u[0].size(), c[0].size()); ++i) {
    out += std::to_string(i);
    for (const auto* side : {&u, &c}) {
      for (const auto& col : *side) {
        out += ',';
        if (i < col.size()) out += std::to_string(col[i]);
      }
    }
    out += ',';
    if (i < c[0].size()) {
      const auto it = actuations_at.find(c[0][i]);
      out += std::to_string(it == actuations_at.end() ? 0 : it->second);
    }
    out += '\n';
  }
  return out;
}

ClusterRun RunFleetOnce(std::uint64_t ops, bool hot, bool enabled,
                        telemetry::SnapshotSink* sink = nullptr) {
  ClusterRun run;
  run.cluster = cluster::KvCluster::Open(FleetOptions(enabled)).value();
  cluster::KvCluster& fleet = *run.cluster;
  fleet.fleet().SetSink(sink);
  if (hot) {
    for (std::uint64_t i = 0, done = 0; done < ops; ++i) {
      const std::string key = "hot" + std::to_string(i);
      if (fleet.ShardOf(key) != 0) continue;
      const Bytes value = workload::MakeValue(64, 19, done++);
      run.failed_ops += !fleet.Put(key, ByteSpan(value)).ok();
    }
  } else {
    run.failed_ops = PutRange(fleet, ops, "fl", 19, 1024);
    std::vector<KvStore::KvPair> batch;
    for (std::uint64_t i = 0; i < 32; ++i) {
      batch.push_back({"flb" + std::to_string(i),
                       workload::MakeValue(256, 19, i)});
    }
    run.failed_ops += !fleet.PutBatch(batch).ok();
  }
  run.failed_ops += !fleet.Flush().ok();
  fleet.fleet().Finalize();
  return run;
}

// A key prefix whose first `num_keys` MixedKeyNames are all owned by
// shard 0: the storm's hot key set.
std::string Shard0Prefix(const cluster::KvCluster& fleet,
                         std::uint64_t num_keys) {
  for (std::uint64_t j = 0;; ++j) {
    const std::string prefix = "h" + std::to_string(j) + ":";
    bool all_on_0 = true;
    for (std::uint64_t i = 0; i < num_keys && all_on_0; ++i) {
      all_on_0 = fleet.ShardOf(prefix + workload::MixedKeyName(i)) == 0;
    }
    if (all_on_0) return prefix;
  }
}

// The victim's traffic is the same in both blends; only the neighbor
// changes. Clean: batch runs a modest uniform mix over its own key space,
// well under its credits. Storm: batch floods one shard-0 key with 2 KiB
// PUTs at the victim's own rate, so one heat bucket soaks up half of all
// touches and shard 0's flush stalls push victim ops past their target.
workload::TenantBlendSpec BlendFor(const cluster::KvCluster& fleet,
                                   std::uint64_t ops, bool storm) {
  workload::TenantBlendSpec blend;
  blend.seed = 7;
  blend.tenants.resize(2);
  workload::MixedWorkloadSpec& victim = blend.tenants[kVictim];
  victim.ops = ops;
  victim.num_keys = 512;
  victim.value_size = 128;
  victim.get_permille = 500;
  victim.seed = 11;
  victim.key_prefix = "v:";
  workload::MixedWorkloadSpec& hog = blend.tenants[kHog];
  hog.seed = 23;
  if (storm) {
    hog.ops = ops;
    hog.num_keys = 1;
    hog.value_size = 2048;
    hog.get_permille = 0;
    hog.key_prefix = Shard0Prefix(fleet, hog.num_keys);
  } else {
    hog.ops = ops / 8;
    hog.num_keys = 512;
    hog.value_size = 128;
    hog.get_permille = 500;
    hog.key_prefix = "b:";
  }
  return blend;
}

// Identical tenants, credits, SLOs and rules in every run: only the
// workload differs, so "the clean run is silent" is a statement about the
// rules, not about a defanged config.
cluster::ClusterConfig TenantOptions(bool attribution) {
  cluster::ClusterConfig cc;
  cc.num_shards = kFleetShards;
  cc.shard = DefaultBenchOptions();
  // Small memtables: flush stalls land inside the run, so a hog flooding a
  // shard with 2 KiB values degrades the victim's ops on that shard.
  cc.shard.lsm.memtable_limit_bytes = 64 << 10;
  cc.tenants.resize(2);
  cc.tenants[kVictim].name = "frontend";
  cc.tenants[kVictim].queue_id = 0;
  cc.tenants[kHog].name = "batch";
  cc.tenants[kHog].queue_id = 1;
  // 8 admitted commands per 2 ms window per shard = 4k ops/s: the clean
  // batch mix stays an order of magnitude below it, the storm far above.
  cc.tenants[kHog].credits_per_window = 8;
  cc.qos_refill_window_ns = 2 * sim::kMillisecond;

  cc.fleet.enabled = true;
  cc.fleet.sample_interval_ns = 2 * sim::kMillisecond;
  cc.fleet.rules = {
      telemetry::attribution::TenantBurnRateFastRule(kHog),
      telemetry::attribution::TenantBurnRateSlowRule(kHog),
      telemetry::attribution::HotRangeRule(/*share_permille=*/300, /*n=*/2),
  };

  cc.attribution.enabled = attribution;
  cc.attribution.heat_fanout = 64;
  cc.attribution.slo.resize(2);
  // Victim: a latency SLO above the bulk of the clean run's ops but below a
  // hog-induced flush stall. Hog: availability only; its sheds are bad ops.
  cc.attribution.slo[kVictim].latency_target_ns = 200 * sim::kMicrosecond;
  cc.attribution.slo[kVictim].availability_target_permille = 990;
  cc.attribution.slo[kHog].latency_target_ns = 0;
  cc.attribution.slo[kHog].availability_target_permille = 990;
  return cc;
}

ClusterRun RunBlend(std::uint64_t ops, bool storm, bool attribution,
                    telemetry::SnapshotSink* sink = nullptr) {
  ClusterRun run;
  run.cluster = cluster::KvCluster::Open(TenantOptions(attribution)).value();
  cluster::KvCluster& fleet = *run.cluster;
  fleet.fleet().SetSink(sink);
  const workload::TenantBlendSpec blend = BlendFor(fleet, ops, storm);
  run.failed_ops = !workload::PreloadTenantBlend(fleet, blend).ok();
  std::vector<KvStore*> tenants;
  for (std::size_t t = 0; t < blend.tenants.size(); ++t) {
    tenants.push_back(&fleet.Tenant(t));
  }
  run.result = workload::RunSerial(tenants, workload::BlendStream(blend));
  run.failed_ops += !run.result.ok();
  run.failed_ops += !fleet.Flush().ok();
  fleet.fleet().Finalize();
  return run;
}

}  // namespace

std::uint64_t AlertFires(const Alerts& alerts, const std::string& rule) {
  for (const auto& alert : alerts) {
    if (alert.rule == rule) return alert.fired;
  }
  return 0;
}

std::uint64_t TotalFires(const Alerts& alerts) {
  std::uint64_t fired = 0;
  for (const auto& alert : alerts) fired += alert.fired;
  return fired;
}

// ---------------------------------- device ----------------------------------

KvSsdOptions DeviceOptions(bool faults) {
  KvSsdOptions o = DefaultBenchOptions();
  o.driver.method = driver::TransferMethod::kPiggyback;
  o.buffer.policy = buffer::PackingPolicy::kAll;
  o.trace.enabled = true;  // Feeds the per-op latency percentile series.
  o.telemetry.enabled = true;
  o.telemetry.sample_interval_ns = 50 * sim::kMicrosecond;
  // Clean runs stay silent on every rule; the fault storm trips the retry
  // rule on the first interval with a resubmission, and the undersized
  // LSM trips the three LSM rules.
  o.telemetry.rules = {
      telemetry::RetryStormRule(/*retries=*/1, /*n=*/1),
      telemetry::ZeroOpStallRule(/*n=*/10),
      telemetry::CompactionDebtRule(/*budget_bytes=*/2048, /*n=*/1),
      telemetry::L0PileupRule(/*tables=*/4, /*n=*/1),
      telemetry::MemtableStallRule(/*stalls=*/1, /*n=*/1),
  };
  if (faults) o.fault.command_drop_rate = 0.1;
  return o;
}

Documents DeviceDocuments(const KvSsd& ssd) {
  // The bench geometry has 4 channels: the busy columns are the heatmap.
  static const std::vector<std::string> kCsvSeries = {
      "delta.ops",
      "rate.ops_per_sec_milli",
      "rate.pcie.h2d_bytes_per_sec",
      "rate.taf_milli",
      "rate.waf_milli",
      "total.taf_milli",
      "gauge.ftl.free_blocks",
      "gauge.buffer.resident_bytes",
      "gauge.lsm.memtable_bytes",
      "gauge.lsm.compaction_debt_bytes",
      "trace.op.put.p50",
      "trace.op.put.p99",
      "gauge.nand.ch0.busy_permille",
      "gauge.nand.ch1.busy_permille",
      "gauge.nand.ch2.busy_permille",
      "gauge.nand.ch3.busy_permille",
  };
  const telemetry::Sampler& t = ssd.telemetry();
  return {{".prom", telemetry::ToPrometheusText(t)},
          {".jsonl", telemetry::ToJsonl(t)},
          {".csv", telemetry::ToTimeSeriesCsv(t, kCsvSeries)}};
}

DeviceScenario RunDevice(std::uint64_t ops, telemetry::SnapshotSink* sink) {
  DeviceScenario s;
  s.clean = RunPuts(DeviceOptions(false), ops, "tl", 11, 2048, sink);
  s.docs = DeviceDocuments(*s.clean.ssd);
  s.fault = RunPuts(DeviceOptions(true), ops / 4, "tl", 11, 2048);
  // An L0 trigger past 100 runs: flushes stall behind a full L0, and the
  // eventual compaction floods L1 far past its target.
  s.compaction = RunPuts(UndersizedLsm(128), std::max<std::uint64_t>(ops, 2000),
                         "cs", 13, 64);
  return s;
}

// ---------------------------------- control ---------------------------------

ControlScenario RunControl(std::uint64_t ops) {
  // Trigger 2: a flush landing on any standing L0 run stalls, so the
  // uncontrolled run stalls nearly every flush.
  KvSsdOptions o = UndersizedLsm(2);
  o.telemetry.rules.push_back(
      telemetry::FreeBlocksLowRule(/*blocks=*/4, /*n=*/1));
  ops = std::max<std::uint64_t>(ops, 2000);
  ControlScenario s;
  s.uncontrolled = RunPuts(o, ops, "st", 13, 64);
  o.control.enabled = true;  // Controller built and ticked, zero knobs.
  s.null_policy = RunPuts(o, ops, "st", 13, 64);
  o.control.gc.enabled = true;  // Pace below 8 free blocks, escalate at 5.
  o.control.flush.enabled = true;
  o.control.flush.l0_pace_runs = 1;  // Drain every standing L0 run per tick.
  o.control.admission.enabled = true;
  o.control.admission.credits_per_tick = 256;  // Sheds only gross overload.
  s.controlled = RunPuts(o, ops, "st", 13, 64);
  s.docs = {{".control.csv", SideBySideCsv(*s.uncontrolled.ssd,
                                           *s.controlled.ssd)},
            {".actuations.csv", s.controlled.ssd->control()->ActuationsCsv()}};
  return s;
}

std::uint64_t StallStreak(const KvSsd& ssd) {
  std::uint64_t best = 0, run = 0;
  for (std::uint64_t x : SeriesVec(ssd.telemetry(), "delta.lsm.memtable_stalls")) {
    run = x > 0 ? run + 1 : 0;
    best = std::max(best, run);
  }
  return best;
}

// ----------------------------------- fleet ----------------------------------

cluster::ClusterConfig FleetOptions(bool enabled) {
  cluster::ClusterConfig cc;
  cc.num_shards = kFleetShards;
  cc.shard = DefaultBenchOptions();
  cc.shard.trace.enabled = true;  // Feeds the per-shard / merged percentiles.
  cc.fleet.enabled = enabled;
  // Dozens of routed commands per interval even in the 1 KiB phase: uniform
  // routing stays below every threshold (no shard idles six intervals in a
  // row) while a hot shard pins max/mean at its 4-shard ceiling.
  cc.fleet.sample_interval_ns = 2 * sim::kMillisecond;
  cc.fleet.rules = {telemetry::ShardImbalanceRule(/*ratio_milli=*/3000,
                                                  /*n=*/3),
                    telemetry::RingSkewRule(/*skew_permille=*/500, /*n=*/3),
                    telemetry::StragglerShardRule(/*n=*/6)};
  return cc;
}

FleetScenario RunFleet(std::uint64_t ops, telemetry::SnapshotSink* sink) {
  FleetScenario s;
  s.uniform = RunFleetOnce(ops, /*hot=*/false, /*enabled=*/true, sink);
  const telemetry::FleetAggregator& agg = s.uniform.cluster->fleet();
  s.docs = {{".prom", agg.ToPrometheusText()},
            {".jsonl", agg.ToJsonl()},
            {".shards.jsonl", agg.ShardsJsonl()}};
  s.hot = RunFleetOnce(std::max<std::uint64_t>(ops / 3, 1000), /*hot=*/true,
                       /*enabled=*/true);
  s.disabled = RunFleetOnce(ops, /*hot=*/false, /*enabled=*/false);
  return s;
}

// ---------------------------------- tenant ----------------------------------

TenantScenario RunTenant(std::uint64_t ops, telemetry::SnapshotSink* sink) {
  TenantScenario s;
  s.clean = RunBlend(ops, /*storm=*/false, /*attribution=*/true, sink);
  const cluster::KvCluster& fleet = *s.clean.cluster;
  s.docs = {{".prom", fleet.fleet().ToPrometheusText()},
            {".jsonl", fleet.fleet().ToJsonl()},
            {".slo.jsonl", fleet.attribution().SloJsonl()}};
  s.storm = RunBlend(ops, /*storm=*/true, /*attribution=*/true);
  s.disabled = RunBlend(ops, /*storm=*/false, /*attribution=*/false);
  return s;
}

}  // namespace bandslim::bench
