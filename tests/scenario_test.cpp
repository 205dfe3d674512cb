// Scenario tests: every telemetry invariant, asserted once, on the runs
// bench/timeline_report exports (bench/scenarios.h), at the sizes the
// sanitizer leg runs. Each scenario runs twice, pass 1 with a live HTTP
// exporter attached and pass 2 without; the export documents must match
// byte for byte, which also proves the server cannot perturb a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "control/control_loop.h"
#include "scenarios.h"
#include "stats/histogram.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/export.h"
#include "telemetry/fleet.h"
#include "telemetry/http_exporter.h"

namespace bandslim::bench {
namespace {

using telemetry::EventType;
using telemetry::MaxSeries;
using telemetry::SampleValue;
using telemetry::SumSeries;

bool Has(const std::string& doc, const std::string& needle) {
  return doc.find(needle) != std::string::npos;
}

void ExpectSameDocs(const Documents& a, const Documents& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].suffix, b[i].suffix);
    EXPECT_TRUE(a[i].body == b[i].body) << a[i].suffix << " differs";
  }
}

class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(server_.Start(0).ok()); }

  // Runs `run` twice, pass 1 publishing to the live exporter, and returns
  // pass 1 once the two passes' documents compare byte-identical.
  template <typename Run>
  auto Twice(Run run, std::uint64_t ops) {
    auto pass1 = run(ops, &server_);
    ExpectSameDocs(pass1.docs, run(ops, nullptr).docs);
    return pass1;
  }

  // The body served at `path` (empty on an HTTP error).
  std::string Served(const std::string& path) {
    const auto got = telemetry::HttpGet(server_.port(), path);
    EXPECT_TRUE(got.ok()) << path;
    return got.ok() ? got.value() : std::string();
  }

  // Every served document (all but the CSV) is on the wire byte for byte
  // at the final published sample: .prom at /metrics, .jsonl at
  // /timeline.jsonl, .X.jsonl at /X.jsonl.
  void ExpectServed(const Documents& docs) {
    for (const Document& doc : docs) {
      if (doc.suffix == ".csv") continue;
      std::string route = "/" + doc.suffix.substr(1);
      if (doc.suffix == ".prom") route = "/metrics";
      if (doc.suffix == ".jsonl") route = "/timeline.jsonl";
      EXPECT_TRUE(Served(route) == doc.body) << route;
    }
  }

  telemetry::HttpExporter server_;
};

// Per-interval deltas telescope to GetStats() exactly (the closing sample is
// stamped at run end), and the PUT-latency histogram deltas telescope to the
// lifetime histogram.
void ExpectDeviceReconciles(const KvSsd& ssd) {
  const telemetry::Sampler& t = ssd.telemetry();
  const KvSsdStats st = ssd.GetStats();
  EXPECT_EQ(t.dropped_samples(), 0u);
  EXPECT_EQ(SumSeries(t, "delta.ops"), st.commands_submitted);
  EXPECT_EQ(SumSeries(t, "delta.pcie.h2d_bytes"), st.pcie_h2d_bytes);
  EXPECT_EQ(SumSeries(t, "delta.pcie.d2h_bytes"), st.pcie_d2h_bytes);
  EXPECT_EQ(SumSeries(t, "delta.nand.pages_programmed"), st.nand_pages_programmed);
  EXPECT_EQ(SumSeries(t, "delta.value_bytes"), st.value_bytes_written);
  EXPECT_EQ(t.Latest("pcie.h2d_bytes"), st.pcie_h2d_bytes);
  const auto hists = ssd.metrics().SnapshotHistograms();
  const auto put = hists.find("trace.op.put.latency_ns");
  ASSERT_NE(put, hists.end());
  EXPECT_EQ(SumSeries(t, "delta.trace.op.put.count"), put->second.count);
  EXPECT_EQ(SumSeries(t, "delta.trace.op.put.sum"), put->second.sum);
  EXPECT_EQ(t.Latest("hist.trace.op.put.count"), put->second.count);
  // The closing interval may hold only the flush: assert over the run.
  EXPECT_GT(MaxSeries(t, "trace.op.put.p50"), 0u);
}

TEST_F(ScenarioTest, DeviceReconcilesRepeatsAndFiresStormRules) {
  const DeviceScenario a = Twice(RunDevice, 2000);
  ExpectServed(a.docs);
  const telemetry::Sampler& t = a.clean.ssd->telemetry();
  EXPECT_TRUE(Has(Served("/healthz"), "\"status\":\"ok\""));
  EXPECT_FALSE(telemetry::HttpGet(server_.port(), "/nope").ok());
  EXPECT_GE(server_.requests_served(), 4u);
  ASSERT_NE(server_.Current(), nullptr);
  EXPECT_EQ(server_.Current()->sample_seq, t.samples().back().seq);
  const std::string &prom = a.docs[0].body, &csv = a.docs[2].body;
  EXPECT_TRUE(Has(prom, "# TYPE bandslim_telemetry_samples_total counter"));
  EXPECT_TRUE(Has(prom, "# TYPE bandslim_delta_ops gauge"));
  EXPECT_TRUE(Has(prom, "bandslim_watchdog_alerts_total{rule=\"retry_storm\"} 0"));
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            1 + t.samples().size());
  EXPECT_EQ(csv.rfind("t_ns,interval_ns,delta.ops,", 0), 0u);

  EXPECT_EQ(a.clean.failed_ops, 0u);
  EXPECT_EQ(TotalFires(a.clean.ssd->InspectDevice().alerts), 0u);
  ExpectDeviceReconciles(*a.clean.ssd);
  ExpectDeviceReconciles(*a.fault.ssd);
  // Command drops force resubmissions: the retry rule fires on timeouts.
  EXPECT_GE(AlertFires(a.fault.ssd->InspectDevice().alerts, "retry_storm"), 1u);
  EXPECT_GE(a.fault.ssd->telemetry().event_log().count(EventType::kTimeout), 1u);

  // The undersized LSM fires all three LSM rules, logs the events behind
  // them, and its gauges match introspection.
  const KvSsd& storm = *a.compaction.ssd;
  const DeviceSnapshot snap = storm.InspectDevice();
  EXPECT_EQ(a.compaction.failed_ops, 0u);
  for (const char* rule :
       {"compaction_debt_over_budget", "l0_pileup", "memtable_stall"}) {
    EXPECT_GE(AlertFires(snap.alerts, rule), 1u) << rule;
  }
  const telemetry::EventLog& log = storm.telemetry().event_log();
  for (EventType type : {EventType::kCompactionStart, EventType::kCompactionEnd,
                         EventType::kMemtableStall}) {
    EXPECT_GE(log.count(type), 1u);
  }
  ASSERT_FALSE(snap.lsm_levels.empty());
  EXPECT_EQ(storm.telemetry().Latest("gauge.lsm.l0.tables"),
            snap.lsm_levels[0].tables);
  EXPECT_EQ(SumSeries(storm.telemetry(), "delta.lsm.memtable_stalls"),
            log.count(EventType::kMemtableStall));
}

TEST_F(ScenarioTest, ControlBoundsStallsAndP99NullPolicyByteIdentical) {
  const ControlScenario a = RunControl(2000);
  ExpectSameDocs(a.docs, RunControl(2000).docs);  // Incl. the actuation log.
  for (const DeviceRun* run : {&a.uncontrolled, &a.null_policy, &a.controlled}) {
    EXPECT_EQ(run->failed_ops, 0u);
  }
  ExpectSameDocs(DeviceDocuments(*a.null_policy.ssd),
                 DeviceDocuments(*a.uncontrolled.ssd));
  EXPECT_EQ(a.null_policy.ssd->control()->actuation_count(), 0u);

  const KvSsd &unc = *a.uncontrolled.ssd, &ctl = *a.controlled.ssd;
  EXPECT_GE(ctl.control()->actuation_count(), 1u);
  EXPECT_EQ(ctl.telemetry().event_log().count(EventType::kControl),
            ctl.control()->actuation_count());
  // Uncontrolled, the trigger-2 LSM stalls nearly every flush; controlled,
  // stalls never persist past 2 intervals and the worst interval improves.
  EXPECT_GT(AlertFires(unc.InspectDevice().alerts, "memtable_stall"), 2u);
  EXPECT_LE(StallStreak(ctl), 2u);
  EXPECT_LT(MaxSeries(ctl.telemetry(), "trace.op.put.p99"),
            MaxSeries(unc.telemetry(), "trace.op.put.p99"));
  EXPECT_EQ(AlertFires(ctl.InspectDevice().alerts, "free_blocks_low"), 0u);
}

// Each interval's fleet delta and cumulative are the sums over the shards,
// the deltas telescope to GetStats(), and the lifetime quantiles equal those
// of the union of the shards' histograms.
void ExpectFleetReconciles(const cluster::KvCluster& fleet) {
  const telemetry::FleetAggregator& agg = fleet.fleet();
  const KvSsdStats st = fleet.GetStats();
  EXPECT_EQ(agg.dropped_samples(), 0u);
  EXPECT_GE(agg.samples_emitted(), 3u);
  for (const telemetry::Sample& s : agg.samples()) {
    std::uint64_t delta = 0, cumulative = 0;
    for (std::uint32_t i = 0; i < kFleetShards; ++i) {
      delta += SampleValue(agg, s, "shard" + std::to_string(i) + ".delta.ops");
      cumulative += SampleValue(agg, s, "shard" + std::to_string(i) + ".ops");
    }
    EXPECT_EQ(SampleValue(agg, s, "delta.ops"), delta) << "seq " << s.seq;
    EXPECT_EQ(SampleValue(agg, s, "nvme.commands_submitted"), cumulative);
  }
  EXPECT_EQ(SumSeries(agg, "delta.ops"), st.commands_submitted);
  EXPECT_EQ(SumSeries(agg, "delta.value_bytes"), st.value_bytes_written);
  EXPECT_EQ(SumSeries(agg, "delta.nand.pages_programmed"),
            st.nand_pages_programmed);
  EXPECT_EQ(agg.Latest("nvme.commands_submitted"), st.commands_submitted);
  std::uint64_t h2d = 0;
  for (const char* cls : {"mmio", "cmd_fetch", "dma_data", "completion"}) {
    h2d += agg.Latest(std::string("pcie.") + cls + ".h2d_bytes");
  }
  EXPECT_EQ(h2d, st.pcie_h2d_bytes);
  stats::Histogram merged;
  for (std::uint32_t i = 0; i < kFleetShards; ++i) {
    const auto hists = fleet.shard(i).metrics().SnapshotHistogramBuckets();
    const auto it = hists.find("trace.op.latency_ns");
    if (it == hists.end()) continue;
    merged.MergeFrom(it->second.buckets, it->second.count, it->second.sum);
  }
  EXPECT_EQ(agg.Latest("hist.trace.op.count"), merged.count());
  for (std::uint64_t q : {500, 950, 990}) {
    EXPECT_EQ(agg.Latest("lifetime.trace.op.p" + std::to_string(q / 10)),
              merged.QuantilePermille(q));
  }
  EXPECT_GT(agg.Latest("lifetime.trace.op.p99"), 0u);
  EXPECT_EQ(fleet.Inspect().fleet_samples, agg.samples_emitted());
}

// Observation only: turning a plane off leaves virtual time and every shard
// counter bit-identical.
void ExpectSameOutcome(const cluster::KvCluster& on,
                       const cluster::KvCluster& off) {
  EXPECT_EQ(off.Now(), on.Now());
  for (std::uint32_t i = 0; i < kFleetShards; ++i) {
    EXPECT_EQ(off.shard(i).metrics().SnapshotCounters(),
              on.shard(i).metrics().SnapshotCounters()) << "shard " << i;
  }
  for (const auto counter : kStatsCounters) {
    EXPECT_EQ(off.GetStats().*counter, on.GetStats().*counter);
  }
}

TEST_F(ScenarioTest, FleetReconcilesRepeatsAndFiresHotShardRules) {
  const FleetScenario a = Twice(RunFleet, 1200);
  ExpectServed(a.docs);
  EXPECT_TRUE(Has(Served("/healthz"), "\"shards\":4"));
  EXPECT_TRUE(Has(a.docs[0].body, "bandslim_shard_ops_total{shard=\"3\"}"));
  EXPECT_TRUE(Has(a.docs[2].body, "\"shard\":3"));
  EXPECT_TRUE(Has(a.docs[2].body, "\"expected_share_permille\":"));

  for (const ClusterRun* run : {&a.uniform, &a.hot, &a.disabled}) {
    EXPECT_EQ(run->failed_ops, 0u);
  }
  ExpectFleetReconciles(*a.uniform.cluster);
  ExpectFleetReconciles(*a.hot.cluster);
  EXPECT_EQ(a.uniform.cluster->fleet().watchdog().total_fired(), 0u);
  EXPECT_EQ(TotalFires(a.uniform.cluster->Inspect().alerts), 0u);
  ExpectSameOutcome(*a.uniform.cluster, *a.disabled.cluster);
  EXPECT_EQ(a.disabled.cluster->Inspect().fleet_samples, 0u);

  // All traffic on one of four shards pins max/mean at its 4.000 ceiling.
  const cluster::KvCluster& hot = *a.hot.cluster;
  EXPECT_EQ(MaxSeries(hot.fleet(), "fleet.imbalance.ops_max_over_mean_milli"),
            4000u);
  for (const char* rule : {"shard_imbalance", "ring_skew", "straggler_shard"}) {
    EXPECT_GE(AlertFires(hot.Inspect().alerts, rule), 1u) << rule;
  }
}

// In every interval the tenant deltas plus the untagged residual equal the
// fleet delta in all four charged dimensions, telescoping to GetStats(); the
// plane's ledger matches what the runner issued and had shed.
void ExpectTenantReconciles(const ClusterRun& run) {
  const cluster::KvCluster& fleet = *run.cluster;
  const telemetry::FleetAggregator& agg = fleet.fleet();
  const KvSsdStats st = fleet.GetStats();
  EXPECT_EQ(agg.dropped_samples(), 0u);
  for (const auto& [part, total] :
       {std::pair<std::string, std::uint64_t>{"dev.ops", st.commands_submitted},
        {"value_bytes", st.value_bytes_written},
        {"pcie.h2d_bytes", st.pcie_h2d_bytes},
        {"nand.pages_programmed", st.nand_pages_programmed}}) {
    const std::string delta = ".delta." + part;
    // The fleet series the attributed parts sum to.
    const std::string sum = part == "dev.ops" ? "delta.ops" : delta.substr(1);
    std::uint64_t telescoped = 0;
    for (const telemetry::Sample& s : agg.samples()) {
      std::uint64_t attributed = SampleValue(agg, s, "untagged" + delta);
      for (std::size_t t = 0; t < fleet.num_tenants(); ++t) {
        attributed += SampleValue(agg, s, "tenant" + std::to_string(t) + delta);
      }
      EXPECT_EQ(attributed, SampleValue(agg, s, sum)) << part << " seq " << s.seq;
      telescoped += attributed;
    }
    EXPECT_EQ(telescoped, total) << part;
  }
  for (std::size_t t = 0; t < fleet.num_tenants(); ++t) {
    const auto& charges = fleet.attribution().tenant_charges(t);
    EXPECT_EQ(charges.ops, run.result.tenants[t].ops) << "tenant " << t;
    EXPECT_EQ(charges.shed_ops, run.result.tenants[t].shed) << "tenant " << t;
  }
}

TEST_F(ScenarioTest, TenantReconcilesRepeatsAndExposesNoisyNeighbor) {
  const TenantScenario a = Twice(RunTenant, 1500);
  ExpectServed(a.docs);
  for (const char* family : {"bandslim_tenant_ops_total{tenant=\"frontend\"}",
                             "bandslim_tenant_ops_total{tenant=\"batch\"}",
                             "bandslim_keyspace_heat"}) {
    EXPECT_TRUE(Has(a.docs[0].body, family)) << family;
  }
  EXPECT_TRUE(Has(a.docs[1].body, "\"tenant0.slo.burn_fast_milli\":"));
  EXPECT_TRUE(Has(a.docs[2].body, "\"budget_spent_permille\":"));

  for (const ClusterRun* run : {&a.clean, &a.storm, &a.disabled}) {
    EXPECT_EQ(run->failed_ops, 0u);
  }
  ExpectTenantReconciles(a.clean);
  ExpectTenantReconciles(a.storm);
  const cluster::KvCluster &clean = *a.clean.cluster, &off = *a.disabled.cluster;
  EXPECT_EQ(TotalFires(clean.Inspect().alerts), 0u);
  EXPECT_EQ(a.clean.result.shed, 0u);
  // Attribution off also exports no tenant document or family.
  ExpectSameOutcome(clean, off);
  EXPECT_TRUE(off.attribution().SloJsonl().empty());
  EXPECT_FALSE(Has(off.fleet().ToPrometheusText(), "bandslim_tenant_"));

  // Noisy neighbor: the hog's sheds burn its budget and its one key
  // dominates the heat, while shard-0 stalls drain the victim's budget.
  const cluster::KvCluster& storm = *a.storm.cluster;
  const auto& plane = storm.attribution();
  EXPECT_GT(a.storm.result.tenants[kHog].shed, 0u);
  EXPECT_GE(AlertFires(storm.Inspect().alerts, "slo_burn_fast_t1"), 1u);
  EXPECT_GE(AlertFires(storm.Inspect().alerts, "hot_key_range"), 1u);
  EXPECT_GT(plane.tenant_charges(kVictim).bad_ops,
            clean.attribution().tenant_charges(kVictim).bad_ops);
  EXPECT_GT(plane.slo_state(kVictim).budget_spent_permille,
            clean.attribution().slo_state(kVictim).budget_spent_permille);
}

}  // namespace
}  // namespace bandslim::bench
