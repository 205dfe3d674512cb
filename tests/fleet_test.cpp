// Fleet observability tests (telemetry/fleet.h): the three aggregation
// invariants — exact reconciliation of the cluster timeline against per-shard
// deltas and final stats, mergeable-percentile exactness against a replayed
// union histogram, and observation-only neutrality of the aggregator — plus
// shard-imbalance watchdog fire/clear behaviour, shard-tagged trace
// stitching, byte-identical double-run exports, and the federated HTTP
// scrape surface (/metrics with shard labels, /shards.jsonl).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/kv_cluster.h"
#include "core/kvssd.h"
#include "stats/histogram.h"
#include "telemetry/export.h"
#include "telemetry/fleet.h"
#include "telemetry/http_exporter.h"
#include "trace/trace.h"

namespace bandslim::telemetry {
namespace {

using cluster::ClusterConfig;
using cluster::KvCluster;

KvSsdOptions ShardOptions() {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 2;
  o.geometry.blocks_per_die = 256;
  o.geometry.pages_per_block = 32;
  o.buffer.num_entries = 32;
  o.buffer.dlt_entries = 32;
  o.lsm.memtable_limit_bytes = 16 * 1024;
  return o;
}

ClusterConfig FleetCluster(std::uint32_t shards) {
  ClusterConfig c;
  c.num_shards = shards;
  c.shard = ShardOptions();
  c.fleet.enabled = true;
  c.fleet.sample_interval_ns = 20 * sim::kMicrosecond;
  return c;
}

Bytes ValueFor(std::uint64_t i, std::size_t size = 64) {
  Bytes v(size, 0x5A);
  for (int b = 0; b < 8; ++b) {
    v[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  return v;
}

// First `count` keys of the "hot<i>" sequence owned by `shard` — a
// deterministic hot-shard workload, sharper than any Zipfian draw.
std::vector<std::string> KeysOwnedBy(const KvCluster& fleet,
                                     std::uint32_t shard, std::size_t count) {
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; keys.size() < count; ++i) {
    std::string key = "hot" + std::to_string(i);
    if (fleet.ShardOf(key) == shard) keys.push_back(std::move(key));
  }
  return keys;
}

// --- Mergeable percentiles ---------------------------------------------------

TEST(FleetHistogramTest, MergedBucketQuantilesEqualUnionQuantiles) {
  // Three "shards" record disjoint deterministic latency streams; merging
  // their bucket snapshots must reproduce the union histogram exactly —
  // counts, sums, and every fixed-point quantile.
  stats::Histogram shard[3];
  stats::Histogram union_hist;
  std::uint64_t x = 42;
  for (int i = 0; i < 3000; ++i) {
    x = cluster::Mix64(x);
    const std::uint64_t v = 100 + x % (1u << (10 + i % 8));
    shard[i % 3].Record(v);
    union_hist.Record(v);
  }
  stats::Histogram merged;
  for (const stats::Histogram& h : shard) {
    merged.MergeFrom(h.bucket_counts(), h.count(), h.sum());
  }
  EXPECT_EQ(merged.count(), union_hist.count());
  EXPECT_EQ(merged.sum(), union_hist.sum());
  for (const std::uint32_t q : {10u, 250u, 500u, 900u, 950u, 990u, 1000u}) {
    EXPECT_EQ(merged.QuantilePermille(q), union_hist.QuantilePermille(q))
        << "q" << q;
  }
}

TEST(FleetAggregatorTest, LifetimePercentilesEqualUnionOfShardHistograms) {
  ClusterConfig cc = FleetCluster(4);
  cc.shard.trace.enabled = true;
  auto fleet = KvCluster::Open(cc).value();
  for (std::uint64_t i = 0; i < 250; ++i) {
    ASSERT_TRUE(
        fleet->Put("mix" + std::to_string(i), ByteSpan(ValueFor(i))).ok());
    if (i % 3 == 0) {
      Bytes got;
      ASSERT_TRUE(fleet->GetInto("mix" + std::to_string(i), &got).ok());
    }
  }
  fleet->fleet().Finalize();

  // Replay the union: merge every shard's cumulative op-latency buckets.
  stats::Histogram union_hist;
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
    const auto hists = fleet->shard(s).metrics().SnapshotHistogramBuckets();
    const auto it = hists.find("trace.op.latency_ns");
    ASSERT_NE(it, hists.end());
    EXPECT_GT(it->second.count, 0u) << "shard " << s;
    union_hist.MergeFrom(it->second.buckets, it->second.count,
                         it->second.sum);
  }
  const FleetAggregator& agg = fleet->fleet();
  EXPECT_EQ(agg.Latest("hist.trace.op.count"), union_hist.count());
  EXPECT_EQ(agg.Latest("lifetime.trace.op.p50"),
            union_hist.QuantilePermille(500));
  EXPECT_EQ(agg.Latest("lifetime.trace.op.p95"),
            union_hist.QuantilePermille(950));
  EXPECT_EQ(agg.Latest("lifetime.trace.op.p99"),
            union_hist.QuantilePermille(990));
  EXPECT_GT(agg.Latest("lifetime.trace.op.p99"), 0u);
}

// --- Exact reconciliation ----------------------------------------------------

TEST(FleetAggregatorTest, TimelineReconcilesWithShardDeltasAndFinalStats) {
  auto fleet = KvCluster::Open(FleetCluster(4)).value();
  for (std::uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        fleet->Put("rec" + std::to_string(i), ByteSpan(ValueFor(i, 128))).ok());
  }
  std::vector<KvStore::KvPair> batch;
  for (std::uint64_t i = 0; i < 32; ++i) {
    batch.push_back({"recb" + std::to_string(i), ValueFor(i, 200)});
  }
  ASSERT_TRUE(fleet->PutBatch(batch).ok());
  ASSERT_TRUE(fleet->Flush().ok());
  fleet->fleet().Finalize();

  const FleetAggregator& agg = fleet->fleet();
  ASSERT_GE(agg.samples().size(), 3u);

  // Every interval: the fleet delta is the sum of the per-shard deltas, and
  // the fleet cumulative is the sum of the per-shard cumulatives — the same
  // cut of every counter, no skew.
  std::uint64_t telescoped = 0;
  for (const Sample& s : agg.samples()) {
    std::uint64_t shard_delta = 0, shard_cum = 0;
    for (std::uint32_t i = 0; i < fleet->num_shards(); ++i) {
      const std::string base = "shard" + std::to_string(i);
      shard_delta += SampleValue(agg, s, base + ".delta.ops");
      shard_cum += SampleValue(agg, s, base + ".ops");
    }
    EXPECT_EQ(SampleValue(agg, s, "delta.ops"), shard_delta)
        << "seq " << s.seq;
    EXPECT_EQ(SampleValue(agg, s, "nvme.commands_submitted"), shard_cum)
        << "seq " << s.seq;
    telescoped += SampleValue(agg, s, "delta.ops");
  }

  // The deltas telescope to the summed final GetStats() counters exactly.
  const KvSsdStats stats = fleet->GetStats();
  EXPECT_EQ(telescoped, stats.commands_submitted);
  EXPECT_EQ(agg.Latest("nvme.commands_submitted"), stats.commands_submitted);
  EXPECT_EQ(agg.Latest("controller.value_bytes_written"),
            stats.value_bytes_written);
  EXPECT_EQ(agg.Latest("nand.pages_programmed"), stats.nand_pages_programmed);
  const std::uint64_t h2d = agg.Latest("pcie.mmio.h2d_bytes") +
                            agg.Latest("pcie.cmd_fetch.h2d_bytes") +
                            agg.Latest("pcie.dma_data.h2d_bytes") +
                            agg.Latest("pcie.completion.h2d_bytes");
  EXPECT_EQ(h2d, stats.pcie_h2d_bytes);
  EXPECT_GT(stats.commands_submitted, 0u);

  // The snapshot surfaces the aggregator's stream sizes.
  const StoreSnapshot snap = fleet->Inspect();
  EXPECT_EQ(snap.fleet_samples, agg.samples_emitted());
  EXPECT_GT(snap.fleet_samples, 0u);
}

// --- Shard-imbalance watchdogs ----------------------------------------------

ClusterConfig WatchedCluster() {
  ClusterConfig cc = FleetCluster(4);
  cc.shard.trace.enabled = true;
  // A wider interval keeps enough ops per sample (~20 at these op costs)
  // that uniform routing stays comfortably below every threshold, while a
  // hot shard still pins max/mean at exactly 4.000.
  cc.fleet.sample_interval_ns = 500 * sim::kMicrosecond;
  // Straggler needs a longer run: uniform hashing legitimately leaves one
  // shard idle for an interval now and then, but never for six in a row.
  cc.fleet.rules = {ShardImbalanceRule(3000, 3), RingSkewRule(500, 3),
                    StragglerShardRule(6)};
  return cc;
}

TEST(FleetWatchdogTest, HotShardFiresImbalanceRulesThenClears) {
  auto fleet = KvCluster::Open(WatchedCluster()).value();
  // Phase 1: every op lands on shard 0 — max/mean pins at 4.000, three
  // shards stall every interval, and shard 0's routed share is ~4x its ring
  // arc. All three rules must assert.
  std::uint64_t i = 0;
  for (const std::string& key : KeysOwnedBy(*fleet, 0, 400)) {
    ASSERT_TRUE(fleet->Put(key, ByteSpan(ValueFor(i++))).ok());
  }
  fleet->fleet().Poll();
  const Watchdog& wd = fleet->fleet().watchdog();
  const auto state_of = [&](const std::string& name) {
    const std::int64_t idx = wd.FindRule(name);
    EXPECT_GE(idx, 0) << name;
    return wd.states()[static_cast<std::size_t>(idx)];
  };
  EXPECT_GE(state_of("shard_imbalance").fired, 1u);
  EXPECT_TRUE(state_of("shard_imbalance").active);
  EXPECT_GE(state_of("ring_skew").fired, 1u);
  EXPECT_GE(state_of("straggler_shard").fired, 1u);
  EXPECT_EQ(fleet->fleet().Latest("fleet.imbalance.ops_max_over_mean_milli"),
            4000u);
  EXPECT_EQ(fleet->fleet().Latest("fleet.straggler.stalled_shards"), 3u);

  // Phase 2: uniform traffic; the imbalance condition breaks and the rule
  // deasserts after the clear hysteresis window.
  for (std::uint64_t k = 0; k < 600; ++k) {
    ASSERT_TRUE(
        fleet->Put("uni" + std::to_string(k), ByteSpan(ValueFor(k))).ok());
  }
  fleet->fleet().Finalize();
  EXPECT_GE(state_of("shard_imbalance").cleared, 1u);
  EXPECT_FALSE(state_of("shard_imbalance").active);

  // Fleet alerts surface on the StoreSnapshot (per-device alert slots stay
  // per-shard).
  const StoreSnapshot snap = fleet->Inspect();
  ASSERT_EQ(snap.alerts.size(), 3u);
  EXPECT_EQ(snap.alerts[0].rule, "shard_imbalance");
  EXPECT_GE(snap.alerts[0].fired, 1u);
  EXPECT_GE(snap.alerts[0].cleared, 1u);
}

TEST(FleetWatchdogTest, UniformTrafficKeepsRulesSilent) {
  auto fleet = KvCluster::Open(WatchedCluster()).value();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        fleet->Put("uni" + std::to_string(i), ByteSpan(ValueFor(i))).ok());
  }
  fleet->fleet().Finalize();
  const Watchdog& wd = fleet->fleet().watchdog();
  EXPECT_EQ(wd.total_fired(), 0u);
  for (const AlertState& st : wd.states()) EXPECT_EQ(st.fired, 0u);
  EXPECT_TRUE(fleet->Inspect().alerts.empty() ||
              fleet->Inspect().alerts[0].fired == 0u);
}

// --- Observation only --------------------------------------------------------

TEST(FleetAggregatorTest, EnablingAggregatorChangesNoSimulatedOutcome) {
  const auto drive = [](KvCluster& fleet) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      EXPECT_TRUE(
          fleet.Put("obs" + std::to_string(i), ByteSpan(ValueFor(i))).ok());
    }
    std::vector<std::string> keys;
    for (std::uint64_t i = 0; i < 40; ++i) {
      keys.push_back("obs" + std::to_string(i));
    }
    auto bulk = fleet.GetBatch(keys);
    EXPECT_TRUE(bulk.ok());
    EXPECT_TRUE(fleet.Flush().ok());
  };
  ClusterConfig on = FleetCluster(4);
  on.fleet.rules = {ShardImbalanceRule(2000, 2)};
  ClusterConfig off = FleetCluster(4);
  off.fleet.enabled = false;

  auto a = KvCluster::Open(on).value();
  auto b = KvCluster::Open(off).value();
  drive(*a);
  drive(*b);
  a->fleet().Finalize();
  EXPECT_GT(a->fleet().samples_emitted(), 0u);
  EXPECT_EQ(b->fleet().samples_emitted(), 0u);

  // Bit-identical virtual time and full per-shard counter registries.
  EXPECT_EQ(a->Now(), b->Now());
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(a->shard(s).metrics().SnapshotCounters(),
              b->shard(s).metrics().SnapshotCounters())
        << "shard " << s;
  }
}

// --- Deterministic exports ---------------------------------------------------

struct FleetExports {
  std::string prom, jsonl, shards;
};

FleetExports RunExportCampaign() {
  ClusterConfig cc = WatchedCluster();
  auto fleet = KvCluster::Open(cc).value();
  std::uint64_t i = 0;
  for (const std::string& key : KeysOwnedBy(*fleet, 1, 150)) {
    EXPECT_TRUE(fleet->Put(key, ByteSpan(ValueFor(i++))).ok());
  }
  for (std::uint64_t k = 0; k < 300; ++k) {
    EXPECT_TRUE(
        fleet->Put("exp" + std::to_string(k), ByteSpan(ValueFor(k, 96))).ok());
  }
  EXPECT_TRUE(fleet->Flush().ok());
  fleet->fleet().Finalize();
  return {fleet->fleet().ToPrometheusText(), fleet->fleet().ToJsonl(),
          fleet->fleet().ShardsJsonl()};
}

TEST(FleetAggregatorTest, ExportsAreByteIdenticalAcrossRuns) {
  const FleetExports a = RunExportCampaign();
  const FleetExports b = RunExportCampaign();
  EXPECT_EQ(a.prom, b.prom);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.shards, b.shards);
  // The federated scrape carries shard-labeled families and one JSONL line
  // per shard.
  EXPECT_NE(a.prom.find("bandslim_shard_ops_total{shard=\"3\"}"),
            std::string::npos);
  EXPECT_NE(a.shards.find("\"shard\":3"), std::string::npos);
  EXPECT_NE(a.shards.find("\"expected_share_permille\":"), std::string::npos);
}

// --- Shard-tagged tracing ----------------------------------------------------

TEST(FleetTracingTest, BatchSpansStitchAcrossShardsViaClientOp) {
  ClusterConfig cc = FleetCluster(4);
  cc.shard.trace.enabled = true;
  auto fleet = KvCluster::Open(cc).value();
  std::vector<KvStore::KvPair> batch;
  for (std::uint64_t i = 0; i < 32; ++i) {
    batch.push_back({"tr" + std::to_string(i), ValueFor(i)});
  }
  ASSERT_TRUE(fleet->PutBatch(batch).ok());

  // Every shard's breakdown rows carry that shard's index and the SAME
  // router-level client op id, so a cross-shard batch reassembles from the
  // per-shard exports. CSV columns: ...,shard,client_op,tenant (last three).
  std::map<std::string, std::set<std::string>> shards_by_client_op;
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
    const std::string csv = trace::ToBreakdownCsv(fleet->shard(s).tracer());
    std::istringstream lines(csv);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));  // Header.
    EXPECT_NE(line.find(",shard,client_op,tenant"), std::string::npos);
    while (std::getline(lines, line)) {
      const std::size_t last = line.rfind(',');
      ASSERT_NE(last, std::string::npos);
      const std::size_t mid = line.rfind(',', last - 1);
      ASSERT_NE(mid, std::string::npos);
      const std::size_t prev = line.rfind(',', mid - 1);
      ASSERT_NE(prev, std::string::npos);
      const std::string shard_col = line.substr(prev + 1, mid - prev - 1);
      const std::string client_op = line.substr(mid + 1, last - mid - 1);
      const std::string tenant_col = line.substr(last + 1);
      EXPECT_EQ(shard_col, std::to_string(s));
      ASSERT_NE(client_op, "-");
      // Cluster ops are always tenant-stamped; the default surface is
      // tenant 0.
      EXPECT_EQ(tenant_col, "0");
      shards_by_client_op[client_op].insert(shard_col);
    }
    // Chrome export: shard tag becomes the pid, client op rides in args.
    const std::string chrome = trace::ToChromeTraceJson(fleet->shard(s).tracer());
    EXPECT_NE(chrome.find("\"pid\":" + std::to_string(s + 1)),
              std::string::npos);
    EXPECT_NE(chrome.find("\"client_op\":"), std::string::npos);
  }
  // One batch = one client op spanning at least two shards.
  ASSERT_EQ(shards_by_client_op.size(), 1u);
  EXPECT_GE(shards_by_client_op.begin()->second.size(), 2u);
}

// --- Federated HTTP scrape ---------------------------------------------------

TEST(FleetHttpTest, ScrapeServesClusterAndShardDocuments) {
  auto fleet = KvCluster::Open(FleetCluster(4)).value();
  HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());
  fleet->fleet().SetSink(&server);
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        fleet->Put("web" + std::to_string(i), ByteSpan(ValueFor(i))).ok());
  }
  fleet->fleet().Finalize();

  const auto metrics = HttpGet(server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value(), fleet->fleet().ToPrometheusText());
  const auto jsonl = HttpGet(server.port(), "/timeline.jsonl");
  ASSERT_TRUE(jsonl.ok());
  EXPECT_EQ(jsonl.value(), fleet->fleet().ToJsonl());
  const auto shards = HttpGet(server.port(), "/shards.jsonl");
  ASSERT_TRUE(shards.ok());
  EXPECT_EQ(shards.value(), fleet->fleet().ShardsJsonl());
  const auto health = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.value().find("\"shards\":4"), std::string::npos);
  server.Stop();
}

TEST(FleetHttpTest, ShardsRouteIs404OnSingleDeviceSnapshots) {
  // A route table without a per-shard document — what the single-device
  // Sampler publishes — leaves the fleet route unmapped.
  HttpExporter server;
  ASSERT_TRUE(server.Start(0).ok());
  auto snap = std::make_shared<PublishedSnapshot>();
  snap->sample_seq = 1;
  snap->routes = {{"/metrics", "text/plain", "metric 1\n"},
                  {"/timeline.jsonl", "application/x-ndjson", "{}\n"},
                  {"/healthz", "application/json", "{\"status\":\"ok\"}\n"}};
  server.Publish(std::move(snap));
  ASSERT_TRUE(HttpGet(server.port(), "/metrics").ok());
  const auto shards = HttpGet(server.port(), "/shards.jsonl");
  ASSERT_FALSE(shards.ok());
  EXPECT_NE(shards.status().message().find("404"), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace bandslim::telemetry
