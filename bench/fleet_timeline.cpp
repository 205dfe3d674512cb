// Fleet timeline: the cluster-wide observability gate. Drives a 4-shard
// KvCluster with the FleetAggregator (telemetry/fleet.h) sampling every
// shard's registry on the router clock, prints the fleet timeline, and
// cross-checks the plane's three aggregation invariants plus the watchdog
// and federation behaviour:
//
//   1. Reconciliation — every fleet sample's delta.ops equals the sum of the
//      per-shard deltas over the same interval, the deltas telescope to the
//      summed final GetStats() counters exactly (ops, H2D bytes, NAND pages,
//      value bytes), and the last sample's cumulatives equal GetStats().
//   2. Mergeable percentiles — the fleet's lifetime.trace.op.p50/.p95/.p99
//      must equal the quantiles of a histogram rebuilt by merging every
//      shard's cumulative op-latency buckets (the union), exactly.
//   3. Watchdog — uniform routing raises zero fleet alerts; a hot-shard run
//      (every PUT owned by shard 0) must fire shard_imbalance (max/mean
//      pinned at exactly 4.000), ring_skew, and straggler_shard.
//   4. Determinism — the uniform run executes twice; the Prometheus, JSONL
//      and shards.jsonl exports must be byte-identical. The live scrape
//      server is attached to pass 1 only, so the compare also proves the
//      server cannot perturb outcomes.
//   5. Observation only — a third uniform run with the aggregator disabled
//      must be bit-identical to the enabled run in virtual time and every
//      per-shard counter.
//   6. Scrape — with --serve=PORT, GET /metrics, /timeline.jsonl and
//      /shards.jsonl over the wire must byte-match the in-process exports.
//
// Any violation prints CHECK FAILED and exits nonzero (ci/verify.sh gate).
// --export=PREFIX writes PREFIX.prom / .jsonl / .shards.jsonl. --serve=PORT
// (0 = ephemeral) starts the HTTP exporter; with --export, the resolved port
// is written to PREFIX.port and --serve-hold=MS keeps the server up until
// the port file is deleted (or MS elapses) for an external scraper.
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/kv_cluster.h"
#include "stats/histogram.h"
#include "telemetry/export.h"
#include "telemetry/fleet.h"
#include "telemetry/http_exporter.h"
#include "workload/value_gen.h"

using namespace bandslim;
using namespace bandslim::bench;

namespace {

constexpr std::uint32_t kShards = 4;

int failures = 0;

void Check(bool ok, const char* what, std::uint64_t got, std::uint64_t want) {
  if (ok) {
    std::printf("CHECK ok: %-48s %llu\n", what,
                static_cast<unsigned long long>(got));
  } else {
    std::fprintf(stderr, "CHECK FAILED: %s: got %llu want %llu\n", what,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ++failures;
  }
}

std::uint64_t AlertFires(const StoreSnapshot& snap, const char* rule) {
  for (const auto& alert : snap.alerts) {
    if (alert.rule == rule) return alert.fired;
  }
  return 0;
}

cluster::ClusterConfig FleetOptions(bool enabled) {
  cluster::ClusterConfig cc;
  cc.num_shards = kShards;
  cc.shard = DefaultBenchOptions();
  cc.shard.trace.enabled = true;  // Feeds the per-shard / merged percentiles.
  cc.fleet.enabled = enabled;
  // Dozens of routed commands per interval even in the slow 1 KiB phase of
  // the workload: enough signal that uniform routing stays below every
  // threshold (a shard never idles six 2 ms intervals in a row) while a hot
  // shard pins the imbalance ratio at its 4-shard ceiling.
  cc.fleet.sample_interval_ns = 2 * sim::kMillisecond;
  cc.fleet.rules = {telemetry::ShardImbalanceRule(/*ratio_milli=*/3000,
                                                  /*n=*/3),
                    telemetry::RingSkewRule(/*skew_permille=*/500, /*n=*/3),
                    telemetry::StragglerShardRule(/*n=*/6)};
  return cc;
}

struct FleetRun {
  std::string prom, jsonl, shards;
  KvSsdStats stats;
  sim::Nanoseconds now_ns = 0;
  std::vector<std::map<std::string, std::uint64_t>> counters;  // Per shard.
  StoreSnapshot snap;
};

// The workload. Uniform: hashed keys with a value-size step at ops/2 (so the
// fleet's TAF/throughput curves move) plus one cross-shard batch. Hot: every
// key owned by shard 0 — the sharpest imbalance a router can see.
void Drive(cluster::KvCluster& fleet, std::uint64_t ops, bool hot) {
  std::uint64_t put_errors = 0;
  if (hot) {
    std::uint64_t done = 0;
    for (std::uint64_t i = 0; done < ops; ++i) {
      const std::string key = "hot" + std::to_string(i);
      if (fleet.ShardOf(key) != 0) continue;
      Bytes value = workload::MakeValue(64, 19, done);
      if (!fleet.Put(key, ByteSpan(value)).ok()) ++put_errors;
      ++done;
    }
  } else {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::size_t size = i < ops / 2 ? 64 : 1024;
      Bytes value = workload::MakeValue(size, 19, i);
      if (!fleet.Put("fl" + std::to_string(i), ByteSpan(value)).ok()) {
        ++put_errors;
      }
    }
    std::vector<KvStore::KvPair> batch;
    for (std::uint64_t i = 0; i < 32; ++i) {
      batch.push_back({"flb" + std::to_string(i),
                       workload::MakeValue(256, 19, i)});
    }
    if (!fleet.PutBatch(batch).ok()) ++put_errors;
  }
  const bool flushed = fleet.Flush().ok();
  if (put_errors != 0 || !flushed) {
    std::fprintf(stderr, "CHECK FAILED: workload rejected %llu PUT(s)%s\n",
                 static_cast<unsigned long long>(put_errors),
                 flushed ? "" : " and the flush");
    ++failures;
  }
}

// Invariants 1 and 2, checked against the live aggregator before teardown.
void CheckReconciliation(cluster::KvCluster& fleet, const KvSsdStats& stats) {
  const telemetry::FleetAggregator& agg = fleet.fleet();
  Check(agg.dropped_samples() == 0, "no fleet samples dropped",
        agg.dropped_samples(), 0);
  Check(agg.samples_emitted() >= 3, "fleet emitted multiple samples",
        agg.samples_emitted(), 3);

  // Every interval: the fleet delta is the sum of the per-shard deltas, and
  // the fleet cumulative is the sum of the per-shard cumulatives.
  std::uint64_t skewed_intervals = 0;
  for (const telemetry::Sample& s : agg.samples()) {
    std::uint64_t shard_delta = 0, shard_cum = 0;
    for (std::uint32_t i = 0; i < kShards; ++i) {
      const std::string base = "shard" + std::to_string(i);
      shard_delta += SampleValue(agg, s, base + ".delta.ops");
      shard_cum += SampleValue(agg, s, base + ".ops");
    }
    if (SampleValue(agg, s, "delta.ops") != shard_delta ||
        SampleValue(agg, s, "nvme.commands_submitted") != shard_cum) {
      ++skewed_intervals;
    }
  }
  Check(skewed_intervals == 0, "every interval sums its shard deltas",
        skewed_intervals, 0);

  // The deltas telescope to the summed final GetStats() counters exactly.
  Check(SumSeries(agg, "delta.ops") == stats.commands_submitted,
        "sum(delta.ops) == commands_submitted", SumSeries(agg, "delta.ops"),
        stats.commands_submitted);
  Check(SumSeries(agg, "delta.value_bytes") == stats.value_bytes_written,
        "sum(delta.value_bytes) == value_bytes_written",
        SumSeries(agg, "delta.value_bytes"), stats.value_bytes_written);
  Check(SumSeries(agg, "delta.nand.pages_programmed") ==
            stats.nand_pages_programmed,
        "sum(delta.nand.pages) == nand_pages_programmed",
        SumSeries(agg, "delta.nand.pages_programmed"),
        stats.nand_pages_programmed);
  Check(agg.Latest("nvme.commands_submitted") == stats.commands_submitted,
        "last cumulative == commands_submitted",
        agg.Latest("nvme.commands_submitted"), stats.commands_submitted);
  const std::uint64_t h2d = agg.Latest("pcie.mmio.h2d_bytes") +
                            agg.Latest("pcie.cmd_fetch.h2d_bytes") +
                            agg.Latest("pcie.dma_data.h2d_bytes") +
                            agg.Latest("pcie.completion.h2d_bytes");
  Check(h2d == stats.pcie_h2d_bytes, "last cumulative h2d == pcie_h2d_bytes",
        h2d, stats.pcie_h2d_bytes);

  // Mergeable percentiles: the fleet's lifetime quantiles must equal the
  // quantiles of the union histogram rebuilt from the shard buckets.
  stats::Histogram union_hist;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto hists = fleet.shard(s).metrics().SnapshotHistogramBuckets();
    const auto it = hists.find("trace.op.latency_ns");
    if (it == hists.end()) continue;
    union_hist.MergeFrom(it->second.buckets, it->second.count, it->second.sum);
  }
  Check(agg.Latest("hist.trace.op.count") == union_hist.count(),
        "fleet hist count == union of shard histograms",
        agg.Latest("hist.trace.op.count"), union_hist.count());
  Check(agg.Latest("lifetime.trace.op.p50") == union_hist.QuantilePermille(500),
        "fleet lifetime p50 == union quantile",
        agg.Latest("lifetime.trace.op.p50"), union_hist.QuantilePermille(500));
  Check(agg.Latest("lifetime.trace.op.p95") == union_hist.QuantilePermille(950),
        "fleet lifetime p95 == union quantile",
        agg.Latest("lifetime.trace.op.p95"), union_hist.QuantilePermille(950));
  Check(agg.Latest("lifetime.trace.op.p99") == union_hist.QuantilePermille(990),
        "fleet lifetime p99 == union quantile",
        agg.Latest("lifetime.trace.op.p99"), union_hist.QuantilePermille(990));
  Check(agg.Latest("lifetime.trace.op.p99") > 0, "fleet lifetime p99 nonzero",
        agg.Latest("lifetime.trace.op.p99"), 1);
}

void PrintFleetTimeline(const telemetry::FleetAggregator& agg) {
  const auto& samples = agg.samples();
  std::printf("\n%9s %9s %7s %8s %8s %8s  %s\n", "t_ms", "kops/s", "d.ops",
              "max/mean", "skew", "stalled", "shard delta ops");
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 12);
  for (std::size_t i = 0; i < samples.size();
       i = (i + stride < samples.size() || i + 1 == samples.size())
               ? i + stride
               : samples.size() - 1) {
    const telemetry::Sample& s = samples[i];
    std::printf("%9.2f %9.1f %7llu %8.3f %7llu%% %8llu  [",
                static_cast<double>(s.t_ns) / 1e6,
                static_cast<double>(
                    SampleValue(agg, s, "rate.ops_per_sec_milli")) /
                    1e6,
                static_cast<unsigned long long>(
                    SampleValue(agg, s, "delta.ops")),
                static_cast<double>(SampleValue(
                    agg, s, "fleet.imbalance.ops_max_over_mean_milli")) /
                    1e3,
                static_cast<unsigned long long>(
                    SampleValue(agg, s, "fleet.ring.skew_permille") / 10),
                static_cast<unsigned long long>(
                    SampleValue(agg, s, "fleet.straggler.stalled_shards")));
    for (std::uint32_t sh = 0; sh < kShards; ++sh) {
      std::printf("%s%llu", sh == 0 ? "" : " ",
                  static_cast<unsigned long long>(SampleValue(
                      agg, s, "shard" + std::to_string(sh) + ".delta.ops")));
    }
    std::printf("]\n");
    if (i + 1 == samples.size()) break;
  }
  std::printf("samples=%zu events=%llu\n\n", samples.size(),
              static_cast<unsigned long long>(
                  agg.event_log().total_emitted()));
}

// One full campaign. `server` non-null attaches the live federated scrape to
// this run and self-scrapes it afterwards; `print` renders the timeline.
FleetRun RunFleet(std::uint64_t ops, bool hot, bool enabled,
                  telemetry::HttpExporter* server = nullptr,
                  bool print = false) {
  auto fleet = cluster::KvCluster::Open(FleetOptions(enabled)).value();
  if (server != nullptr) fleet->fleet().SetSink(server);
  Drive(*fleet, ops, hot);
  fleet->fleet().Finalize();

  FleetRun out;
  out.stats = fleet->GetStats();
  out.now_ns = fleet->Now();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    out.counters.push_back(fleet->shard(s).metrics().SnapshotCounters());
  }
  out.snap = fleet->Inspect();
  if (enabled && hot) {
    // All traffic on one of four shards: max/mean pins at exactly 4.000 in
    // every interval with traffic — the ratio's ceiling for this fleet.
    Check(MaxSeries(fleet->fleet(),
                    "fleet.imbalance.ops_max_over_mean_milli") == 4000,
          "hot run pins max/mean ops ratio at 4.000",
          MaxSeries(fleet->fleet(),
                    "fleet.imbalance.ops_max_over_mean_milli"),
          4000);
  }
  if (enabled) {
    out.prom = fleet->fleet().ToPrometheusText();
    out.jsonl = fleet->fleet().ToJsonl();
    out.shards = fleet->fleet().ShardsJsonl();
    CheckReconciliation(*fleet, out.stats);
    Check(out.snap.fleet_samples == fleet->fleet().samples_emitted(),
          "snapshot surfaces the fleet sample count", out.snap.fleet_samples,
          fleet->fleet().samples_emitted());
    if (print) PrintFleetTimeline(fleet->fleet());
  }

  // Self-scrape: the federated documents served over the wire must equal
  // the in-process exports at the same (final) published sample.
  if (server != nullptr) {
    const auto metrics = telemetry::HttpGet(server->port(), "/metrics");
    Check(metrics.ok() && metrics.value() == out.prom,
          "GET /metrics byte-matches ToPrometheusText",
          metrics.ok() ? metrics.value().size() : 0, out.prom.size());
    const auto jsonl = telemetry::HttpGet(server->port(), "/timeline.jsonl");
    Check(jsonl.ok() && jsonl.value() == out.jsonl,
          "GET /timeline.jsonl byte-matches ToJsonl",
          jsonl.ok() ? jsonl.value().size() : 0, out.jsonl.size());
    const auto shards = telemetry::HttpGet(server->port(), "/shards.jsonl");
    Check(shards.ok() && shards.value() == out.shards,
          "GET /shards.jsonl byte-matches ShardsJsonl",
          shards.ok() ? shards.value().size() : 0, out.shards.size());
    const auto health = telemetry::HttpGet(server->port(), "/healthz");
    Check(health.ok() &&
              health.value().find("\"shards\":4") != std::string::npos,
          "GET /healthz reports 4 shards", health.ok() ? 1 : 0, 1);
  }
  return out;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "CHECK FAILED: cannot write %s\n", path.c_str());
    ++failures;
    return;
  }
  out << content;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/6000);
  std::string export_prefix;
  bool serve = false;
  std::uint16_t serve_port = 0;
  std::uint64_t serve_hold_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--export=", 9) == 0) {
      export_prefix = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      serve = true;
      serve_port =
          static_cast<std::uint16_t>(std::strtoul(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--serve-hold=", 13) == 0) {
      serve_hold_ms = std::strtoull(argv[i] + 13, nullptr, 10);
    }
  }
  PrintPlatform("Fleet timeline: cluster observability over virtual time",
                FleetOptions(true).shard, args);
  std::printf("  fleet   : %u shards, 2 ms sample interval, rules "
              "{shard_imbalance, ring_skew, straggler_shard}\n\n", kShards);

  telemetry::HttpExporter server;
  if (serve) {
    const Status started = server.Start(serve_port);
    if (!started.ok()) {
      std::fprintf(stderr, "CHECK FAILED: --serve: %s\n",
                   started.message().c_str());
      return 1;
    }
    std::printf("serving federated /metrics on http://127.0.0.1:%u\n",
                server.port());
  }

  std::printf("--- uniform run (pass 1%s) ---\n",
              serve ? ", live scrape attached" : "");
  FleetRun a = RunFleet(args.ops, /*hot=*/false, /*enabled=*/true,
                        serve ? &server : nullptr, /*print=*/true);
  std::uint64_t uniform_fires = 0;
  for (const auto& alert : a.snap.alerts) uniform_fires += alert.fired;
  Check(uniform_fires == 0, "uniform routing raises no fleet alerts",
        uniform_fires, 0);

  std::printf("--- uniform run (pass 2: determinism, no server) ---\n");
  FleetRun b = RunFleet(args.ops, /*hot=*/false, /*enabled=*/true);
  Check(a.prom == b.prom, "double-run Prometheus byte-identical",
        a.prom.size(), b.prom.size());
  Check(a.jsonl == b.jsonl, "double-run JSONL byte-identical", a.jsonl.size(),
        b.jsonl.size());
  Check(a.shards == b.shards, "double-run shards.jsonl byte-identical",
        a.shards.size(), b.shards.size());
  Check(a.prom.find("bandslim_shard_ops_total{shard=\"3\"}") !=
            std::string::npos,
        "scrape carries shard-labeled families", 1, 1);

  std::printf("--- uniform run (pass 3: aggregator disabled) ---\n");
  FleetRun c = RunFleet(args.ops, /*hot=*/false, /*enabled=*/false);
  Check(c.now_ns == b.now_ns, "disabled aggregator: virtual time identical",
        static_cast<std::uint64_t>(c.now_ns),
        static_cast<std::uint64_t>(b.now_ns));
  std::uint64_t counter_mismatches = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (c.counters[s] != b.counters[s]) ++counter_mismatches;
  }
  Check(counter_mismatches == 0,
        "disabled aggregator: shard counters identical", counter_mismatches,
        0);
  Check(c.snap.fleet_samples == 0, "disabled aggregator emits no samples",
        c.snap.fleet_samples, 0);

  std::printf("--- hot-shard storm (every PUT owned by shard 0) ---\n");
  FleetRun h = RunFleet(std::max<std::uint64_t>(args.ops / 3, 1000),
                        /*hot=*/true, /*enabled=*/true);
  Check(AlertFires(h.snap, "shard_imbalance") >= 1,
        "hot shard fires shard_imbalance",
        AlertFires(h.snap, "shard_imbalance"), 1);
  Check(AlertFires(h.snap, "ring_skew") >= 1, "hot shard fires ring_skew",
        AlertFires(h.snap, "ring_skew"), 1);
  Check(AlertFires(h.snap, "straggler_shard") >= 1,
        "hot shard fires straggler_shard",
        AlertFires(h.snap, "straggler_shard"), 1);

  if (!export_prefix.empty()) {
    WriteFile(export_prefix + ".prom", a.prom);
    WriteFile(export_prefix + ".jsonl", a.jsonl);
    WriteFile(export_prefix + ".shards.jsonl", a.shards);
    std::printf("exported %s.{prom,jsonl,shards.jsonl}\n",
                export_prefix.c_str());
  }

  // Hold the server up for an external scraper: publish the resolved port,
  // then wait (wall-clock; virtual time is finished) until the scraper
  // deletes the port file or the hold expires.
  if (serve && serve_hold_ms > 0 && !export_prefix.empty()) {
    const std::string port_path = export_prefix + ".port";
    WriteFile(port_path, std::to_string(server.port()) + "\n");
    std::printf("holding server up to %llu ms (delete %s to release)\n",
                static_cast<unsigned long long>(serve_hold_ms),
                port_path.c_str());
    std::fflush(stdout);
    std::uint64_t waited_ms = 0;
    while (waited_ms < serve_hold_ms &&
           ::access(port_path.c_str(), F_OK) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      waited_ms += 50;
    }
    std::remove(port_path.c_str());
  }
  server.Stop();

  if (failures != 0) {
    std::fprintf(stderr, "\nfleet_timeline: %d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nfleet_timeline: all checks passed\n");
  return 0;
}
