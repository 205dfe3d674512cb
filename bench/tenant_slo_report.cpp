// Tenant SLO report: the "who is hurting whom" observability gate. Drives a
// 4-shard KvCluster carrying two tenants — "frontend" (the victim: small
// uniform GET/PUT mix over its own key space) and "batch" (metered on its
// own NVMe queue pair) — with the attribution plane (telemetry/attribution)
// folding per-tenant charges, key-space heat, and SLO burn rates into the
// fleet sample grid, prints the per-tenant report, and cross-checks:
//
//   1. Reconciliation — in EVERY fleet interval, the per-tenant device
//      deltas plus the untagged residual equal the fleet delta exactly, for
//      all four charged dimensions (commands, value bytes, PCIe H2D bytes,
//      NAND pages), and the deltas telescope to the summed final GetStats()
//      counters. The preload runs shard-direct, so the untagged bucket is
//      exercised for real, not vacuously zero.
//   2. Ledger — the plane's per-tenant op/shed counts equal what the blend
//      runner actually issued and had shed.
//   3. Noisy neighbor — a storm run (batch hammers one hot key owned by
//      shard 0 with 2 KiB PUTs far above its admission credits) must fire
//      slo_burn_fast_t1 (the hog's sheds burn its error budget >= 4x) and
//      hot_key_range (the hog's key range dominates the decayed heat), while
//      the victim's error budget drains versus the clean run (hog-induced
//      flush stalls on shard 0 push victim ops past their latency target).
//   4. Clean run silent — the same cluster (same tenants, credits, rules)
//      under a within-budget uniform blend raises zero alerts and sheds
//      nothing.
//   5. Determinism — the clean run executes twice; Prometheus, timeline
//      JSONL and slo.jsonl exports must be byte-identical.
//   6. Observation only — a clean run with attribution disabled must be
//      bit-identical to the enabled run in virtual time and every per-shard
//      counter.
//   7. Scrape — with --serve=PORT, GET /metrics and /slo.jsonl over the
//      wire must byte-match the in-process exports.
//
// Any violation prints CHECK FAILED and exits nonzero (ci/verify.sh gate).
// --export=PREFIX writes PREFIX.prom / .jsonl / .slo.jsonl. --serve=PORT
// (0 = ephemeral) starts the HTTP exporter; with --export, the resolved
// port is written to PREFIX.port and --serve-hold=MS keeps the server up
// until the port file is deleted (or MS elapses) for an external scraper.
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/kv_cluster.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/export.h"
#include "telemetry/fleet.h"
#include "telemetry/http_exporter.h"
#include "workload/runner.h"

using namespace bandslim;
using namespace bandslim::bench;

namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::size_t kVictim = 0;  // Tenant indices in the cluster roster.
constexpr std::size_t kHog = 1;

int failures = 0;

void Check(bool ok, const char* what, std::uint64_t got, std::uint64_t want) {
  if (ok) {
    std::printf("CHECK ok: %-52s %llu\n", what,
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

// The cluster every scenario runs on: identical tenants, credits, SLOs and
// rules — only the workload differs between the clean and the storm pass,
// so "the clean run is silent" is a statement about the rules, not about a
// defanged config.
cluster::ClusterConfig BlendOptions(bool attribution_enabled) {
  cluster::ClusterConfig cc;
  cc.num_shards = kShards;
  cc.shard = DefaultBenchOptions();
  // Small memtables: flush stalls land INSIDE the run, so a hog flooding a
  // shard with 2 KiB values degrades the victim's ops on that shard — the
  // cross-tenant interference the attribution plane exists to expose.
  cc.shard.lsm.memtable_limit_bytes = 64 << 10;
  cc.tenants.resize(2);
  cc.tenants[kVictim].name = "frontend";
  cc.tenants[kVictim].queue_id = 0;
  cc.tenants[kHog].name = "batch";
  cc.tenants[kHog].queue_id = 1;
  // 8 admitted commands per 2 ms window per shard = 4k admitted ops/s. The
  // clean batch blend issues an order of magnitude below that (even its
  // burstiest window stays under credit); the storm's closed-loop flood on
  // shard 0 runs far above it and sheds.
  cc.tenants[kHog].credits_per_window = 8;
  cc.qos_refill_window_ns = 2 * sim::kMillisecond;

  cc.fleet.enabled = true;
  cc.fleet.sample_interval_ns = 2 * sim::kMillisecond;
  cc.fleet.rules = {
      telemetry::attribution::TenantBurnRateFastRule(kHog),
      telemetry::attribution::TenantBurnRateSlowRule(kHog),
      telemetry::attribution::HotRangeRule(/*share_permille=*/300, /*n=*/2),
  };

  cc.attribution.enabled = attribution_enabled;
  cc.attribution.heat_fanout = 64;
  cc.attribution.slo.resize(2);
  // Victim: latency SLO on the router timeline. The target sits above the
  // bulk of the clean run's ops but below a hog-induced flush stall, so the
  // budget drains visibly faster when the neighbor misbehaves.
  cc.attribution.slo[kVictim].latency_target_ns = 200 * sim::kMicrosecond;
  cc.attribution.slo[kVictim].availability_target_permille = 990;
  // Hog: availability-only SLO — admission sheds are its bad ops.
  cc.attribution.slo[kHog].latency_target_ns = 0;
  cc.attribution.slo[kHog].availability_target_permille = 990;
  return cc;
}

// A key prefix whose first `num_keys` MixedKeyNames are ALL owned by shard
// 0 under this cluster's ring — the hot key set for the storm.
std::string FindShard0Prefix(const cluster::KvCluster& fleet,
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

// The victim's traffic is IDENTICAL in both scenarios; only the neighbor
// changes. Clean: batch runs a modest uniform mix over its own key space,
// well under its admission credits. Storm: batch floods ONE shard-0-owned
// hot key with 2 KiB PUTs at the victim's own rate — a single heat bucket
// soaks up the hog's half of all touches.
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
    hog.get_permille = 0;  // All PUTs: maximum bytes, maximum interference.
    hog.key_prefix = FindShard0Prefix(fleet, hog.num_keys);
  } else {
    hog.ops = ops / 8;  // Modest share: stays under the credit rate.
    hog.num_keys = 512;
    hog.value_size = 128;
    hog.get_permille = 500;
    hog.key_prefix = "b:";
  }
  return blend;
}

struct BlendRun {
  std::string prom, jsonl, slo;
  KvSsdStats stats;
  sim::Nanoseconds now_ns = 0;
  std::vector<std::map<std::string, std::uint64_t>> counters;  // Per shard.
  StoreSnapshot snap;
  workload::RunResult result;
  telemetry::attribution::AttributionPlane::SloState victim_slo, hog_slo;
  std::uint64_t victim_bad = 0;
};

// Invariant 1: tenant deltas + untagged residual == fleet delta, per
// interval and per dimension, telescoping to the final summed counters.
void CheckReconciliation(cluster::KvCluster& fleet, const KvSsdStats& stats) {
  const telemetry::FleetAggregator& agg = fleet.fleet();
  struct Dim {
    const char* what;
    std::string fleet_delta;
    std::string part;  // tenant<i>.delta.<part> / untagged.delta.<part>
    std::uint64_t final_total;
  };
  const Dim dims[] = {
      {"dev.ops", "delta.ops", "dev.ops", stats.commands_submitted},
      {"value_bytes", "delta.value_bytes", "value_bytes",
       stats.value_bytes_written},
      {"pcie.h2d", "delta.pcie.h2d_bytes", "pcie.h2d_bytes",
       stats.pcie_h2d_bytes},
      {"nand.pages", "delta.nand.pages_programmed", "nand.pages_programmed",
       stats.nand_pages_programmed},
  };
  for (const Dim& dim : dims) {
    std::uint64_t skewed = 0, telescoped = 0;
    for (const telemetry::Sample& s : agg.samples()) {
      std::uint64_t attributed =
          SampleValue(agg, s, "untagged.delta." + dim.part);
      for (std::size_t t = 0; t < fleet.num_tenants(); ++t) {
        attributed += SampleValue(
            agg, s, "tenant" + std::to_string(t) + ".delta." + dim.part);
      }
      if (attributed != SampleValue(agg, s, dim.fleet_delta)) ++skewed;
      telescoped += attributed;
    }
    const std::string what_intervals =
        std::string("every interval attributes ") + dim.what + " exactly";
    Check(skewed == 0, what_intervals.c_str(), skewed, 0);
    const std::string what_total =
        std::string("attributed ") + dim.what + " telescopes to GetStats";
    Check(telescoped == dim.final_total, what_total.c_str(), telescoped,
          dim.final_total);
  }
  Check(agg.dropped_samples() == 0, "no fleet samples dropped",
        agg.dropped_samples(), 0);
}

void PrintTenantReport(const cluster::KvCluster& fleet) {
  const auto& plane = fleet.attribution();
  std::printf("\n%-10s %8s %6s %10s %12s %10s %10s %8s\n", "tenant", "ops",
              "shed", "p99_us", "dev_bytes", "burn_fast", "burn_slow",
              "budget");
  // "budget" is lifetime error-budget spend in permille (1000 = exhausted).
  for (std::size_t t = 0; t < plane.num_tenants(); ++t) {
    const auto& c = plane.tenant_charges(t);
    const auto& s = plane.slo_state(t);
    std::printf("%-10s %8llu %6llu %10.1f %12llu %9.2fx %9.2fx %6llupm\n",
                plane.tenant_name(t).c_str(),
                static_cast<unsigned long long>(c.ops),
                static_cast<unsigned long long>(c.shed_ops),
                static_cast<double>(
                    plane.tenant_latency(t).QuantilePermille(990)) /
                    1e3,
                static_cast<unsigned long long>(c.pcie_h2d_bytes),
                static_cast<double>(s.burn_fast_milli) / 1e3,
                static_cast<double>(s.burn_slow_milli) / 1e3,
                static_cast<unsigned long long>(s.budget_spent_permille));
  }
  const auto& u = plane.untagged();
  std::printf("%-10s %8s %6s %10s %12llu\n\n", "untagged", "-", "-", "-",
              static_cast<unsigned long long>(u.pcie_h2d_bytes));
}

// One full campaign: open the blend cluster, preload shard-direct
// (untagged), run the interleaved blend, finalize, collect everything.
BlendRun RunBlend(std::uint64_t ops, bool storm, bool enabled,
                  telemetry::HttpExporter* server = nullptr,
                  bool print = false) {
  auto fleet = cluster::KvCluster::Open(BlendOptions(enabled)).value();
  if (server != nullptr) fleet->fleet().SetSink(server);
  const workload::TenantBlendSpec blend = BlendFor(*fleet, ops, storm);

  BlendRun out;
  const Status preloaded = workload::PreloadTenantBlend(*fleet, blend);
  if (!preloaded.ok()) {
    std::fprintf(stderr, "CHECK FAILED: preload: %s\n",
                 preloaded.ToString().c_str());
    ++failures;
    return out;
  }
  std::vector<KvStore*> tenants;
  for (std::size_t t = 0; t < blend.tenants.size(); ++t) {
    tenants.push_back(&fleet->Tenant(t));
  }
  out.result = workload::RunSerial(tenants, workload::BlendStream(blend));
  if (!out.result.ok()) {
    std::fprintf(stderr, "CHECK FAILED: blend: %s\n",
                 out.result.status.ToString().c_str());
    ++failures;
  }
  if (!fleet->Flush().ok()) {
    std::fprintf(stderr, "CHECK FAILED: final flush rejected\n");
    ++failures;
  }
  fleet->fleet().Finalize();

  out.stats = fleet->GetStats();
  out.now_ns = fleet->Now();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    out.counters.push_back(fleet->shard(s).metrics().SnapshotCounters());
  }
  out.snap = fleet->Inspect();
  if (enabled) {
    const auto& plane = fleet->attribution();
    out.prom = fleet->fleet().ToPrometheusText();
    out.jsonl = fleet->fleet().ToJsonl();
    out.slo = plane.SloJsonl();
    out.victim_slo = plane.slo_state(kVictim);
    out.hog_slo = plane.slo_state(kHog);
    out.victim_bad = plane.tenant_charges(kVictim).bad_ops;
    CheckReconciliation(*fleet, out.stats);
    // Invariant 2: the plane's ledger matches what the runner issued.
    for (std::size_t t = 0; t < blend.tenants.size(); ++t) {
      const auto& charges = plane.tenant_charges(t);
      const std::string who = "ledger ops match runner (" +
                              plane.tenant_name(t) + ")";
      Check(charges.ops == out.result.tenants[t].ops, who.c_str(),
            charges.ops, out.result.tenants[t].ops);
      const std::string shed_who = "ledger sheds match runner (" +
                                   plane.tenant_name(t) + ")";
      Check(charges.shed_ops == out.result.tenants[t].shed, shed_who.c_str(),
            charges.shed_ops, out.result.tenants[t].shed);
    }
    if (print) PrintTenantReport(*fleet);
  }

  // Invariant 7: the wire documents equal the in-process exports.
  if (server != nullptr) {
    const auto metrics = telemetry::HttpGet(server->port(), "/metrics");
    Check(metrics.ok() && metrics.value() == out.prom,
          "GET /metrics byte-matches ToPrometheusText",
          metrics.ok() ? metrics.value().size() : 0, out.prom.size());
    const auto slo = telemetry::HttpGet(server->port(), "/slo.jsonl");
    Check(slo.ok() && slo.value() == out.slo,
          "GET /slo.jsonl byte-matches SloJsonl",
          slo.ok() ? slo.value().size() : 0, out.slo.size());
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
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/3000);
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
  PrintPlatform("Tenant SLO report: per-tenant attribution over virtual time",
                BlendOptions(true).shard, args);
  std::printf("  tenants : frontend (victim, 200 us / 99.0%% SLO) + batch "
              "(8 credits / 2 ms window)\n");
  std::printf("  rules   : {slo_burn_fast_t1, slo_burn_slow_t1, "
              "hot_key_range >= 30%%}\n\n");

  telemetry::HttpExporter server;
  if (serve) {
    const Status started = server.Start(serve_port);
    if (!started.ok()) {
      std::fprintf(stderr, "CHECK FAILED: --serve: %s\n",
                   started.message().c_str());
      return 1;
    }
    std::printf("serving tenant-labeled /metrics on http://127.0.0.1:%u\n",
                server.port());
  }

  std::printf("--- clean blend (pass 1%s) ---\n",
              serve ? ", live scrape attached" : "");
  BlendRun a = RunBlend(args.ops, /*storm=*/false, /*enabled=*/true,
                        serve ? &server : nullptr, /*print=*/true);
  std::uint64_t clean_fires = 0;
  for (const auto& alert : a.snap.alerts) clean_fires += alert.fired;
  Check(clean_fires == 0, "clean blend raises no alerts", clean_fires, 0);
  std::uint64_t clean_sheds = 0;
  for (const auto& t : a.result.tenants) clean_sheds += t.shed;
  Check(clean_sheds == 0, "clean blend sheds nothing", clean_sheds, 0);

  std::printf("--- clean blend (pass 2: determinism, no server) ---\n");
  BlendRun b = RunBlend(args.ops, /*storm=*/false, /*enabled=*/true);
  Check(a.prom == b.prom, "double-run Prometheus byte-identical",
        a.prom.size(), b.prom.size());
  Check(a.jsonl == b.jsonl, "double-run timeline JSONL byte-identical",
        a.jsonl.size(), b.jsonl.size());
  Check(a.slo == b.slo, "double-run slo.jsonl byte-identical", a.slo.size(),
        b.slo.size());
  Check(a.prom.find("bandslim_tenant_ops_total{tenant=\"batch\"}") !=
            std::string::npos,
        "scrape carries tenant-labeled families", 1, 1);
  Check(a.slo.find("\"budget_spent_permille\":") != std::string::npos,
        "slo.jsonl carries the budget ledger", 1, 1);

  std::printf("--- clean blend (pass 3: attribution disabled) ---\n");
  BlendRun c = RunBlend(args.ops, /*storm=*/false, /*enabled=*/false);
  Check(c.now_ns == b.now_ns, "disabled attribution: virtual time identical",
        static_cast<std::uint64_t>(c.now_ns),
        static_cast<std::uint64_t>(b.now_ns));
  std::uint64_t counter_mismatches = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (c.counters[s] != b.counters[s]) ++counter_mismatches;
  }
  Check(counter_mismatches == 0,
        "disabled attribution: shard counters identical", counter_mismatches,
        0);
  Check(c.slo.empty(), "disabled attribution exports no slo.jsonl",
        c.slo.size(), 0);

  std::printf("--- noisy-neighbor storm (batch floods a hot shard-0 key) "
              "---\n");
  BlendRun h = RunBlend(args.ops, /*storm=*/true, /*enabled=*/true, nullptr,
                        /*print=*/true);
  std::uint64_t hog_sheds = h.result.tenants[kHog].shed;
  Check(hog_sheds > 0, "storm sheds the hog's overdraft", hog_sheds, 1);
  Check(AlertFires(h.snap, "slo_burn_fast_t1") >= 1,
        "storm fires the hog's fast burn-rate alert",
        AlertFires(h.snap, "slo_burn_fast_t1"), 1);
  Check(AlertFires(h.snap, "hot_key_range") >= 1,
        "storm fires the hot key-range alert",
        AlertFires(h.snap, "hot_key_range"), 1);
  Check(h.victim_bad > a.victim_bad,
        "storm drains the victim's error budget", h.victim_bad,
        a.victim_bad + 1);
  Check(h.victim_slo.budget_spent_permille > a.victim_slo.budget_spent_permille,
        "victim budget spend exceeds the clean run",
        h.victim_slo.budget_spent_permille,
        a.victim_slo.budget_spent_permille + 1);

  if (!export_prefix.empty()) {
    WriteFile(export_prefix + ".prom", a.prom);
    WriteFile(export_prefix + ".jsonl", a.jsonl);
    WriteFile(export_prefix + ".slo.jsonl", a.slo);
    std::printf("exported %s.{prom,jsonl,slo.jsonl}\n", export_prefix.c_str());
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
    std::fprintf(stderr, "\ntenant_slo_report: %d check(s) FAILED\n",
                 failures);
    return 1;
  }
  std::printf("\ntenant_slo_report: all checks passed\n");
  return 0;
}
