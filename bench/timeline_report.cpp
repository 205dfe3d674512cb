// Timeline report: the paper's rates-over-time view, produced from
// telemetry alone. Runs one observability scenario (bench/scenarios.h),
// prints its table, and writes and serves its export documents:
//
//   --scenario=device   PUTs whose value size steps 64 B -> 2 KiB (default)
//   --scenario=control  device, then the closed-loop control storm
//   --scenario=fleet    a 4-shard cluster under the fleet aggregator
//   --scenario=tenant   two tenants under the attribution plane
//   --ops=N             scenario size
//   --export=PREFIX     writes each document to PREFIX<suffix>: .prom,
//                       .jsonl, plus .csv (device), .control.csv and
//                       .actuations.csv (control), .shards.jsonl (fleet) or
//                       .slo.jsonl (tenant)
//   --serve=PORT        serves the primary run's documents over HTTP
//                       (0 = ephemeral port)
//   --serve-hold=MS     with --serve and --export: writes the resolved port
//                       to PREFIX.port, then keeps serving until that file
//                       is deleted or MS elapse (ci/scrape_check.sh)
//
// The bench asserts no invariant: tests/scenario_test runs the same
// scenarios and holds reconciliation, byte identity, observer neutrality,
// storm alerts and the control bounds. It exits nonzero on a bad flag, a
// run whose documents it exports stopping early, or a failed write.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "bench_util.h"
#include "control/control_loop.h"
#include "scenarios.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/export.h"
#include "telemetry/fleet.h"
#include "telemetry/http_exporter.h"

using namespace bandslim;
using namespace bandslim::bench;

namespace {

constexpr const char* kUsage =
    "usage: timeline_report [--scenario=device|control|fleet|tenant] "
    "[--ops=N] [--export=PREFIX] [--serve=PORT [--serve-hold=MS]]\n"
    "  --serve-hold needs both --serve and --export\n";

// Checks the stream after the write and the close, so a short or failed
// write is reported, not just a failed open.
bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  out.close();
  if (!out) std::fprintf(stderr, "timeline_report: cannot write %s\n",
                         path.c_str());
  return static_cast<bool>(out);
}

// Prints about 12 evenly spaced samples plus the last one.
template <typename Row>
void PrintRows(const telemetry::Timeline& t, Row row) {
  const auto& samples = t.samples();
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 12);
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    row(samples[i]);
    if (i + stride >= samples.size() && i + 1 < samples.size()) {
      row(samples.back());
    }
  }
  std::printf("samples=%zu events=%llu\n\n", samples.size(),
              static_cast<unsigned long long>(t.event_log().total_emitted()));
}

void PrintDevice(const DeviceScenario& s) {
  const telemetry::Sampler& t = s.clean.ssd->telemetry();
  std::printf("\n%9s %9s %10s %8s %8s %9s %9s %10s\n", "t_ms", "kops/s",
              "H2D MB/s", "TAF", "WAF", "p50 us", "p99 us", "free_blk");
  PrintRows(t, [&](const telemetry::Sample& x) {
    const auto val = [&](const char* name) {
      return static_cast<double>(telemetry::SampleValue(t, x, name));
    };
    std::printf("%9.2f %9.1f %10.1f %8.2f %8.2f %9.2f %9.2f %10.0f\n",
                static_cast<double>(x.t_ns) / 1e6,
                val("rate.ops_per_sec_milli") / 1e6,
                val("rate.pcie.h2d_bytes_per_sec") / 1e6,
                val("rate.taf_milli") / 1e3, val("rate.waf_milli") / 1e3,
                val("trace.op.put.p50") / 1e3, val("trace.op.put.p99") / 1e3,
                val("gauge.ftl.free_blocks"));
  });
  std::printf("fault storm: %llu retry-storm fire(s), %llu host-visible PUT "
              "timeout(s)\ncompaction storm: %llu LSM rule fire(s)\n",
              static_cast<unsigned long long>(
                  AlertFires(s.fault.ssd->InspectDevice().alerts, "retry_storm")),
              static_cast<unsigned long long>(s.fault.failed_ops),
              static_cast<unsigned long long>(
                  TotalFires(s.compaction.ssd->InspectDevice().alerts)));
}

void PrintControl(const ControlScenario& s) {
  const KvSsd& unc = *s.uncontrolled.ssd;
  const KvSsd& ctl = *s.controlled.ssd;
  const auto fires = [](const KvSsd& ssd) {
    return static_cast<unsigned long long>(
        AlertFires(ssd.InspectDevice().alerts, "memtable_stall"));
  };
  const auto worst_p99 = [](const KvSsd& ssd) {
    return static_cast<unsigned long long>(
        telemetry::MaxSeries(ssd.telemetry(), "trace.op.put.p99"));
  };
  std::printf(
      "control storm: worst p99 %llu -> %llu ns, stall streak %llu -> %llu "
      "intervals, stall fires %llu -> %llu, %llu actuations, %llu sheds\n",
      worst_p99(unc), worst_p99(ctl),
      static_cast<unsigned long long>(StallStreak(unc)),
      static_cast<unsigned long long>(StallStreak(ctl)), fires(unc),
      fires(ctl),
      static_cast<unsigned long long>(ctl.control()->actuation_count()),
      static_cast<unsigned long long>(
          s.controlled.ssd->Hooks().transport->busy_rejections()));
}

void PrintFleet(const FleetScenario& s) {
  const telemetry::FleetAggregator& agg = s.uniform.cluster->fleet();
  std::printf("\n%9s %9s %7s %8s %8s %8s  %s\n", "t_ms", "kops/s", "d.ops",
              "max/mean", "skew", "stalled", "shard delta ops");
  PrintRows(agg, [&](const telemetry::Sample& x) {
    const auto val = [&](const std::string& name) {
      return telemetry::SampleValue(agg, x, name);
    };
    std::printf("%9.2f %9.1f %7llu %8.3f %7llu%% %8llu  [",
                static_cast<double>(x.t_ns) / 1e6,
                static_cast<double>(val("rate.ops_per_sec_milli")) / 1e6,
                static_cast<unsigned long long>(val("delta.ops")),
                static_cast<double>(
                    val("fleet.imbalance.ops_max_over_mean_milli")) / 1e3,
                static_cast<unsigned long long>(
                    val("fleet.ring.skew_permille") / 10),
                static_cast<unsigned long long>(
                    val("fleet.straggler.stalled_shards")));
    for (std::uint32_t sh = 0; sh < kFleetShards; ++sh) {
      std::printf("%s%llu", sh == 0 ? "" : " ",
                  static_cast<unsigned long long>(
                      val("shard" + std::to_string(sh) + ".delta.ops")));
    }
    std::printf("]\n");
  });
  std::printf("hot-shard run: %llu fleet rule fire(s)\n",
              static_cast<unsigned long long>(
                  TotalFires(s.hot.cluster->Inspect().alerts)));
}

// "budget" is lifetime error-budget spend in permille (1000 = exhausted).
void PrintTenants(const char* title, const cluster::KvCluster& fleet) {
  const auto& plane = fleet.attribution();
  std::printf("\n%-10s %8s %6s %10s %12s %10s %10s %8s   (%s)\n", "tenant",
              "ops", "shed", "p99_us", "dev_bytes", "burn_fast", "burn_slow",
              "budget", title);
  for (std::size_t t = 0; t < plane.num_tenants(); ++t) {
    const auto& c = plane.tenant_charges(t);
    const auto& slo = plane.slo_state(t);
    std::printf("%-10s %8llu %6llu %10.1f %12llu %9.2fx %9.2fx %6llupm\n",
                plane.tenant_name(t).c_str(),
                static_cast<unsigned long long>(c.ops),
                static_cast<unsigned long long>(c.shed_ops),
                static_cast<double>(
                    plane.tenant_latency(t).QuantilePermille(990)) / 1e3,
                static_cast<unsigned long long>(c.pcie_h2d_bytes),
                static_cast<double>(slo.burn_fast_milli) / 1e3,
                static_cast<double>(slo.burn_slow_milli) / 1e3,
                static_cast<unsigned long long>(slo.budget_spent_permille));
  }
  std::printf("%-10s %8s %6s %10s %12llu   alerts fired: %llu\n", "untagged",
              "-", "-", "-",
              static_cast<unsigned long long>(plane.untagged().pcie_h2d_bytes),
              static_cast<unsigned long long>(
                  TotalFires(fleet.Inspect().alerts)));
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "device", export_prefix;
  bool serve = false;
  std::uint16_t serve_port = 0;
  std::uint64_t serve_hold_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scenario=", 11) == 0) {
      scenario = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--export=", 9) == 0) {
      export_prefix = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      serve = true;
      serve_port =
          static_cast<std::uint16_t>(std::strtoul(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--serve-hold=", 13) == 0) {
      serve_hold_ms = std::strtoull(argv[i] + 13, nullptr, 10);
    }
  }
  const bool device = scenario == "device" || scenario == "control";
  if ((!device && scenario != "fleet" && scenario != "tenant") ||
      (serve_hold_ms > 0 && (!serve || export_prefix.empty()))) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const BenchArgs args = ParseArgs(
      argc, argv, device ? 20000 : scenario == "fleet" ? 6000 : 3000);
  PrintPlatform(("Timeline report: " + scenario + " scenario").c_str(),
                device ? DeviceOptions(false) : FleetOptions(true).shard,
                args);

  telemetry::HttpExporter server;
  if (serve) {
    const Status started = server.Start(serve_port);
    if (!started.ok()) {
      std::fprintf(stderr, "timeline_report: --serve: %s\n",
                   started.message().c_str());
      return 1;
    }
    std::printf("serving /metrics on http://127.0.0.1:%u\n", server.port());
  }
  telemetry::SnapshotSink* sink = serve ? &server : nullptr;

  Documents docs;
  std::uint64_t failed_ops = 0;  // Of the runs whose documents are exported.
  if (device) {
    const DeviceScenario s = RunDevice(args.ops, sink);
    PrintDevice(s);
    docs = s.docs;
    failed_ops = s.clean.failed_ops;
    if (scenario == "control") {
      const ControlScenario c = RunControl(args.ops);
      PrintControl(c);
      docs.insert(docs.end(), c.docs.begin(), c.docs.end());
      failed_ops += c.uncontrolled.failed_ops + c.controlled.failed_ops;
    }
  } else if (scenario == "fleet") {
    const FleetScenario s = RunFleet(args.ops, sink);
    PrintFleet(s);
    docs = s.docs;
    failed_ops = s.uniform.failed_ops;
  } else {
    const TenantScenario s = RunTenant(args.ops, sink);
    PrintTenants("clean blend", *s.clean.cluster);
    PrintTenants("noisy-neighbor storm", *s.storm.cluster);
    docs = s.docs;
    failed_ops = s.clean.failed_ops;
  }
  int rc = 0;
  if (failed_ops != 0) {
    std::fprintf(stderr, "timeline_report: %llu op(s) of an exported run "
                 "failed\n", static_cast<unsigned long long>(failed_ops));
    rc = 1;
  }

  for (const Document& doc : docs) {
    if (export_prefix.empty()) break;
    if (WriteFile(export_prefix + doc.suffix, doc.body)) {
      std::printf("exported %s%s\n", export_prefix.c_str(), doc.suffix.c_str());
    } else {
      rc = 1;
    }
  }

  // Hold the server up for an external scraper: publish the resolved port,
  // then wait (wall-clock; virtual time is finished) until the scraper
  // deletes the port file or the hold expires.
  const std::string port_path = export_prefix + ".port";
  if (rc == 0 && serve_hold_ms > 0) {
    if (!WriteFile(port_path, std::to_string(server.port()) + "\n")) return 1;
    std::printf("holding server up to %llu ms (delete %s to release)\n",
                static_cast<unsigned long long>(serve_hold_ms),
                port_path.c_str());
    std::fflush(stdout);
    for (std::uint64_t waited_ms = 0;
         waited_ms < serve_hold_ms && ::access(port_path.c_str(), F_OK) == 0;
         waited_ms += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::remove(port_path.c_str());
  }
  server.Stop();
  return rc;
}
