// perfbench: the repository benchmark. Runs one named workload for a given
// number of host seconds and prints its metrics, the last line being one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 reports the end-to-end metrics: simulator speed and memory
// (host) and BandSlim's modeled results (virtual time, exact). --trace 1
// adds a traced pass and reports the per-layer metrics instead. Every
// repetition re-runs the whole seeded stream on a freshly opened store, so
// modeled results repeat exactly. host_kops and setup_s take each segment
// of the timed phase or the preload at its fastest repetition or set-up
// (BestSegmentsSeconds); the other host times are medians. Any failed op,
// read-back mismatch, or modeled result that differs between repetitions
// makes the run incorrect and exits nonzero.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 1000;
constexpr int kSetups = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "fill_mixgraph_1q") return MakeFill(seed);
  if (name == "read_zipf_4q") return MakeRead(seed);
  if (name == "cluster_blend_4shard") return MakeCluster(seed, false);
  if (name == "cluster_observed_4shard") return MakeCluster(seed, true);
  return nullptr;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// One reported metric: value, unit, and what it was computed over.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& base = "") {
    metrics_.push_back({name, value, unit, base});
  }

  // Human-readable lines, then the JSON result as the last line.
  void Print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-32s %18.6f %-12s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

std::string Count(const char* what, std::uint64_t n) {
  return std::string(what) + " " + std::to_string(n);
}

// Untraced repetitions until `seconds` of host time have passed (at least
// kMinReps). Every repetition must reproduce the first one's modeled
// outcome exactly.
struct Measured {
  RepOutcome first;
  std::vector<double> kops, export_ms, ns_per_op;
  std::vector<std::vector<double>> segments;        // Per repetition.
  std::vector<std::vector<double>> setup_segments;  // Per set-up.
  std::uint64_t attempted = 0, failed = 0;
  std::string problem;
};

Measured MeasureUntraced(Workload& w, double seconds) {
  Measured m;
  // setup_s: a fixed number of set-ups before any repetition, so the count
  // and the allocator state they start from do not depend on host speed.
  // (A repetition's own set-up is not used: after a repetition has grown
  // the heap, an open can reuse its freed pages, and on the fill it then
  // takes 4 ms instead of 18 ms depending on whether glibc trimmed.)
  for (int i = 0; i < kSetups; ++i) {
    std::vector<double> segments;
    if (!w.Setup(&segments)) {
      m.problem = "set-up failed";
      return m;
    }
    double s = 0.0;
    for (const double seg : segments) s += seg;
    std::printf("setup %d: %.4f s\n", i, s);
    m.setup_segments.push_back(std::move(segments));
  }
  const auto start = WallClock::now();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    RepOutcome r = w.Rep(/*exact_trace=*/false);
    std::printf("rep %d: setup %.4f s, timed %.4f s, %.1f Kops/s\n", rep,
                r.setup_s, r.run_s,
                Ratio(static_cast<double>(r.ops), r.run_s) / 1e3);
    m.attempted += r.attempted;
    m.failed += r.failed;
    if (r.failed != 0 && m.problem.empty()) m.problem = r.first_failure;
    m.kops.push_back(Ratio(static_cast<double>(r.ops), r.run_s) / 1e3);
    m.ns_per_op.push_back(Ratio(r.run_s * 1e9, static_cast<double>(r.ops)));
    m.export_ms.push_back(r.export_ms);
    m.segments.push_back(r.segment_s);
    if (rep == 0) {
      m.first = std::move(r);
      const std::string check = w.Check(m.first);
      if (!check.empty() && m.problem.empty()) m.problem = check;
    } else if (ModelDigest(r) != ModelDigest(m.first) && m.problem.empty()) {
      m.problem = "repetition " + std::to_string(rep) +
                  " changed the modeled outcome";
    }
    if (rep + 1 >= kMinReps &&
        SecondsBetween(start, WallClock::now()) >= seconds) {
      break;
    }
  }
  if ((BestSegmentsSeconds(m.segments) <= 0.0 ||
       BestSegmentsSeconds(m.setup_segments) <= 0.0) &&
      m.problem.empty()) {
    m.problem = "repetitions or set-ups cut into different segments";
  }
  return m;
}

void AddEndToEnd(const Measured& m, Report* report) {
  const RepOutcome& r = m.first;
  const double best_s = BestSegmentsSeconds(m.segments);
  report->Add("host_kops", Ratio(static_cast<double>(r.ops), best_s) / 1e3,
              "Kops/s",
              "client ops per host second, each " +
                  std::to_string(kSegmentOps) + "-op segment at its fastest of " +
                  std::to_string(m.segments.size()) + " reps, " +
                  std::to_string(r.ops) + " ops (median of reps " +
                  std::to_string(Median(m.kops)) + ")");
  report->Add("setup_s", BestSegmentsSeconds(m.setup_segments), "s",
              "open + preload, each " + std::to_string(kSegmentOps) +
                  "-key segment at its fastest of " +
                  std::to_string(m.setup_segments.size()) + " set-ups");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB", "max RSS of the process");
  report->Add("ok_op_frac",
              Ratio(static_cast<double>(m.attempted - m.failed),
                    static_cast<double>(m.attempted)),
              "ratio", Count("of attempted ops + read-backs", m.attempted));
  const double elapsed_s = static_cast<double>(r.elapsed_ns) / 1e9;
  report->Add("model_kops",
              Ratio(static_cast<double>(r.ops), elapsed_s) / 1e3,
              "Kops/s_virt", "ops / virtual elapsed " +
                                 std::to_string(r.elapsed_ns) + " ns");
  std::vector<std::uint64_t> lat = r.lat_ns;
  std::sort(lat.begin(), lat.end());
  const std::string n = std::to_string(lat.size());
  report->Add("model_lat_p50_us",
              static_cast<double>(PercentileOfSorted(lat, 500000)) / 1e3,
              "us_virt", "nearest rank, n = " + n);
  report->Add("model_lat_p99_us",
              static_cast<double>(PercentileOfSorted(lat, 990000)) / 1e3,
              "us_virt",
              "nearest rank, n = " + n + ", " +
                  std::to_string(SamplesBeyond(lat.size(), 990000)) +
                  " beyond");
  const double value_bytes = static_cast<double>(r.value_bytes);
  const std::string vb = "of " + std::to_string(r.value_bytes) +
                         " requested value bytes";
  report->Add("taf", Ratio(static_cast<double>(r.delta.pcie_h2d_bytes), value_bytes),
              "ratio", "PCIe H2D bytes " + vb);
  report->Add("waf",
              Ratio(static_cast<double>(r.delta.nand_pages_programmed) *
                        static_cast<double>(bandslim::kNandPageSize),
                    value_bytes),
              "ratio", "NAND pages x 16 KiB " + vb);
  report->Add("space_amp",
              SpaceAmp(r.mapped_pages, bandslim::kNandPageSize, r.live_bytes),
              "ratio",
              "FTL mapped pages x 16 KiB of " + std::to_string(r.live_bytes) +
                  " live key+value bytes");
}

void AddCounters(const RepOutcome& r, Report* report) {
  const bandslim::KvSsdStats& d = r.delta;
  const double ops = static_cast<double>(r.ops);
  const double kops = ops / 1e3;
  const std::string per = Count("over ops", r.ops);
  auto per_op = [&](const char* name, std::uint64_t v, const char* unit) {
    report->Add(name, Ratio(static_cast<double>(v), ops), unit, per);
  };
  auto per_kop = [&](const char* name, std::uint64_t v, const char* unit) {
    report->Add(name, Ratio(static_cast<double>(v), kops), unit, per);
  };
  auto count = [&](const char* name, std::uint64_t v) {
    report->Add(name, static_cast<double>(v), "count", "timed phase");
  };
  per_op("nvme.cmds_per_op", d.commands_submitted, "cmd/op");
  per_op("pcie.h2d_bytes_per_op", d.pcie_h2d_bytes, "B/op");
  per_op("pcie.d2h_bytes_per_op", d.pcie_d2h_bytes, "B/op");
  per_op("dma.h2d_bytes_per_op", d.dma_h2d_bytes, "B/op");
  per_op("buffer.memcpy_bytes_per_op", d.device_memcpy_bytes, "B/op");
  per_kop("buffer.wasted_bytes_per_kop", d.buffer_wasted_bytes, "B/kop");
  count("buffer.dlt_forced_evictions", d.dlt_forced_evictions);
  per_kop("vlog.pages_flushed_per_kop", d.vlog_pages_flushed, "pages/kop");
  count("lsm.flushes", d.memtable_flushes);
  count("lsm.compactions", d.lsm_compactions);
  per_kop("lsm.pages_programmed_per_kop", d.lsm_pages_programmed, "pages/kop");
  per_kop("ftl.gc_pages_per_kop", d.gc_pages_programmed, "pages/kop");
  per_kop("nand.pages_programmed_per_kop", d.nand_pages_programmed,
          "pages/kop");
  count("nand.blocks_erased", d.nand_blocks_erased);
  per_kop("nand.pages_read_per_kop", d.nand_pages_read, "pages/kop");
  count("cluster.cross_shard_batches", r.cross_shard_batches);
  count("cluster.batch_subops", r.batch_subops);
  count("cluster.qos_refill_windows", r.qos_refill_windows);
  count("telemetry.samples", r.shard_samples);
  count("telemetry.events", r.shard_events);
  count("fleet.samples", r.fleet_samples);
  // Ratio bases and the latency sample the tail rule chose from.
  report->Add("bench.ops", ops, "count", "client ops per repetition");
  report->Add("bench.value_bytes", static_cast<double>(r.value_bytes), "B",
              "requested value bytes (taf, waf base)");
  report->Add("bench.live_bytes", static_cast<double>(r.live_bytes), "B",
              "live key+value bytes (space_amp base)");
  std::vector<std::uint64_t> lat = r.lat_ns;
  std::sort(lat.begin(), lat.end());
  const std::uint64_t tail = TailPercentilePpm(lat.size());
  report->Add("lat.samples", static_cast<double>(lat.size()), "count",
              "virtual latency samples");
  report->Add("lat.tail_pct", static_cast<double>(tail) / 1e4, "pct",
              "highest percentile with >= 10 samples beyond (" +
                  std::to_string(SamplesBeyond(lat.size(), tail)) + ")");
  report->Add("lat.tail_us",
              static_cast<double>(PercentileOfSorted(lat, tail)) / 1e3,
              "us_virt", "latency at lat.tail_pct");
}

// Traced pass: one exact-trace repetition for the virtual stage split and
// the tracing overhead, the twin-store peel for host self times, and the
// standalone layer replays.
void AddPerLayer(Workload& w, Measured* m, std::string* problem,
                 Report* report) {
  const RepOutcome traced = w.Rep(/*exact_trace=*/true);
  m->attempted += traced.attempted;
  m->failed += traced.failed;
  if (traced.failed != 0 && problem->empty()) *problem = traced.first_failure;
  if (ModelDigest(traced) != ModelDigest(m->first) && problem->empty()) {
    *problem = "exact tracing changed the modeled outcome";
  }
  Metrics layers = {
      {"cluster.host_ns_per_op", 0.0},  {"cluster.ring_host_ns", 0.0},
      {"core.host_ns_per_op", 0.0},     {"driver.host_ns_per_op", 0.0},
      {"sim.host_ns_per_event", 0.0},   {"telemetry.host_ns_per_op", 0.0},
      {"telemetry.host_us_per_sample", 0.0},
  };
  const std::string peel = w.Peel(&layers);
  if (!peel.empty() && problem->empty()) *problem = peel;
  const std::string replay =
      ReplayLayers(w.stream(), m->first.delta.nand_pages_programmed, &layers);
  if (!replay.empty() && problem->empty()) *problem = replay;

  const RepOutcome& r = m->first;
  auto host = [&](const char* name, const char* unit, const char* how) {
    report->Add(name, layers.at(name), unit, how);
  };
  host("cluster.host_ns_per_op", "ns", "Tenant(t) call - shard-direct call");
  host("cluster.ring_host_ns", "ns", "HashRing owner lookup per routed key");
  host("core.host_ns_per_op", "ns", "KvSsd call - Hooks().driver call");
  host("driver.host_ns_per_op", "ns", "KvDriver call per op");
  host("sim.host_ns_per_event", "ns", "engine loop outside op callbacks");
  host("lsm.put_host_ns", "ns", "standalone LsmTree::Put");
  host("lsm.get_host_ns", "ns", "standalone LsmTree::Get");
  host("buffer.pack_host_ns", "ns", "standalone pack or reserve+commit");
  host("nvme.codec_host_ns", "ns", "piggyback encode+decode per value");
  host("nand.program_host_ns", "ns", "standalone NandFlash::Program");
  host("nand.read_host_ns", "ns", "standalone NandFlash::ReadView");
  host("telemetry.host_ns_per_op", "ns",
       "observed - unobserved repetition, exports excluded");
  host("telemetry.host_us_per_sample", "us",
       "observer time over shard + fleet samples");
  const double export_ms = Median(m->export_ms);
  report->Add("telemetry.export_ms", export_ms, "ms",
               "Finalize + every export (" + std::to_string(r.export_bytes) +
                  " bytes), " + Count("median of reps", m->export_ms.size()));
  // The gap between whole unobserved and observed repetitions, per op, and
  // the share of it that observer time plus exports leave unexplained.
  const double unobserved = layers["telemetry.unobserved_ns_per_op"];
  const double gap = unobserved > 0.0 ? Median(m->ns_per_op) - unobserved : 0.0;
  const double explained = layers.at("telemetry.host_ns_per_op") +
                           export_ms * 1e6 / static_cast<double>(r.ops);
  report->Add("telemetry.gap_ns_per_op", gap, "ns",
              "median rep time per op: observed - unobserved");
  report->Add("telemetry.unexplained_frac",
              gap == 0.0 ? 0.0 : 1.0 - explained / gap, "ratio",
              "1 - (host_ns_per_op + export per op) / gap_ns_per_op");
  AddCounters(r, report);
  const double vt_ops = static_cast<double>(traced.ops);
  for (int i = 0; i < kNumVtStages; ++i) {
    report->Add(kVtStageNames[i], Ratio(traced.vt_ns[i], vt_ops), "ns_virt",
                "exact tracer, per client op");
  }
  const double traced_kops =
      Ratio(static_cast<double>(traced.ops), traced.run_s) / 1e3;
  report->Add("bench.trace_overhead_frac",
              1.0 - traced_kops / Median(m->kops), "ratio",
              "1 - traced / untraced host_kops");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);

  Measured m = MeasureUntraced(*w, args.seconds);
  std::string problem = m.problem;
  Report report;
  if (args.trace == 0) {
    AddEndToEnd(m, &report);
  } else {
    AddPerLayer(*w, &m, &problem, &report);
  }

  const bool correct = problem.empty() && m.failed == 0;
  if (!correct) std::fprintf(stderr, "perfbench: INCORRECT: %s\n", problem.c_str());
  report.Print(correct, m.attempted, m.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
