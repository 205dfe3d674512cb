// sim_speed: wall-clock throughput of the simulator itself.
//
// Every figure harness and campaign in this repo is bounded by how many
// simulated NVMe commands the *host machine* can execute per second, not by
// anything the virtual clock says. This harness measures exactly that:
// wall-clock Mops/s (millions of KV operations per second of real time) and
// the virtual-to-wall ratio (how many nanoseconds of simulated device time
// one nanosecond of host CPU buys) across six profiles:
//
//   put_1q / get_1q / mixed_1q   — the serial executor on one queue
//   put_4q / get_4q / mixed_4q   — the multi-stream executor over four
//                                  queue pairs of one device
//   cluster_mixed_4shard         — the KvCluster router: a mixed campaign
//                                  through the multi-stream executor over
//                                  the shards of a four-device cluster
//
// All profiles run 128 B values over a fixed 4096-key working set, so PUTs
// take the piggyback path (1 write + 2 transfer commands) and GETs are
// PRP reads — the command mix the paper's Section 4.2 measurements stress.
// Ops overwrite/reread the same keys, so the device reaches steady state
// and the numbers reflect the per-op hot path, not data-structure growth.
//
// Usage:
//   sim_speed [--ops=N] [--reps=N] [--csv=FILE]
//             [--profiles=a,b,...]             # run a subset (default: all)
//             [--write-baseline=FILE]          # emit baseline JSON
//             [--check=FILE] [--tolerance=T]   # CI regression gate
//
// The gate fails (exit 1) if any profile's Mops/s drops below
// baseline * (1 - tolerance). Wall-clock numbers are machine-dependent:
// regenerate the baseline with --write-baseline on the machine class that
// runs the gate (CI uses bench/baseline_sim_speed.json with T = 0.15).
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util.h"

namespace bandslim::bench {
namespace {

enum class OpMix { kPut, kGet, kMixed };

struct Profile {
  const char* name;
  OpMix mix;
  std::uint16_t streams;  // 1 = serial executor; >1 = queue-pair lanes.
  std::uint32_t shards = 0;  // >0 = run through a KvCluster of this size.
};

constexpr Profile kProfiles[] = {
    {"put_1q", OpMix::kPut, 1},     {"put_4q", OpMix::kPut, 4},
    {"get_1q", OpMix::kGet, 1},     {"get_4q", OpMix::kGet, 4},
    {"mixed_1q", OpMix::kMixed, 1}, {"mixed_4q", OpMix::kMixed, 4},
    {"cluster_mixed_4shard", OpMix::kMixed, 1, 4},
};
constexpr int kNumProfiles = static_cast<int>(std::size(kProfiles));

constexpr std::size_t kValueSize = 128;
constexpr std::size_t kNumKeys = 4096;

struct ProfileResult {
  std::uint64_t ops = 0;
  double wall_ms = 0.0;     // Best rep.
  double virtual_ms = 0.0;  // Virtual time of the best rep.
  double mops = 0.0;
  double v2w = 0.0;  // Virtual ns per wall ns.
};

struct SpeedArgs {
  std::uint64_t ops = 100000;  // Per profile, per rep.
  int reps = 2;
  std::string csv_path;
  std::string profiles;  // Comma-separated subset; empty = all.
  std::string write_baseline;
  std::string check_path;
  double tolerance = 0.15;

  bool ProfileSelected(const char* name) const {
    if (profiles.empty()) return true;
    const std::string needle(name);
    std::size_t pos = 0;
    while (pos <= profiles.size()) {
      std::size_t end = profiles.find(',', pos);
      if (end == std::string::npos) end = profiles.size();
      if (profiles.compare(pos, end - pos, needle) == 0) return true;
      pos = end + 1;
    }
    return false;
  }
};

SpeedArgs ParseSpeedArgs(int argc, char** argv) {
  SpeedArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      args.ops = std::strtoull(argv[i] + 6, nullptr, 10);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      args.reps = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      args.csv_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--profiles=", 11) == 0) {
      args.profiles = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--write-baseline=", 17) == 0) {
      args.write_baseline = argv[i] + 17;
    } else if (std::strncmp(argv[i], "--check=", 8) == 0) {
      args.check_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
      args.tolerance = std::atof(argv[i] + 12);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (args.reps < 1) args.reps = 1;
  return args;
}

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::exit(2);
}

// A device profile's op stream: op i touches key i mod kNumKeys and is a GET
// or a PUT per the mix (mixed: odd ops read). GETs go through GetInto, so
// the steady-state loop performs zero heap allocations per op.
workload::OpStream SpeedStream(OpMix mix, std::uint64_t ops) {
  workload::OpStream stream(ops);
  for (std::uint64_t i = 0; i < ops; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "k%06llu",
                  static_cast<unsigned long long>(i % kNumKeys));
    const bool is_get =
        mix == OpMix::kGet || (mix == OpMix::kMixed && (i & 1) != 0);
    stream[i] = {is_get ? workload::OpKind::kGet : workload::OpKind::kPut,
                 key, static_cast<std::uint32_t>(kValueSize), i};
  }
  return stream;
}

// Runs one profile on a freshly opened store: preload the working set, then
// time `reps` identical passes of `ops` operations and keep the best. The
// cluster profile runs a seeded mixed stream through the shard lanes — the
// router + per-shard stream hot path end to end.
ProfileResult RunProfile(const Profile& p, const SpeedArgs& args) {
  std::unique_ptr<KvSsd> ssd;
  std::unique_ptr<cluster::KvCluster> fleet;
  workload::OpStream stream;
  if (p.shards > 0) {
    cluster::ClusterConfig cc;
    cc.num_shards = p.shards;
    cc.shard = DefaultBenchOptions();
    cc.shard.retain_payloads = true;
    auto opened = cluster::KvCluster::Open(cc);
    if (!opened.ok()) Die("cluster open", opened.status());
    fleet = std::move(opened).value();
    workload::MixedWorkloadSpec spec;
    spec.ops = args.ops;
    spec.num_keys = kNumKeys;
    spec.value_size = kValueSize;
    spec.get_permille = 500;
    spec.seed = 29;
    const Status preloaded = workload::PreloadMixedKeys(*fleet, spec);
    if (!preloaded.ok()) Die("cluster preload", preloaded);
    stream = workload::MixedStream(spec);
  } else {
    KvSsdOptions o = DefaultBenchOptions();
    o.retain_payloads = true;  // GETs must exercise the real read path.
    o.num_queues = 4;
    auto opened = KvSsd::Open(o);
    if (!opened.ok()) Die("device open", opened.status());
    ssd = std::move(opened).value();
    // Preload so GETs always hit and PUTs are steady-state overwrites.
    const workload::RunResult preload =
        workload::RunSerial(*ssd, SpeedStream(OpMix::kPut, kNumKeys));
    if (!preload.ok()) Die("preload", preload.status);
    stream = SpeedStream(p.mix, args.ops);
  }

  ProfileResult best;
  best.ops = args.ops;
  for (int rep = 0; rep < args.reps; ++rep) {
    const auto wall_start = std::chrono::steady_clock::now();
    const workload::RunResult r =
        fleet ? workload::RunParallel(*fleet, stream)
        : p.streams == 1 ? workload::RunSerial(*ssd, stream)
                         : workload::RunParallel(*ssd, stream, p.streams);
    const auto wall_end = std::chrono::steady_clock::now();
    if (!r.ok()) Die(p.name, r.status);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(wall_end - wall_start)
            .count();
    if (rep == 0 || wall_ms < best.wall_ms) {
      best.wall_ms = wall_ms;
      best.virtual_ms = static_cast<double>(r.elapsed_ns) / 1e6;
    }
  }
  best.mops = best.wall_ms > 0.0
                  ? static_cast<double>(best.ops) / (best.wall_ms * 1e3)
                  : 0.0;
  best.v2w = best.wall_ms > 0.0 ? best.virtual_ms / best.wall_ms : 0.0;
  return best;
}

// --- Baseline JSON (flat, hand-parsed: no JSON dependency in the tree) ----
//
//   {"schema": "bandslim.sim_speed.v1", "ops": N,
//    "profiles": {"put_1q": 1.2345, ...}}    # Mops/s per profile

void WriteBaseline(const char* path, const ProfileResult (&results)[kNumProfiles],
                   std::uint64_t ops) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\"schema\": \"bandslim.sim_speed.v1\", \"ops\": %" PRIu64
                  ",\n \"profiles\": {",
               ops);
  bool first = true;
  for (int i = 0; i < kNumProfiles; ++i) {
    if (results[i].ops == 0) continue;  // Profile not selected.
    std::fprintf(f, "%s\"%s\": %.4f", first ? "" : ", ", kProfiles[i].name,
                 results[i].mops);
    first = false;
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
  std::printf("baseline written to %s\n", path);
}

// Extracts `"name": <number>` from the baseline; returns false if absent.
bool ParseBaselineEntry(const std::string& text, const char* name,
                        double* out) {
  const std::string needle = std::string("\"") + name + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

int CheckBaseline(const char* path, double tolerance,
                  const ProfileResult (&results)[kNumProfiles]) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open baseline %s\n", path);
    return 2;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  int failures = 0;
  std::printf("\nregression gate (tolerance %.0f%% vs %s):\n", tolerance * 100,
              path);
  for (int i = 0; i < kNumProfiles; ++i) {
    if (results[i].ops == 0) continue;  // Profile not selected.
    double base = 0.0;
    if (!ParseBaselineEntry(text, kProfiles[i].name, &base)) {
      std::printf("  %-20s  no baseline entry — skipped\n", kProfiles[i].name);
      continue;
    }
    const double floor = base * (1.0 - tolerance);
    const bool ok = results[i].mops >= floor;
    std::printf("  %-20s  %7.4f Mops/s vs baseline %7.4f (floor %7.4f)  %s\n",
                kProfiles[i].name, results[i].mops, base, floor,
                ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "sim_speed: %d profile(s) regressed more than %.0f%%\n",
                 failures, tolerance * 100);
    return 1;
  }
  std::printf("  all profiles within tolerance\n");
  return 0;
}

}  // namespace
}  // namespace bandslim::bench

int main(int argc, char** argv) {
  using namespace bandslim;
  using namespace bandslim::bench;
  const SpeedArgs args = ParseSpeedArgs(argc, argv);

  std::printf("sim_speed: %" PRIu64 " ops/profile, %zu B values, %zu keys, "
              "best of %d rep(s)\n\n",
              args.ops, kValueSize, kNumKeys, args.reps);
  std::printf("%-20s  %10s  %10s  %10s  %10s\n", "profile", "wall_ms",
              "Mops/s", "virt_ms", "virt/wall");

  ProfileResult results[kNumProfiles];
  for (int i = 0; i < kNumProfiles; ++i) {
    if (!args.ProfileSelected(kProfiles[i].name)) continue;
    results[i] = RunProfile(kProfiles[i], args);
    std::printf("%-20s  %10.2f  %10.4f  %10.2f  %9.2fx\n", kProfiles[i].name,
                results[i].wall_ms, results[i].mops, results[i].virtual_ms,
                results[i].v2w);
    std::fflush(stdout);
  }

  if (!args.csv_path.empty()) {
    std::FILE* f = std::fopen(args.csv_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   args.csv_path.c_str());
      return 2;
    }
    std::fprintf(f, "profile,ops,wall_ms,mops_per_sec,virtual_ms,"
                    "virtual_to_wall\n");
    for (int i = 0; i < kNumProfiles; ++i) {
      if (results[i].ops == 0) continue;  // Profile not selected.
      std::fprintf(f, "%s,%" PRIu64 ",%.3f,%.4f,%.3f,%.3f\n",
                   kProfiles[i].name, results[i].ops, results[i].wall_ms,
                   results[i].mops, results[i].virtual_ms, results[i].v2w);
    }
    std::fclose(f);
  }

  if (!args.write_baseline.empty()) {
    WriteBaseline(args.write_baseline.c_str(), results, args.ops);
  }
  if (!args.check_path.empty()) {
    return CheckBaseline(args.check_path.c_str(), args.tolerance, results);
  }
  return 0;
}
