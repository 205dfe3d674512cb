// Shared helpers for the figure-reproduction harnesses.
//
// Scaling: the paper issues 1 M PUTs per point (10 M for Figure 11). The
// harnesses default to fewer simulated ops so the whole suite finishes in
// minutes on one core, then report totals scaled to the paper's op count
// (per-op traffic and NAND-pages are independent of run length; the scale
// factor is printed). Use --ops=N to change the per-point op count.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/kvssd.h"
#include "workload/runner.h"

namespace bandslim::bench {

struct BenchArgs {
  std::uint64_t ops = 0;           // 0 = use the bench's default.
  std::uint64_t paper_ops = 1000000;  // What the paper ran per point.
  std::string csv_path;            // --csv=FILE: machine-readable series.
};

inline BenchArgs ParseArgs(int argc, char** argv, std::uint64_t default_ops) {
  BenchArgs args;
  args.ops = default_ops;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      args.ops = std::strtoull(argv[i] + 6, nullptr, 10);
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      args.csv_path = argv[i] + 6;
    }
  }
  return args;
}

// Optional CSV sink for plotting: one header + data rows, written only when
// --csv=FILE was passed.
class CsvWriter {
 public:
  explicit CsvWriter(const BenchArgs& args) {
    if (!args.csv_path.empty()) {
      file_ = std::fopen(args.csv_path.c_str(), "w");
      if (file_ == nullptr) {
        std::fprintf(stderr, "warning: --csv: cannot open %s for writing\n",
                     args.csv_path.c_str());
      }
    }
  }
  ~CsvWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void Header(const char* columns) {
    if (file_ != nullptr) std::fprintf(file_, "%s\n", columns);
  }
  template <typename... Args>
  void Row(const char* fmt, Args... args) {
    if (file_ != nullptr) {
      std::fprintf(file_, fmt, args...);
      std::fprintf(file_, "\n");
    }
  }

 private:
  std::FILE* file_ = nullptr;
};

// Tables 1 & 2 analog: what this simulated platform looks like.
inline void PrintPlatform(const char* bench_name, const KvSsdOptions& o,
                          const BenchArgs& args) {
  const auto& g = o.geometry;
  std::printf("================================================================\n");
  std::printf("%s  (BandSlim reproduction, simulated Cosmos+ OpenSSD)\n", bench_name);
  std::printf("  NAND    : %u ch x %u way, %.1f GiB, %zu B pages\n", g.channels,
              g.ways, static_cast<double>(g.capacity_bytes()) / (1ull << 30),
              g.page_size);
  std::printf("  costs   : cmd RT %.1f us, DMA/page %.1f us, NAND prog %.0f us, "
              "memcpy %.0f ns/B\n",
              o.cost.cmd_round_trip_ns / 1e3, o.cost.dma_page_ns / 1e3,
              o.cost.nand_program_ns / 1e3,
              static_cast<double>(o.cost.memcpy_ns_per_byte));
  std::printf("  ops     : %llu per point (totals scaled to the paper's %llu)\n",
              static_cast<unsigned long long>(args.ops),
              static_cast<unsigned long long>(args.paper_ops));
  std::printf("================================================================\n");
}

inline double ScaledGB(const BenchArgs& args, double bytes_per_op) {
  return bytes_per_op * static_cast<double>(args.paper_ops) / 1e9;
}

inline double ScaledMillions(const BenchArgs& args, double count_per_op) {
  return count_per_op * static_cast<double>(args.paper_ops) / 1e6;
}

inline KvSsdOptions DefaultBenchOptions() {
  KvSsdOptions o;
  // 64 GiB geometry in the testbed's 4ch x 8way shape: large enough for the
  // scaled runs, small enough to keep FTL metadata light.
  o.geometry.channels = 4;
  o.geometry.ways = 8;
  o.geometry.blocks_per_die = 512;
  o.geometry.pages_per_block = 256;
  o.retain_payloads = false;  // Write benches never read values back.
  return o;
}

// Exits nonzero when a run stopped early: a truncated run must never print
// as a valid figure point.
inline workload::RunResult Checked(workload::RunResult r) {
  if (!r.ok()) {
    std::fprintf(stderr, "run failed after %llu ops: %s\n",
                 static_cast<unsigned long long>(r.ops),
                 r.status.ToString().c_str());
    std::exit(1);
  }
  return r;
}

// The spec's PUT stream, issued serially; exits nonzero on a failed run.
inline workload::RunResult RunPut(KvStore& store,
                                  const workload::WorkloadSpec& spec) {
  return Checked(workload::RunSerial(store, workload::PutStream(spec)));
}

inline const char* SizeLabel(std::size_t bytes) {
  static char buf[32];
  if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof buf, "%zuK", bytes / 1024);
  } else {
    std::snprintf(buf, sizeof buf, "%zuB", bytes);
  }
  return buf;
}

}  // namespace bandslim::bench
