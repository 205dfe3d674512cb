// Ablation: NVMe queue-pair scaling. The paper's passthrough path drives
// one submission queue synchronously; this bench shards the same PUT
// sequence across 1..8 queue pairs (the multi-stream workload executor) and
// crosses that with the NAND dispatch mode. With synchronous NAND the
// device serializes everything and extra queues buy little; with the
// channel/way scheduler + die-striped FTL allocation the modeled throughput
// scales until the shared command-fetch unit or the NAND array saturates.
#include <chrono>

#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/60000);
  KvSsdOptions base = DefaultBenchOptions();
  base.driver.method = driver::TransferMethod::kAdaptive;
  PrintPlatform("Ablation: queue-pair scaling x NAND dispatch (Workload B)",
                base, args);

  CsvWriter csv(args);
  csv.Header("queues,nand,modeled_kops,wall_kops,speedup_vs_sync1");

  std::printf("\n%7s %9s | %13s %13s | %14s\n", "queues", "nand",
              "modeled Kops/s", "wall Kops/s", "vs 1q sync");
  double baseline_kops = 0.0;
  for (int mode = 0; mode < 2; ++mode) {
    const bool parallel = (mode == 1);
    for (std::uint16_t queues : {1, 2, 4, 8}) {
      KvSsdOptions o = base;
      o.num_queues = queues;
      o.cost.nand_async_program = parallel;
      // Geometry-aware dispatch only pays off when programs can actually
      // overlap; the sync path keeps the paper-faithful allocator.
      o.ftl.stripe_across_dies = parallel;
      auto ssd = KvSsd::Open(o).value();
      const workload::OpStream stream =
          workload::PutStream(workload::MakeWorkloadB(args.ops));

      const auto wall_start = std::chrono::steady_clock::now();
      const auto r = Checked(workload::RunParallel(*ssd, stream, queues));
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      const double wall_kops =
          wall_s > 0.0 ? static_cast<double>(r.ops) / wall_s / 1000.0 : 0.0;

      if (baseline_kops == 0.0) baseline_kops = r.KopsPerSec();
      const double speedup = r.KopsPerSec() / baseline_kops;
      std::printf("%7u %9s | %13.1f %13.1f | %13.2fx\n", queues,
                  parallel ? "parallel" : "sync", r.KopsPerSec(), wall_kops,
                  speedup);
      csv.Row("%u,%s,%.3f,%.3f,%.3f", queues, parallel ? "parallel" : "sync",
              r.KopsPerSec(), wall_kops, speedup);
    }
  }
  std::printf("\ntake-away: extra queue pairs overlap host round trips and "
              "device KVS work either way, but with synchronous NAND every "
              "flush funnels into one active block's die and scaling bends "
              "over by 8 queues; the channel/way scheduler + die striping "
              "spreads flushes across the 4ch x 8way array and keeps the "
              "scaling near-linear until the shared fetch unit binds\n");
  return 0;
}
