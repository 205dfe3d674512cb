// Ablation: synchronous vs. parallel NAND dispatch. The Cosmos+ firmware
// path the paper measures programs pages synchronously, which is why
// buffer-flush frequency dominates write response (Figs 11-12). Parallel
// mode routes the same programs through the channel/way scheduler
// (per-channel and per-die busy timelines, bounded per-die queues) with
// die-striped FTL allocation, so flushes leave the critical path — this
// bench quantifies how much of BandSlim's packing win depends on the
// synchronous-flush assumption.
#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/60000);
  KvSsdOptions base = DefaultBenchOptions();
  base.driver.method = driver::TransferMethod::kAdaptive;
  PrintPlatform("Ablation: NAND program dispatch (sync vs 4ch x 8way parallel)",
                base, args);

  CsvWriter csv(args);
  csv.Header("policy,workload,sync_us_per_op,parallel_us_per_op,speedup");

  std::printf("\n%9s %6s | %13s %13s | %13s\n", "policy", "wl", "sync us/op",
              "par us/op", "par speedup");
  for (auto policy : {buffer::PackingPolicy::kBlock, buffer::PackingPolicy::kAll,
                      buffer::PackingPolicy::kSelectiveBackfill}) {
    for (int w = 0; w < 2; ++w) {
      const char* wl = w == 0 ? "W(B)" : "W(M)";
      double resp[2];
      for (int mode = 0; mode < 2; ++mode) {
        KvSsdOptions o = base;
        o.buffer.policy = policy;
        o.cost.nand_async_program = (mode == 1);
        o.ftl.stripe_across_dies = (mode == 1);
        auto ssd = KvSsd::Open(o).value();
        auto spec = w == 0 ? workload::MakeWorkloadB(args.ops)
                           : workload::MakeWorkloadM(args.ops);
        resp[mode] =
            RunPut(*ssd, spec).MeanResponseUs();
      }
      std::printf("%9s %6s | %13.1f %13.1f | %12.2fx\n",
                  buffer::PolicyName(policy), wl, resp[0], resp[1],
                  resp[0] / resp[1]);
      csv.Row("%s,%s,%.3f,%.3f,%.3f", buffer::PolicyName(policy), wl, resp[0],
              resp[1], resp[0] / resp[1]);
    }
  }
  std::printf("\ntake-away: async dispatch compresses the Block-vs-packed "
              "response gap (NAND time leaves the critical path), but the "
              "NAND I/O count — endurance and bandwidth — still differs by "
              "the full packing factor, so BandSlim's packing win survives "
              "a smarter flush path\n");
  return 0;
}
