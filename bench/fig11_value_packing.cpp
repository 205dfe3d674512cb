// Figure 11 (Section 4.3): effects of fine-grained value packing with NAND
// I/O enabled (All Packing Policy). Configurations: Baseline (PRP + Block),
// Piggyback (piggyback + Block), Packing (PRP + All), Piggy+Pack
// (piggyback + All). Workload A across value sizes 4 B - 4 KiB. The paper
// runs 10 M pairs; totals here are scaled to 10 M.
#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/30000);
  args.paper_ops = 10000000;  // Figure 11 uses 10 M pairs.
  KvSsdOptions base = DefaultBenchOptions();
  PrintPlatform("Figure 11: fine-grained value packing", base, args);

  struct Config {
    const char* name;
    driver::TransferMethod method;
    buffer::PackingPolicy policy;
  };
  const Config configs[] = {
      {"Baseline", driver::TransferMethod::kPrp, buffer::PackingPolicy::kBlock},
      {"Piggyback", driver::TransferMethod::kPiggyback,
       buffer::PackingPolicy::kBlock},
      {"Packing", driver::TransferMethod::kPrp, buffer::PackingPolicy::kAll},
      {"Piggy+Pack", driver::TransferMethod::kPiggyback,
       buffer::PackingPolicy::kAll},
  };

  const std::size_t sizes[] = {4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
  std::printf("\n%8s", "vsize");
  for (const auto& c : configs) std::printf(" | %10s I/O(M)  resp(us)", c.name);
  std::printf("\n");
  for (std::size_t size : sizes) {
    std::printf("%8s", SizeLabel(size));
    for (const auto& c : configs) {
      KvSsdOptions o = base;
      o.driver.method = c.method;
      o.buffer.policy = c.policy;
      auto ssd = KvSsd::Open(o).value();
      auto spec = workload::MakeWorkloadA(size, args.ops);
      auto r = RunPut(*ssd, spec);
      const double nand_per_op =
          static_cast<double>(r.delta.nand_pages_programmed) /
          static_cast<double>(r.ops);
      std::printf(" | %10s %6.2f  %8.1f", "",
                  ScaledMillions(args, nand_per_op), r.MeanResponseUs());
    }
    std::printf("\n");
  }
  std::printf("\npaper: packing cuts NAND writes by 98.1%% and response by "
              "67.6%% at 4-32 B; Piggy+Pack shaves a further ~4%% at 32 B but "
              "collapses from 128 B (serialized trailing commands)\n");
  return 0;
}
