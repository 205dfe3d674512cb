// Figure 9 (Section 4.2): hybrid value transfer for values of 4 KiB plus
// trailing bytes (4 B - 4 KiB). Baseline ships two whole pages; Hybrid
// ships one page by DMA and the remainder piggybacked; Piggyback inlines
// everything. NAND I/O disabled, Workload A.
#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/50000);
  KvSsdOptions base = DefaultBenchOptions();
  base.controller.nand_io_enabled = false;
  PrintPlatform("Figure 9: hybrid value transfer (4 KiB + trailing)", base, args);

  std::printf("\n%9s | %11s %11s %11s | %11s %11s %11s\n", "trailing",
              "Base GB", "Piggy GB", "Hybr GB", "Base us", "Piggy us",
              "Hybr us");
  const std::size_t trailings[] = {4, 8, 16, 32, 64, 128, 256, 512,
                                   1024, 2048, 4096};
  for (std::size_t t : trailings) {
    const std::size_t size = 4096 + t;
    workload::RunResult r[3];
    int i = 0;
    for (auto method :
         {driver::TransferMethod::kPrp, driver::TransferMethod::kPiggyback,
          driver::TransferMethod::kHybrid}) {
      KvSsdOptions o = base;
      o.driver.method = method;
      auto ssd = KvSsd::Open(o).value();
      auto spec = workload::MakeWorkloadA(size, args.ops);
      r[i++] = RunPut(*ssd, spec);
    }
    std::printf("%9s | %11.3f %11.3f %11.3f | %11.1f %11.1f %11.1f\n",
                SizeLabel(t), ScaledGB(args, r[0].TrafficPerOpBytes()),
                ScaledGB(args, r[1].TrafficPerOpBytes()),
                ScaledGB(args, r[2].TrafficPerOpBytes()), r[0].MeanResponseUs(),
                r[1].MeanResponseUs(), r[2].MeanResponseUs());
  }
  std::printf("\npaper: hybrid traffic-optimal up to ~6 KiB total; hybrid "
              "response ~= baseline for small trailings (<=64 B), piggyback "
              "response far worse throughout\n");
  return 0;
}
