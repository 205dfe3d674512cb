// Figure 4 (Section 2.4): NAND write amplification of the baseline KV-SSD.
// (a) total NAND page writes + average write response for 1-16 KiB values;
// (b) Write Amplification Factor for 32 B - 1 KiB (includes LSM-tree
// compaction writes, as the paper notes).
#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/50000);
  KvSsdOptions options = DefaultBenchOptions();
  options.driver.method = driver::TransferMethod::kPrp;
  options.buffer.policy = buffer::PackingPolicy::kBlock;
  PrintPlatform("Figure 4: baseline NAND write amplification", options, args);

  std::printf("\n-- Fig 4(a): NAND page writes & avg write response "
              "(Workload A, Baseline) --\n");
  std::printf("%8s %18s %18s\n", "vsize", "NAND I/O (M)", "response (us)");
  for (std::size_t kb = 1; kb <= 16; ++kb) {
    auto ssd = KvSsd::Open(options).value();
    auto spec = workload::MakeWorkloadA(kb * 1024, args.ops);
    auto r = RunPut(*ssd, spec);
    const double nand_per_op =
        static_cast<double>(r.delta.nand_pages_programmed) /
        static_cast<double>(r.ops);
    std::printf("%8s %18.3f %18.1f\n", SizeLabel(kb * 1024),
                ScaledMillions(args, nand_per_op), r.MeanResponseUs());
  }

  std::printf("\n-- Fig 4(b): Write Amplification Factor --\n");
  std::printf("%8s %12s\n", "vsize", "WAF");
  for (std::size_t size : {32u, 64u, 128u, 256u, 512u, 1024u}) {
    auto ssd = KvSsd::Open(options).value();
    auto spec = workload::MakeWorkloadA(size, args.ops);
    auto r = RunPut(*ssd, spec);
    std::printf("%8s %12.1f\n", SizeLabel(size), r.WriteAmplification());
  }
  std::printf("\npaper: WAF 129.9 / 64.9 / 32.4 / 16.2 / 8.1 / 4.0 — WAF "
              "mirrors TAF; write response ~10x transfer response\n");
  return 0;
}
