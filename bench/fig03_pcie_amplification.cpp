// Figure 3 (Section 2.4): PCIe traffic amplification of the baseline
// NVMe KV-SSD. (a) total PCIe traffic + average transfer response time for
// value sizes 1-16 KiB; (b) Traffic Amplification Factor for 32 B - 1 KiB.
// NAND I/O is disabled to isolate the transfer path.
#include "bench_util.h"
#include "workload/workloads.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/100000);
  KvSsdOptions options = DefaultBenchOptions();
  options.driver.method = driver::TransferMethod::kPrp;
  options.controller.nand_io_enabled = false;
  PrintPlatform("Figure 3: baseline PCIe traffic amplification", options, args);
  CsvWriter csv(args);
  csv.Header("series,value_size_bytes,traffic_gb,response_us,taf");

  std::printf("\n-- Fig 3(a): total PCIe traffic & avg transfer response "
              "(Workload A, Baseline) --\n");
  std::printf("%8s %16s %18s\n", "vsize", "traffic (GB)", "response (us)");
  for (std::size_t kb = 1; kb <= 16; ++kb) {
    auto ssd = KvSsd::Open(options).value();
    auto spec = workload::MakeWorkloadA(kb * 1024, args.ops);
    auto r = RunPut(*ssd, spec);
    std::printf("%8s %16.2f %18.2f\n", SizeLabel(kb * 1024),
                ScaledGB(args, r.TrafficPerOpBytes()), r.MeanResponseUs());
    csv.Row("fig3a,%zu,%.3f,%.2f,", kb * 1024,
            ScaledGB(args, r.TrafficPerOpBytes()), r.MeanResponseUs());
  }

  std::printf("\n-- Fig 3(b): Traffic Amplification Factor --\n");
  std::printf("%8s %12s\n", "vsize", "TAF");
  for (std::size_t size : {32u, 64u, 128u, 256u, 512u, 1024u}) {
    auto ssd = KvSsd::Open(options).value();
    auto spec = workload::MakeWorkloadA(size, args.ops);
    auto r = RunPut(*ssd, spec);
    std::printf("%8s %12.1f\n", SizeLabel(size), r.TrafficAmplification());
    csv.Row("fig3b,%zu,,,%.2f", size, r.TrafficAmplification());
  }
  std::printf("\npaper: TAF 130.0 / 65.0 / 32.5 / 16.3 / 8.1 / 4.1; traffic "
              "steps at exact 4 KiB boundaries\n");
  return 0;
}
