// Ablation: range queries (SEEK/NEXT, the interface of the base KV-SSD
// [22] this work extends). Fine-grained packing improves scans too: with
// Block packing every small value occupies its own 4 KiB slot, so a scan
// touches 64x more NAND pages than with byte-dense packing.
#include "bench_util.h"
#include "workload/value_gen.h"

using namespace bandslim;
using namespace bandslim::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/20000);
  KvSsdOptions base = DefaultBenchOptions();
  base.retain_payloads = false;
  base.driver.method = driver::TransferMethod::kAdaptive;
  PrintPlatform("Ablation: range scans under packing policies", base, args);

  std::printf("\nscan of all records, 64 B values, sequential keys:\n");
  std::printf("%9s | %14s %16s %14s\n", "policy", "us/record",
              "NAND rd/record", "records/s (K)");
  for (auto policy : {buffer::PackingPolicy::kBlock, buffer::PackingPolicy::kAll,
                      buffer::PackingPolicy::kSelectiveBackfill}) {
    KvSsdOptions o = base;
    o.buffer.policy = policy;
    auto ssd = KvSsd::Open(o).value();
    Bytes value(64, 0x3C);
    for (std::uint64_t i = 0; i < args.ops; ++i) {
      char key[21];  // Up to 20 digits, and the NUL.
      std::snprintf(key, sizeof key, "%010llu",
                    static_cast<unsigned long long>(i));
      if (!ssd->Put(key, ByteSpan(value)).ok()) return 1;
    }
    if (!ssd->Flush().ok()) return 1;

    const KvSsdStats before = ssd->GetStats();
    const auto t0 = ssd->clock().Now();
    auto iter = ssd->Seek("");
    if (!iter.ok()) return 1;
    std::uint64_t scanned = 0;
    for (auto& it = iter.value(); it.Valid(); ++scanned) {
      if (!it.Next().ok()) return 1;
    }
    const auto dt = ssd->clock().Now() - t0;
    const KvSsdStats after = ssd->GetStats();
    if (scanned != args.ops) {
      std::printf("scan mismatch: %llu\n",
                  static_cast<unsigned long long>(scanned));
      return 1;
    }
    const double per = static_cast<double>(scanned);
    std::printf("%9s | %14.2f %16.3f %14.1f\n", buffer::PolicyName(policy),
                static_cast<double>(dt) / per / 1000.0,
                static_cast<double>(after.nand_pages_read -
                                    before.nand_pages_read) / per,
                per / (static_cast<double>(dt) / 1e9) / 1000.0);
  }
  std::printf("\nexpectation: dense packing cuts NAND reads per scanned "
              "record by up to the slot/value ratio (4096/64 = 64x here); "
              "scans use the batched NEXT command (one NVMe round trip per "
              "~32 KiB of records, after [22])\n");
  return 0;
}
