// db_bench: a CLI mirroring the paper's (modified) RocksDB db_bench driver
// (Section 4.1). Runs one workload against one device configuration and
// prints the metrics the paper reports.
//
//   $ ./build/examples/db_bench --workload=M --method=adaptive
//        --policy=backfill --ops=100000   (one command line)
//   $ ./build/examples/db_bench --workload=A --value_size=64 --nand=off
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/kvssd.h"
#include "workload/runner.h"
#include "workload/trace.h"
#include "workload/workloads.h"

using namespace bandslim;

namespace {

void Usage() {
  std::printf(
      "usage: db_bench [options]\n"
      "  --workload=A|B|C|D|M   (default A)\n"
      "  --value_size=N         value bytes for workload A (default 64)\n"
      "  --ops=N                number of PUTs (default 100000)\n"
      "  --method=baseline|piggyback|hybrid|adaptive  (default adaptive)\n"
      "  --policy=block|all|select|backfill           (default backfill)\n"
      "  --nand=on|off          NAND I/O enabled (default on)\n"
      "  --seed=N               workload seed (default 1)\n"
      "  --dump_trace=FILE      write the op stream as a trace and exit\n"
      "  --replay=FILE          replay a trace file instead of a workload\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "A";
  std::size_t value_size = 64;
  std::uint64_t ops = 100000;
  std::uint64_t seed = 1;
  std::string dump_trace;
  std::string replay;
  KvSsdOptions options;
  options.retain_payloads = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--workload=", 0) == 0) {
      workload = value_of("--workload=");
    } else if (arg.rfind("--value_size=", 0) == 0) {
      value_size = std::strtoull(value_of("--value_size="), nullptr, 10);
    } else if (arg.rfind("--ops=", 0) == 0) {
      ops = std::strtoull(value_of("--ops="), nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(value_of("--seed="), nullptr, 10);
    } else if (arg.rfind("--method=", 0) == 0) {
      const std::string m = value_of("--method=");
      if (m == "baseline") options.driver.method = driver::TransferMethod::kPrp;
      else if (m == "piggyback") options.driver.method = driver::TransferMethod::kPiggyback;
      else if (m == "hybrid") options.driver.method = driver::TransferMethod::kHybrid;
      else if (m == "adaptive") options.driver.method = driver::TransferMethod::kAdaptive;
      else { Usage(); return 2; }
    } else if (arg.rfind("--policy=", 0) == 0) {
      const std::string p = value_of("--policy=");
      if (p == "block") options.buffer.policy = buffer::PackingPolicy::kBlock;
      else if (p == "all") options.buffer.policy = buffer::PackingPolicy::kAll;
      else if (p == "select") options.buffer.policy = buffer::PackingPolicy::kSelective;
      else if (p == "backfill") options.buffer.policy = buffer::PackingPolicy::kSelectiveBackfill;
      else { Usage(); return 2; }
    } else if (arg.rfind("--dump_trace=", 0) == 0) {
      dump_trace = value_of("--dump_trace=");
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay = value_of("--replay=");
    } else if (arg == "--nand=off") {
      options.controller.nand_io_enabled = false;
    } else if (arg == "--nand=on") {
      options.controller.nand_io_enabled = true;
    } else {
      Usage();
      return arg == "--help" ? 0 : 2;
    }
  }

  workload::WorkloadSpec spec =
      workload == "A"   ? workload::MakeWorkloadA(value_size, ops, seed)
      : workload == "B" ? workload::MakeWorkloadB(ops, seed)
      : workload == "C" ? workload::MakeWorkloadC(ops, seed)
      : workload == "D" ? workload::MakeWorkloadD(ops, seed)
                        : workload::MakeWorkloadM(ops, seed);

  if (!dump_trace.empty()) {
    std::ofstream out(dump_trace);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", dump_trace.c_str());
      return 1;
    }
    workload::WriteTrace(workload::PutStream(spec), out);
    std::printf("wrote %llu-op trace to %s\n",
                static_cast<unsigned long long>(spec.ops), dump_trace.c_str());
    return 0;
  }

  auto device = KvSsd::Open(options);
  if (!device.ok()) {
    std::fprintf(stderr, "open failed: %s\n", device.status().ToString().c_str());
    return 1;
  }

  if (!replay.empty()) {
    std::ifstream in(replay);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", replay.c_str());
      return 1;
    }
    auto trace = workload::ReadTrace(in);
    if (!trace.ok()) {
      std::fprintf(stderr, "bad trace: %s\n", trace.status().ToString().c_str());
      return 1;
    }
    const auto r = workload::RunSerial(*device.value(), trace.value());
    if (!r.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", r.status.ToString().c_str());
      return 1;
    }
    std::printf("replayed %s: %llu puts, %llu gets (%llu misses), %llu dels "
                "in %.2f ms virtual\n",
                replay.c_str(),
                static_cast<unsigned long long>(r.ops - r.gets - r.deletes),
                static_cast<unsigned long long>(r.gets),
                static_cast<unsigned long long>(r.misses),
                static_cast<unsigned long long>(r.deletes),
                static_cast<double>(r.elapsed_ns) / 1e6);
    return 0;
  }

  const auto result =
      workload::RunSerial(*device.value(), workload::PutStream(spec));
  if (!result.ok()) {
    std::fprintf(stderr, "run failed after %llu ops: %s\n",
                 static_cast<unsigned long long>(result.ops),
                 result.status.ToString().c_str());
    return 1;
  }

  std::printf("workload          : %s\n", spec.name.c_str());
  std::printf("transfer method   : %s\n", driver::MethodName(options.driver.method));
  std::printf("packing policy    : %s\n", buffer::PolicyName(options.buffer.policy));
  std::printf("nand io           : %s\n",
              options.controller.nand_io_enabled ? "on" : "off");
  std::printf("ops               : %llu\n",
              static_cast<unsigned long long>(result.ops));
  std::printf("mean response     : %.2f us   (p99 %.2f us)\n",
              result.MeanResponseUs(), result.P99ResponseUs());
  std::printf("throughput        : %.1f Kops/s\n", result.KopsPerSec());
  std::printf("PCIe h2d traffic  : %.3f MB  (%.1f B/op, TAF %.1f)\n",
              static_cast<double>(result.delta.pcie_h2d_bytes) / 1e6,
              result.TrafficPerOpBytes(), result.TrafficAmplification());
  std::printf("MMIO traffic      : %.3f MB\n",
              static_cast<double>(result.delta.mmio_bytes) / 1e6);
  std::printf("NVMe commands     : %llu\n",
              static_cast<unsigned long long>(result.delta.commands_submitted));
  std::printf("NAND pages written: %llu  (vLog %llu, LSM %llu, GC %llu)\n",
              static_cast<unsigned long long>(result.delta.nand_pages_programmed),
              static_cast<unsigned long long>(result.delta.vlog_pages_flushed),
              static_cast<unsigned long long>(result.delta.lsm_pages_programmed),
              static_cast<unsigned long long>(result.delta.gc_pages_programmed));
  std::printf("device memcpy     : %.3f MB\n",
              static_cast<double>(result.delta.device_memcpy_bytes) / 1e6);
  std::printf("buffer waste      : %.3f MB\n",
              static_cast<double>(result.delta.buffer_wasted_bytes) / 1e6);
  return 0;
}
