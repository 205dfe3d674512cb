// Ablation: shard scaling of the KvCluster router (extension beyond the
// paper — the scale-out serving layer from the roadmap). A fixed mixed
// GET/PUT workload over a preloaded key space is run against clusters of
// 1/2/4/8 shards under uniform and Zipfian key popularity; every shard is
// an independent simulated KV-SSD, so throughput should scale near-linearly
// until key skew concentrates the load.
//
// Two built-in gates (exit nonzero on violation, used by ci/verify.sh):
//   1. A 1-shard cluster run is bit-identical in virtual time and device
//      counters to the same ops on a bare KvSsd — the router adds zero
//      simulated overhead when there is nothing to route.
//   2. Under uniform keys, 4 shards sustain >= 3x the 1-shard mixed
//      throughput.
#include "bench_util.h"
#include "cluster/kv_cluster.h"

using namespace bandslim;
using namespace bandslim::bench;

namespace {

workload::MixedWorkloadSpec MakeSpec(std::uint64_t ops, bool zipfian) {
  workload::MixedWorkloadSpec spec;
  spec.ops = ops;
  spec.num_keys = 4096;
  spec.value_size = 128;
  spec.get_permille = 500;
  spec.zipfian = zipfian;
  spec.seed = 17;
  return spec;
}

cluster::ClusterConfig MakeCluster(const KvSsdOptions& shard,
                                   std::uint32_t num_shards) {
  cluster::ClusterConfig cc;
  cc.num_shards = num_shards;
  cc.shard = shard;
  return cc;
}

// Gate 1: the N=1 sanity anchor. Returns false (and prints) on mismatch.
bool CheckSingleShardAnchor(const KvSsdOptions& shard_options,
                            const workload::MixedWorkloadSpec& spec) {
  auto bare = KvSsd::Open(shard_options).value();
  if (!workload::PreloadMixedKeys(*bare, spec).ok()) return false;
  const workload::RunResult device =
      Checked(workload::RunSerial(*bare, workload::MixedStream(spec)));

  auto fleet = cluster::KvCluster::Open(MakeCluster(shard_options, 1)).value();
  if (!workload::PreloadMixedKeys(*fleet, spec).ok()) return false;
  const workload::RunResult routed =
      Checked(workload::RunParallel(*fleet, workload::MixedStream(spec)));

  const bool same =
      device.elapsed_ns == routed.elapsed_ns &&
      bare->Now() == fleet->Now() &&
      device.delta.commands_submitted == routed.delta.commands_submitted &&
      device.delta.pcie_h2d_bytes == routed.delta.pcie_h2d_bytes &&
      device.delta.pcie_d2h_bytes == routed.delta.pcie_d2h_bytes &&
      device.delta.nand_pages_programmed ==
          routed.delta.nand_pages_programmed &&
      device.delta.nand_pages_read == routed.delta.nand_pages_read &&
      device.delta.values_written == routed.delta.values_written;
  if (!same) {
    std::fprintf(stderr,
                 "GATE FAILED: 1-shard cluster diverged from bare device "
                 "(elapsed %llu vs %llu ns, now %llu vs %llu ns)\n",
                 static_cast<unsigned long long>(device.elapsed_ns),
                 static_cast<unsigned long long>(routed.elapsed_ns),
                 static_cast<unsigned long long>(bare->Now()),
                 static_cast<unsigned long long>(fleet->Now()));
  }
  return same;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv, /*default_ops=*/6000);
  KvSsdOptions shard = DefaultBenchOptions();
  shard.retain_payloads = true;  // The mix reads values back.
  PrintPlatform("Ablation: cluster shard scaling", shard, args);
  CsvWriter csv(args);
  csv.Header("distribution,shards,ops,elapsed_ns,kops_per_sec,speedup");

  if (!CheckSingleShardAnchor(shard, MakeSpec(args.ops, false))) return 1;
  std::printf("\nsanity: 1-shard cluster == bare KvSsd (bit-identical "
              "virtual times)\n");

  double uniform_speedup_n4 = 0.0;
  for (const bool zipfian : {false, true}) {
    const workload::MixedWorkloadSpec spec = MakeSpec(args.ops, zipfian);
    std::printf("\n%s keys: %llu ops (50%% GET / 50%% PUT), %zu B values, "
                "%llu-key space\n",
                zipfian ? "zipfian(0.99)" : "uniform",
                static_cast<unsigned long long>(spec.ops), spec.value_size,
                static_cast<unsigned long long>(spec.num_keys));
    std::printf("%8s | %12s %12s %10s\n", "shards", "elapsed ms", "Kops/s",
                "speedup");
    double base_kops = 0.0;
    for (const std::uint32_t n : {1u, 2u, 4u, 8u}) {
      auto fleet = cluster::KvCluster::Open(MakeCluster(shard, n)).value();
      if (!workload::PreloadMixedKeys(*fleet, spec).ok()) return 1;
      const workload::RunResult r =
          Checked(workload::RunParallel(*fleet, workload::MixedStream(spec)));
      const double kops = r.KopsPerSec();
      if (n == 1) base_kops = kops;
      const double speedup = base_kops > 0.0 ? kops / base_kops : 0.0;
      if (!zipfian && n == 4) uniform_speedup_n4 = speedup;
      std::printf("%8u | %12.2f %12.1f %9.2fx\n", n,
                  static_cast<double>(r.elapsed_ns) / 1e6, kops, speedup);
      csv.Row("%s,%u,%llu,%llu,%.1f,%.3f", zipfian ? "zipfian" : "uniform", n,
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.elapsed_ns), kops, speedup);
    }
  }

  std::printf("\nexpectation: uniform keys scale near-linearly (independent "
              "devices); zipfian skew concentrates the hot keys on fewer "
              "shards and caps the speedup\n");
  if (uniform_speedup_n4 < 3.0) {
    std::fprintf(stderr,
                 "GATE FAILED: uniform 4-shard speedup %.2fx < 3.0x\n",
                 uniform_speedup_n4);
    return 1;
  }
  return 0;
}
