// Pins the qualitative orderings of Figures 9, 10 and 12 (the quantitative
// Fig 3/4/8/11 anchors live in amplification_test.cpp). If a refactor
// changes who wins on which workload, these fail before EXPERIMENTS.md
// silently goes stale.
#include <gtest/gtest.h>

#include "core/kvssd.h"
#include "workload/runner.h"
#include "workload/workloads.h"

namespace bandslim {
namespace {

using buffer::PackingPolicy;
using driver::TransferMethod;

KvSsdOptions Options(TransferMethod method, PackingPolicy policy, bool nand) {
  KvSsdOptions o;
  o.geometry.channels = 4;
  o.geometry.ways = 8;
  o.geometry.blocks_per_die = 64;
  o.geometry.pages_per_block = 64;
  o.driver.method = method;
  o.buffer.policy = policy;
  o.controller.nand_io_enabled = nand;
  o.retain_payloads = false;
  return o;
}

workload::RunResult RunSpec(workload::WorkloadSpec spec, TransferMethod method,
                            PackingPolicy policy, bool nand) {
  auto ssd = KvSsd::Open(Options(method, policy, nand)).value();
  return workload::RunSerial(*ssd, workload::PutStream(spec));
}

constexpr std::uint64_t kOps = 20000;

// ---- Figure 9 --------------------------------------------------------------

TEST(Figure9Anchors, HybridTrafficOptimalUpTo6K) {
  for (std::size_t trailing : {4u, 64u, 1024u, 2048u}) {
    auto spec = [&] { return workload::MakeWorkloadA(4096 + trailing, kOps); };
    const double base =
        RunSpec(spec(), TransferMethod::kPrp, PackingPolicy::kBlock, false)
            .TrafficPerOpBytes();
    const double piggy = RunSpec(spec(), TransferMethod::kPiggyback,
                                 PackingPolicy::kBlock, false)
                             .TrafficPerOpBytes();
    const double hybrid = RunSpec(spec(), TransferMethod::kHybrid,
                                  PackingPolicy::kBlock, false)
                              .TrafficPerOpBytes();
    EXPECT_LT(hybrid, base) << trailing;
    EXPECT_LT(hybrid, piggy) << trailing;
  }
}

TEST(Figure9Anchors, HybridResponseMatchesBaselineForTinyTrailing) {
  auto spec = [&] { return workload::MakeWorkloadA(4096 + 32, kOps); };
  const double base =
      RunSpec(spec(), TransferMethod::kPrp, PackingPolicy::kBlock, false)
          .MeanResponseUs();
  const double hybrid =
      RunSpec(spec(), TransferMethod::kHybrid, PackingPolicy::kBlock, false)
          .MeanResponseUs();
  EXPECT_NEAR(hybrid, base, base * 0.02);
}

// ---- Figure 10 -------------------------------------------------------------

TEST(Figure10Anchors, PiggybackWorstOnLargeValueWorkloads) {
  for (auto make : {workload::MakeWorkloadB, workload::MakeWorkloadC,
                    workload::MakeWorkloadD}) {
    const double base = RunSpec(make(kOps, 2), TransferMethod::kPrp,
                                PackingPolicy::kBlock, false)
                            .MeanResponseUs();
    const double piggy = RunSpec(make(kOps, 2), TransferMethod::kPiggyback,
                                 PackingPolicy::kBlock, false)
                             .MeanResponseUs();
    EXPECT_GT(piggy, base);
  }
}

TEST(Figure10Anchors, PiggybackBeatsBaselineOnMixgraph) {
  const auto base = RunSpec(workload::MakeWorkloadM(kOps, 2),
                            TransferMethod::kPrp, PackingPolicy::kBlock, false);
  const auto piggy =
      RunSpec(workload::MakeWorkloadM(kOps, 2), TransferMethod::kPiggyback,
              PackingPolicy::kBlock, false);
  // Paper: ~22 % better response and ~97.9 % less traffic on W(M).
  EXPECT_LT(piggy.MeanResponseUs(), base.MeanResponseUs() * 0.85);
  EXPECT_LT(piggy.delta.pcie_h2d_bytes, base.delta.pcie_h2d_bytes / 30);
}

TEST(Figure10Anchors, AdaptiveBestOrTiedEverywhere) {
  for (auto make : {workload::MakeWorkloadB, workload::MakeWorkloadC,
                    workload::MakeWorkloadD, workload::MakeWorkloadM}) {
    const double base = RunSpec(make(kOps, 2), TransferMethod::kPrp,
                                PackingPolicy::kBlock, false)
                            .MeanResponseUs();
    const double piggy = RunSpec(make(kOps, 2), TransferMethod::kPiggyback,
                                 PackingPolicy::kBlock, false)
                             .MeanResponseUs();
    const double adaptive = RunSpec(make(kOps, 2), TransferMethod::kAdaptive,
                                    PackingPolicy::kBlock, false)
                                .MeanResponseUs();
    EXPECT_LE(adaptive, base * 1.01);
    EXPECT_LE(adaptive, piggy * 1.01);
  }
}

TEST(Figure10Anchors, MmioExplodesForPiggybackOnLargeValues) {
  const auto base = RunSpec(workload::MakeWorkloadC(kOps, 2),
                            TransferMethod::kPrp, PackingPolicy::kBlock, false);
  const auto piggy =
      RunSpec(workload::MakeWorkloadC(kOps, 2), TransferMethod::kPiggyback,
              PackingPolicy::kBlock, false);
  EXPECT_GT(piggy.delta.mmio_bytes, 20 * base.delta.mmio_bytes);
}

// ---- Figure 12 -------------------------------------------------------------

TEST(Figure12Anchors, BlockWorstOnEveryWorkload) {
  for (auto make : {workload::MakeWorkloadB, workload::MakeWorkloadC,
                    workload::MakeWorkloadD, workload::MakeWorkloadM}) {
    const double block = RunSpec(make(kOps, 3), TransferMethod::kAdaptive,
                                 PackingPolicy::kBlock, true)
                             .MeanResponseUs();
    for (PackingPolicy p :
         {PackingPolicy::kAll, PackingPolicy::kSelective,
          PackingPolicy::kSelectiveBackfill}) {
      const double other =
          RunSpec(make(kOps, 3), TransferMethod::kAdaptive, p, true)
              .MeanResponseUs();
      EXPECT_LE(other, block * 1.01) << buffer::PolicyName(p);
    }
  }
}

TEST(Figure12Anchors, SelectiveDegradesToBlockOnLargeValues) {
  // Paper: "the Selective Packing Policy performs as poorly as Block" on
  // W(C) — within ~10 %, far from All's advantage.
  const double block = RunSpec(workload::MakeWorkloadC(kOps, 3),
                               TransferMethod::kAdaptive, PackingPolicy::kBlock,
                               true)
                           .MeanResponseUs();
  const double select =
      RunSpec(workload::MakeWorkloadC(kOps, 3), TransferMethod::kAdaptive,
              PackingPolicy::kSelective, true)
          .MeanResponseUs();
  EXPECT_GT(select, block * 0.85);
}

TEST(Figure12Anchors, BackfillBestOnSmallValueWorkloads) {
  for (auto make : {workload::MakeWorkloadB, workload::MakeWorkloadM}) {
    const double all = RunSpec(make(kOps, 3), TransferMethod::kAdaptive,
                               PackingPolicy::kAll, true)
                           .MeanResponseUs();
    const double select = RunSpec(make(kOps, 3), TransferMethod::kAdaptive,
                                  PackingPolicy::kSelective, true)
                              .MeanResponseUs();
    const double backfill = RunSpec(make(kOps, 3), TransferMethod::kAdaptive,
                                    PackingPolicy::kSelectiveBackfill, true)
                                .MeanResponseUs();
    EXPECT_LE(backfill, all * 1.005);
    EXPECT_LE(backfill, select * 1.005);
  }
}

TEST(Figure12Anchors, MemcpyTimeOrderingMatchesPaper) {
  // Figure 12(d): All Packing's memcpy time grows W(M) < W(B) < W(D) < W(C).
  auto memcpy_bytes = [&](workload::WorkloadSpec spec) {
    return RunSpec(std::move(spec), TransferMethod::kAdaptive,
                   PackingPolicy::kAll, true)
        .delta.device_memcpy_bytes;
  };
  const auto m = memcpy_bytes(workload::MakeWorkloadM(kOps, 3));
  const auto b = memcpy_bytes(workload::MakeWorkloadB(kOps, 3));
  const auto d = memcpy_bytes(workload::MakeWorkloadD(kOps, 3));
  const auto c = memcpy_bytes(workload::MakeWorkloadC(kOps, 3));
  EXPECT_LT(m, b);
  EXPECT_LT(b, d);
  EXPECT_LT(d, c);
}

TEST(Figure12Anchors, AllPackingMinimizesNandWrites) {
  for (auto make : {workload::MakeWorkloadB, workload::MakeWorkloadC,
                    workload::MakeWorkloadD, workload::MakeWorkloadM}) {
    const auto all = RunSpec(make(kOps, 3), TransferMethod::kAdaptive,
                             PackingPolicy::kAll, true)
                         .delta.nand_pages_programmed;
    for (PackingPolicy p :
         {PackingPolicy::kBlock, PackingPolicy::kSelective,
          PackingPolicy::kSelectiveBackfill}) {
      const auto other = RunSpec(make(kOps, 3), TransferMethod::kAdaptive, p, true)
                             .delta.nand_pages_programmed;
      EXPECT_GE(other, all) << buffer::PolicyName(p);
    }
  }
}

// ---- Multi-queue equivalence ----------------------------------------------

// The multi-stream executor with one queue lane and the synchronous NAND
// path must reproduce the serial executor exactly — the figure anchors
// above are measured through RunSerial, so this pins that the multi-queue machinery is
// timing-invisible when not engaged.
TEST(MultiQueueEquivalence, OneStreamShardedMatchesSequentialExactly) {
  for (auto make : {workload::MakeWorkloadB, workload::MakeWorkloadM}) {
    auto seq_ssd = KvSsd::Open(Options(TransferMethod::kAdaptive,
                                       PackingPolicy::kAll, true))
                       .value();
    const auto seq =
        workload::RunSerial(*seq_ssd, workload::PutStream(make(kOps, 7)));

    auto sharded_ssd = KvSsd::Open(Options(TransferMethod::kAdaptive,
                                           PackingPolicy::kAll, true))
                           .value();
    const auto sharded = workload::RunParallel(
        *sharded_ssd, workload::PutStream(make(kOps, 7)), 1);

    ASSERT_TRUE(seq.ok()) << seq.status.ToString();
    ASSERT_TRUE(sharded.ok()) << sharded.status.ToString();
    EXPECT_EQ(seq.ops, sharded.ops);
    EXPECT_EQ(seq.elapsed_ns, sharded.elapsed_ns);
    EXPECT_EQ(seq.requested_value_bytes, sharded.requested_value_bytes);
    EXPECT_EQ(seq.latency_ns.count(), sharded.latency_ns.count());
    EXPECT_EQ(seq.latency_ns.sum(), sharded.latency_ns.sum());
    EXPECT_EQ(seq.latency_ns.min(), sharded.latency_ns.min());
    EXPECT_EQ(seq.latency_ns.max(), sharded.latency_ns.max());
    EXPECT_EQ(seq.delta.commands_submitted, sharded.delta.commands_submitted);
    EXPECT_EQ(seq.delta.pcie_h2d_bytes, sharded.delta.pcie_h2d_bytes);
    EXPECT_EQ(seq.delta.nand_pages_programmed,
              sharded.delta.nand_pages_programmed);
    EXPECT_EQ(seq.delta.device_memcpy_bytes, sharded.delta.device_memcpy_bytes);
    EXPECT_EQ(seq.delta.values_written, sharded.delta.values_written);
    EXPECT_EQ(seq.delta.value_bytes_written, sharded.delta.value_bytes_written);
  }
}

}  // namespace
}  // namespace bandslim
