// Tests for the extensions beyond the paper's prototype: host-side bulk
// PUT (the Dotori/KV-CSD comparator), pipelined command submission, FTL
// wear leveling + bad blocks, and cost-benefit vLog cleaning.
#include <gtest/gtest.h>

#include <map>

#include "core/kvssd.h"
#include "workload/value_gen.h"

namespace bandslim {
namespace {

KvSsdOptions SmallOptions() {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 2;
  o.geometry.blocks_per_die = 256;
  o.geometry.pages_per_block = 32;
  o.buffer.num_entries = 16;
  o.buffer.dlt_entries = 16;
  return o;
}

// ---------------------------- Bulk PUT -------------------------------------

TEST(BulkPutTest, RoundTrip) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  std::vector<driver::KvDriver::KvPair> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back({"bk" + std::to_string(i),
                     workload::MakeValue(1 + (static_cast<std::size_t>(i) * 41) % 900,
                                         1, static_cast<std::uint64_t>(i))});
  }
  ASSERT_TRUE(ssd->PutBatch(batch).ok());
  for (const auto& kv : batch) {
    auto v = ssd->Get(kv.key);
    ASSERT_TRUE(v.ok()) << kv.key;
    EXPECT_EQ(v.value(), kv.value);
  }
}

TEST(BulkPutTest, OneCommandForWholeBatch) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  std::vector<driver::KvDriver::KvPair> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back({"k" + std::to_string(i), Bytes(32, 7)});
  }
  ASSERT_TRUE(ssd->PutBatch(batch).ok());
  EXPECT_EQ(ssd->GetStats().commands_submitted, 1u);
  EXPECT_EQ(ssd->GetStats().values_written, 64u);
}

TEST(BulkPutTest, UnpackingCostsDeviceCopies) {
  // The per-record unpack overhead the paper attributes to host batching:
  // every payload byte is memcpy'd out of the staging area.
  auto ssd = KvSsd::Open(SmallOptions()).value();
  std::vector<driver::KvDriver::KvPair> batch(10, {"", Bytes(100, 1)});
  for (int i = 0; i < 10; ++i) batch[static_cast<std::size_t>(i)].key = "u" + std::to_string(i);
  ASSERT_TRUE(ssd->PutBatch(batch).ok());
  EXPECT_GE(ssd->GetStats().device_memcpy_bytes, 1000u);
}

TEST(BulkPutTest, ValidatesRecords) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  EXPECT_TRUE(ssd->PutBatch({}).ok());  // Empty batch is a no-op.
  std::vector<driver::KvDriver::KvPair> bad_key = {{"", Bytes(8, 1)}};
  EXPECT_FALSE(ssd->PutBatch(bad_key).ok());
  std::vector<driver::KvDriver::KvPair> bad_value = {{"k", Bytes{}}};
  EXPECT_FALSE(ssd->PutBatch(bad_value).ok());
}

TEST(BulkPutTest, MixesWithSingleWrites) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  ASSERT_TRUE(ssd->Put("single", Bytes(64, 2)).ok());
  ASSERT_TRUE(ssd->PutBatch({{"batched", Bytes(64, 3)}}).ok());
  ASSERT_TRUE(ssd->Put("single", Bytes(64, 4)).ok());  // Overwrite.
  auto v = ssd->Get("single");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), Bytes(64, 4));
  EXPECT_TRUE(ssd->Get("batched").ok());
}

// ------------------------- Pipelined submission -----------------------------

TEST(PipelinedTest, SameDataDifferentLatency) {
  KvSsdOptions sync_opt = SmallOptions();
  sync_opt.driver.method = driver::TransferMethod::kPiggyback;
  KvSsdOptions pipe_opt = sync_opt;
  pipe_opt.driver.pipelined_submission = true;

  auto sync_dev = KvSsd::Open(sync_opt).value();
  auto pipe_dev = KvSsd::Open(pipe_opt).value();
  Bytes value = workload::MakeValue(1024, 2, 2);  // 19 commands.
  ASSERT_TRUE(sync_dev->Put("k", ByteSpan(value)).ok());
  ASSERT_TRUE(pipe_dev->Put("k", ByteSpan(value)).ok());

  // The pipelined PUT is much faster: 1 RT + 18 cadences vs. 19 RTs.
  const auto sync_put_ns = sync_dev->GetStats().elapsed_ns;
  const auto pipe_put_ns = pipe_dev->GetStats().elapsed_ns;
  // 1 RT + 18 cadences + device work (~89 us) vs. 19 RTs + device work
  // (~161 us): the transfer share shrinks by ~4x.
  EXPECT_LT(pipe_put_ns, sync_put_ns * 6 / 10);
  // Both read back identically.
  EXPECT_EQ(sync_dev->Get("k").value(), value);
  EXPECT_EQ(pipe_dev->Get("k").value(), value);
}

TEST(PipelinedTest, OneDoorbellPerValue) {
  KvSsdOptions o = SmallOptions();
  o.driver.method = driver::TransferMethod::kPiggyback;
  o.driver.pipelined_submission = true;
  o.controller.nand_io_enabled = false;
  auto ssd = KvSsd::Open(o).value();
  Bytes value(128, 1);  // 3 commands.
  ASSERT_TRUE(ssd->Put("k", ByteSpan(value)).ok());
  EXPECT_EQ(ssd->GetStats().commands_submitted, 3u);
  EXPECT_EQ(ssd->GetStats().mmio_bytes, o.cost.mmio_doorbell_bytes);
}

TEST(PipelinedTest, HybridTrailingPipelines) {
  KvSsdOptions o = SmallOptions();
  o.driver.method = driver::TransferMethod::kHybrid;
  o.driver.pipelined_submission = true;
  auto ssd = KvSsd::Open(o).value();
  Bytes value = workload::MakeValue(4096 + 200, 3, 3);
  ASSERT_TRUE(ssd->Put("h", ByteSpan(value)).ok());
  EXPECT_EQ(ssd->Get("h").value(), value);
}

TEST(PipelinedTest, PropertySweepAcrossSizes) {
  KvSsdOptions o = SmallOptions();
  o.driver.method = driver::TransferMethod::kPiggyback;
  o.driver.pipelined_submission = true;
  auto ssd = KvSsd::Open(o).value();
  for (std::size_t size : {1u, 35u, 36u, 91u, 92u, 1000u, 5000u}) {
    const std::string key = "p" + std::to_string(size);
    Bytes v = workload::MakeValue(size, 4, size);
    ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok()) << size;
    EXPECT_EQ(ssd->Get(key).value(), v) << size;
  }
}

// ------------------------ Wear leveling / bad blocks ------------------------

nand::NandGeometry TinyGeometry() {
  nand::NandGeometry g;
  g.channels = 1;
  g.ways = 1;
  g.blocks_per_die = 16;
  g.pages_per_block = 8;
  return g;
}

class FtlExtensionTest : public ::testing::Test {
 protected:
  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
};

TEST_F(FtlExtensionTest, FactoryBadBlocksExcluded) {
  nand::NandFlash nand(TinyGeometry(), &clock_, &cost_, &metrics_);
  ftl::FtlConfig config;
  config.bad_block_rate = 0.25;
  ftl::PageFtl ftl(&nand, &metrics_, config);
  EXPECT_GT(ftl.bad_blocks(), 0u);
  EXPECT_LT(ftl.bad_blocks(), 16u);
  // Capacity shrinks but writes still work.
  Bytes v(16, 1);
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    EXPECT_TRUE(ftl.Write(lpn, ByteSpan(v), ftl::Stream::kVlog, false).ok());
  }
  // Bad blocks never host data.
  for (std::uint64_t b = 0; b < 16; ++b) {
    if (ftl.IsBad(b)) {
      for (std::uint32_t p = 0; p < 8; ++p) {
        EXPECT_EQ(nand.StateOf(b * 8 + p), nand::PageState::kErased);
      }
    }
  }
}

TEST_F(FtlExtensionTest, MarkBadRelocatesData) {
  nand::NandFlash nand(TinyGeometry(), &clock_, &cost_, &metrics_);
  ftl::PageFtl ftl(&nand, &metrics_);
  std::map<std::uint64_t, Bytes> model;
  for (std::uint64_t lpn = 0; lpn < 24; ++lpn) {
    Bytes v = workload::MakeValue(64, 9, lpn);
    ASSERT_TRUE(ftl.Write(lpn, ByteSpan(v), ftl::Stream::kVlog, true).ok());
    model[lpn] = v;
  }
  // Block 0 filled first and is no longer active: grow-bad it.
  ASSERT_TRUE(ftl.MarkBad(0).ok());
  EXPECT_TRUE(ftl.IsBad(0));
  EXPECT_TRUE(ftl.MarkBad(0).ok());  // Idempotent.
  for (const auto& [lpn, expected] : model) {
    Bytes back(64);
    ASSERT_TRUE(ftl.Read(lpn, MutByteSpan(back)).ok()) << lpn;
    EXPECT_EQ(back, expected) << lpn;
  }
  EXPECT_FALSE(ftl.MarkBad(99).ok());  // Out of range.
}

TEST_F(FtlExtensionTest, MarkBadDropsReserveBlock) {
  nand::NandFlash nand(TinyGeometry(), &clock_, &cost_, &metrics_);
  ftl::FtlConfig config;
  config.reserved_blocks = 1;  // Withholds block 15, the highest good one.
  ftl::PageFtl ftl(&nand, &metrics_, config);
  ASSERT_EQ(ftl.reserve_remaining(), 1u);
  ASSERT_TRUE(ftl.MarkBad(15).ok());
  EXPECT_TRUE(ftl.IsBad(15));
  // A bad block must never come back from the reserve as a free block.
  EXPECT_EQ(ftl.reserve_remaining(), 0u);
  EXPECT_EQ(ftl.free_blocks(), 15u);
}

TEST_F(FtlExtensionTest, WearWeightNarrowsEraseSpread) {
  auto erase_spread = [&](double weight) {
    sim::VirtualClock clock;
    stats::MetricsRegistry metrics;
    nand::NandFlash nand(TinyGeometry(), &clock, &cost_, &metrics);
    ftl::FtlConfig config;
    config.wear_weight = weight;
    ftl::PageFtl ftl(&nand, &metrics, config);
    // Skewed update pattern: half the logical pages rewritten 9x as often.
    Xoshiro256 rng(3);
    Bytes v(16, 1);
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t lpn =
          rng.NextDouble() < 0.9 ? rng.Below(4) : 4 + rng.Below(4);
      EXPECT_TRUE(ftl.Write(lpn, ByteSpan(v), ftl::Stream::kVlog, false).ok());
    }
    std::uint32_t min_e = ~0u;
    std::uint32_t max_e = 0;
    for (std::uint64_t b = 0; b < 16; ++b) {
      min_e = std::min(min_e, nand.EraseCount(b));
      max_e = std::max(max_e, nand.EraseCount(b));
    }
    return max_e - min_e;
  };
  // Wear-aware selection must not widen the spread; typically it narrows it.
  EXPECT_LE(erase_spread(4.0), erase_spread(0.0));
}

// ------------------------- Cost-benefit vLog GC -----------------------------

TEST(CostBenefitGcTest, PrefersDeadestSegment) {
  KvSsdOptions o = SmallOptions();
  o.controller.gc_segment_pages = 8;
  o.controller.gc_scan_segments = 8;
  auto ssd = KvSsd::Open(o).value();

  // Phase 1: keys that will be overwritten (become dead).
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(ssd->Put("dead" + std::to_string(i),
                         ByteSpan(workload::MakeValue(2000, 1, static_cast<std::uint64_t>(i))))
                    .ok());
  }
  // Phase 2: long-lived keys.
  std::map<std::string, Bytes> model;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "live" + std::to_string(i);
    Bytes v = workload::MakeValue(2000, 2, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok());
    model[key] = v;
  }
  // Overwrite phase-1 keys so their old values are garbage.
  for (int i = 0; i < 60; ++i) {
    const std::string key = "dead" + std::to_string(i);
    Bytes v = workload::MakeValue(100, 3, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok());
    model[key] = v;
  }
  ASSERT_TRUE(ssd->Flush().ok());

  // The first collection must pick the dead-heavy segment (phase-1
  // originals, all overwritten): almost nothing to relocate.
  auto first = ssd->CollectVlogGarbage();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_LT(first.value(), 20u);
  // Further rounds stay correct regardless of victim order.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(ssd->CollectVlogGarbage().ok());
  }
  for (const auto& [key, expected] : model) {
    auto v = ssd->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(v.value(), expected) << key;
  }
}

TEST(CostBenefitGcTest, StraddlingValuesSurviveCleaning) {
  KvSsdOptions o = SmallOptions();
  o.controller.gc_segment_pages = 2;  // Small segments => many straddlers.
  auto ssd = KvSsd::Open(o).value();
  std::map<std::string, Bytes> model;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "s" + std::to_string(i);
    Bytes v = workload::MakeValue(10000, 4, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok());
    model[key] = v;
  }
  ASSERT_TRUE(ssd->Flush().ok());
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(ssd->CollectVlogGarbage().ok());
  }
  for (const auto& [key, expected] : model) {
    auto v = ssd->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(v.value(), expected) << key;
  }
}

}  // namespace
}  // namespace bandslim
