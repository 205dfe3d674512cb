// Tests for the Figure 1a comparator: the block-interface SSD substrate and
// the host-side (WiscKey-style) key-value store on top of it.
#include <gtest/gtest.h>

#include <map>

#include "blockdev/block_ssd.h"
#include "hostkvs/host_kvs.h"
#include "lsm/sstable.h"
#include "workload/value_gen.h"

namespace bandslim {
namespace {

nand::NandGeometry SmallGeometry() {
  nand::NandGeometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_die = 128;
  g.pages_per_block = 32;
  return g;
}

class BlockSsdTest : public ::testing::Test {
 protected:
  BlockSsdTest()
      : ssd_(SmallGeometry(), &clock_, &cost_, &link_, &metrics_) {}
  sim::VirtualClock clock_;
  sim::CostModel cost_;
  pcie::PcieLink link_;
  stats::MetricsRegistry metrics_;
  blockdev::BlockSsd ssd_;
};

TEST_F(BlockSsdTest, WriteReadRoundTrip) {
  Bytes data = workload::MakeValue(3 * blockdev::kBlockSize, 1, 1);
  ASSERT_TRUE(ssd_.Write(10, ByteSpan(data)).ok());
  Bytes back(data.size());
  ASSERT_TRUE(ssd_.Read(10, MutByteSpan(back)).ok());
  EXPECT_EQ(back, data);
}

TEST_F(BlockSsdTest, RejectsUnalignedSizes) {
  Bytes data(100);
  EXPECT_FALSE(ssd_.Write(0, ByteSpan(data)).ok());
  Bytes out(100);
  EXPECT_FALSE(ssd_.Read(0, MutByteSpan(out)).ok());
}

TEST_F(BlockSsdTest, FourBlockWritesFillOneNandPage) {
  // The block-interface amortization of Section 1: four 4 KiB writes
  // produce exactly one 16 KiB NAND program.
  Bytes block(blockdev::kBlockSize, 0x11);
  for (std::uint64_t lba = 0; lba < 4; ++lba) {
    ASSERT_TRUE(ssd_.Write(lba, ByteSpan(block)).ok());
  }
  EXPECT_EQ(ssd_.nand().pages_programmed(), 1u);
}

TEST_F(BlockSsdTest, PartialPageReadModifyWrite) {
  Bytes b0 = workload::MakeValue(blockdev::kBlockSize, 2, 0);
  Bytes b1 = workload::MakeValue(blockdev::kBlockSize, 2, 1);
  ASSERT_TRUE(ssd_.Write(0, ByteSpan(b0)).ok());
  ASSERT_TRUE(ssd_.FlushCache().ok());  // Page 0 persisted with 1 valid block.
  ASSERT_TRUE(ssd_.Write(1, ByteSpan(b1)).ok());
  ASSERT_TRUE(ssd_.FlushCache().ok());  // RMW must preserve block 0.
  Bytes back(blockdev::kBlockSize);
  ASSERT_TRUE(ssd_.Read(0, MutByteSpan(back)).ok());
  EXPECT_EQ(back, b0);
  ASSERT_TRUE(ssd_.Read(1, MutByteSpan(back)).ok());
  EXPECT_EQ(back, b1);
}

TEST_F(BlockSsdTest, UnwrittenBlocksReadZero) {
  Bytes back(blockdev::kBlockSize, 0xFF);
  ASSERT_TRUE(ssd_.Read(500, MutByteSpan(back)).ok());
  EXPECT_EQ(back, Bytes(blockdev::kBlockSize, 0));
}

TEST_F(BlockSsdTest, EvictionBoundsCache) {
  blockdev::BlockSsdConfig config;
  config.write_buffer_entries = 2;
  // Own registry: the fixture's ssd_ already registered the NAND counters,
  // and counter registration is single-writer (duplicate asserts).
  stats::MetricsRegistry tiny_metrics;
  blockdev::BlockSsd tiny(SmallGeometry(), &clock_, &cost_, &link_,
                          &tiny_metrics, config);
  Bytes block(blockdev::kBlockSize, 0x22);
  // Touch 8 different NAND pages with one block each: evictions must flush.
  for (std::uint64_t lba = 0; lba < 32; lba += 4) {
    ASSERT_TRUE(tiny.Write(lba, ByteSpan(block)).ok());
  }
  EXPECT_GE(tiny.nand().pages_programmed(), 6u);
}

TEST_F(BlockSsdTest, TrafficAccounted) {
  Bytes data(2 * blockdev::kBlockSize, 1);
  ASSERT_TRUE(ssd_.Write(0, ByteSpan(data)).ok());
  EXPECT_EQ(link_.BytesOf(pcie::TrafficClass::kDmaData,
                          pcie::Direction::kHostToDevice),
            2 * blockdev::kBlockSize);
  EXPECT_EQ(link_.MmioBytes(), cost_.mmio_doorbell_bytes);
}

// ---------------------------------------------------------------------------

class HostKvsTest : public ::testing::Test {
 protected:
  HostKvsTest()
      : ssd_(SmallGeometry(), &clock_, &cost_, &link_, &metrics_),
        kvs_(&ssd_, &clock_, &cost_, &metrics_) {}
  sim::VirtualClock clock_;
  sim::CostModel cost_;
  pcie::PcieLink link_;
  stats::MetricsRegistry metrics_;
  blockdev::BlockSsd ssd_;
  hostkvs::HostKvs kvs_;
};

TEST_F(HostKvsTest, PutGetRoundTrip) {
  std::map<std::string, Bytes> model;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "h" + std::to_string(i);
    Bytes v = workload::MakeValue(1 + (static_cast<std::size_t>(i) * 37) % 900,
                                  3, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(kvs_.Put(key, ByteSpan(v)).ok());
    model[key] = v;
  }
  for (const auto& [key, expected] : model) {
    auto v = kvs_.Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(v.value(), expected) << key;
  }
  EXPECT_TRUE(kvs_.Get("missing").status().IsNotFound());
}

TEST_F(HostKvsTest, LargeValuesSpanBlocks) {
  Bytes v = workload::MakeValue(20000, 4, 4);
  ASSERT_TRUE(kvs_.Put("big", ByteSpan(v)).ok());
  auto back = kvs_.Get("big");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), v);
}

TEST_F(HostKvsTest, DeleteHidesKey) {
  Bytes v(64, 1);
  ASSERT_TRUE(kvs_.Put("k", ByteSpan(v)).ok());
  ASSERT_TRUE(kvs_.Delete("k").ok());
  EXPECT_TRUE(kvs_.Get("k").status().IsNotFound());
}

TEST_F(HostKvsTest, FsyncModeRewritesTailBlock) {
  // Durability parity costs: N small synced PUTs rewrite the same 4 KiB
  // block over and over — block-granular write amplification.
  Bytes v(32, 1);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(kvs_.Put("k" + std::to_string(i), ByteSpan(v)).ok());
  }
  EXPECT_EQ(ssd_.writes_issued(), 20u);  // One block write per PUT.
  // PCIe moved >= 20 x 4 KiB for ~640 B of payload.
  EXPECT_GE(link_.BytesOf(pcie::TrafficClass::kDmaData,
                          pcie::Direction::kHostToDevice),
            20u * kMemPageSize);
}

TEST_F(HostKvsTest, BufferedModeBatchesBlocks) {
  hostkvs::HostKvsConfig config;
  config.fsync_each_put = false;
  hostkvs::HostKvs buffered(&ssd_, &clock_, &cost_, &metrics_, config);
  Bytes v(100, 2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(buffered.Put("b" + std::to_string(i), ByteSpan(v)).ok());
  }
  // ~11 KB of records: page-cache write-back in 16 KiB chunks, not per PUT.
  EXPECT_LT(ssd_.writes_issued(), 5u);
  // Reads still see everything (page cache + device).
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(buffered.Get("b" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(HostKvsTest, KernelCrossingsCharged) {
  Bytes v(32, 3);
  const auto t0 = clock_.Now();
  ASSERT_TRUE(kvs_.Put("k", ByteSpan(v)).ok());
  // write() + pwrite-sync + fsync = 3 crossings minimum.
  EXPECT_GE(metrics_.CounterValue("hostkvs.kernel_crossings"), 3u);
  EXPECT_GE(clock_.Now() - t0,
            3 * cost_.host_syscall_ns + cost_.host_fs_block_ns);
}

// The index snapshot lists every key in key order (the MemTable sorts its
// keys on the walk), tombstones included, whatever order they arrived in.
TEST_F(HostKvsTest, FlushSerializesIndexInKeyOrder) {
  std::map<std::string, std::uint32_t> model;  // Key -> value size.
  Bytes v(600, 5);
  for (int i = 0; i < 300; ++i) {
    const std::string key = "x" + std::to_string((i * 7919) % 1000);
    const std::uint32_t size = 1 + static_cast<std::uint32_t>(i) % 600;
    ASSERT_TRUE(kvs_.Put(key, ByteSpan(v.data(), size)).ok());
    model[key] = size;
  }
  ASSERT_TRUE(kvs_.Delete("x0").ok());
  model["x0"] = 0;
  ASSERT_TRUE(kvs_.Flush().ok());

  const std::uint64_t index_lba =
      ssd_.nand().geometry().capacity_bytes() / kMemPageSize / 2;
  Bytes snapshot(4 * kMemPageSize);
  ASSERT_TRUE(ssd_.Read(index_lba, MutByteSpan(snapshot)).ok());
  std::size_t offset = 0;
  std::uint32_t count = 0;
  ASSERT_TRUE(lsm::GetU32(ByteSpan(snapshot), &offset, &count).ok());
  ASSERT_EQ(count, model.size());
  auto want = model.begin();
  for (std::uint32_t i = 0; i < count; ++i, ++want) {
    std::string key;
    std::uint64_t addr = 0;
    std::uint32_t size = 0;
    ASSERT_TRUE(lsm::GetLengthPrefixed(ByteSpan(snapshot), &offset, &key).ok());
    ASSERT_TRUE(lsm::GetU64(ByteSpan(snapshot), &offset, &addr).ok());
    ASSERT_TRUE(lsm::GetU32(ByteSpan(snapshot), &offset, &size).ok());
    const bool tombstone = snapshot[offset++] != 0;
    EXPECT_EQ(key, want->first) << i;
    EXPECT_EQ(tombstone, want->second == 0) << key;
    if (!tombstone) {
      EXPECT_EQ(size, want->second) << key;
    }
  }
}

TEST_F(HostKvsTest, FlushWritesIndexSnapshot) {
  Bytes v(64, 4);
  ASSERT_TRUE(kvs_.Put("k1", ByteSpan(v)).ok());
  const auto writes_before = ssd_.writes_issued();
  ASSERT_TRUE(kvs_.Flush().ok());
  EXPECT_GT(ssd_.writes_issued(), writes_before);
  // Data still readable afterwards.
  EXPECT_TRUE(kvs_.Get("k1").ok());
}

TEST_F(HostKvsTest, InspectIntoMatchesInspectAndReusesBuffers) {
  for (int i = 0; i < 20; ++i) {
    Bytes v = workload::MakeValue(300, 9, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(kvs_.Put("ins" + std::to_string(i), ByteSpan(v)).ok());
  }
  // The in-place parity path fills the same one-shard, stats-only snapshot
  // the copying Inspect() returns.
  const StoreSnapshot copied = kvs_.Inspect();
  StoreSnapshot refilled;
  refilled.shards.resize(3);  // Stale structure from a previous store...
  refilled.fleet_samples = 99;
  kvs_.InspectInto(&refilled);  // ...is corrected in place.
  ASSERT_EQ(refilled.num_shards(), 1u);
  EXPECT_EQ(refilled.stats.values_written, copied.stats.values_written);
  EXPECT_EQ(refilled.stats.value_bytes_written,
            copied.stats.value_bytes_written);
  EXPECT_EQ(refilled.stats.elapsed_ns, copied.stats.elapsed_ns);
  EXPECT_EQ(refilled.shards[0].vlog_tail, copied.shards[0].vlog_tail);
  EXPECT_EQ(refilled.shards[0].counters, copied.shards[0].counters);
  EXPECT_EQ(refilled.fleet_samples, 0u);
  EXPECT_TRUE(refilled.alerts.empty());
  // The kernel-path counters the conventional stack reports ride along.
  EXPECT_GT(refilled.shards[0].counters.at("hostkvs.kernel_crossings"), 0u);
}

TEST_F(HostKvsTest, OverwriteReturnsLatest) {
  for (int i = 0; i < 5; ++i) {
    Bytes v = workload::MakeValue(200, 5, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(kvs_.Put("same", ByteSpan(v)).ok());
  }
  auto v = kvs_.Get("same");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), workload::MakeValue(200, 5, 4));
}

}  // namespace
}  // namespace bandslim
