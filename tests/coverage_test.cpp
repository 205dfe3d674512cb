// Edge-case coverage across modules: paths not naturally hit by the main
// unit suites (post-drain writes, cache invalidation, stats field wiring,
// empty-database queries, buffer/DLT corner interactions).
#include <gtest/gtest.h>

#include "buffer/page_buffer.h"
#include "core/kvssd.h"
#include "vlog/vlog.h"
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

// ----------------------------- KvSsd edges ---------------------------------

TEST(KvSsdEdgeTest, SeekOnEmptyDatabase) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  auto iter = ssd->Seek("");
  ASSERT_TRUE(iter.ok());
  EXPECT_FALSE(iter.value().Valid());
}

TEST(KvSsdEdgeTest, FlushOnEmptyDatabase) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  EXPECT_TRUE(ssd->Flush().ok());
  EXPECT_TRUE(ssd->Flush().ok());  // Idempotent.
}

TEST(KvSsdEdgeTest, StatsBreakdownFieldsWired) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  for (int i = 0; i < 300; ++i) {
    Bytes v = workload::MakeValue(2000, 1, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put("s" + std::to_string(i), ByteSpan(v)).ok());
  }
  ASSERT_TRUE(ssd->Flush().ok());
  const KvSsdStats s = ssd->GetStats();
  EXPECT_GT(s.vlog_pages_flushed, 0u);
  EXPECT_GT(s.lsm_pages_programmed, 0u);
  EXPECT_EQ(s.nand_pages_programmed,
            s.vlog_pages_flushed + s.lsm_pages_programmed +
                s.gc_pages_programmed);
  EXPECT_GT(s.memtable_flushes, 0u);
}

TEST(KvSsdEdgeTest, WritesContinueAfterExplicitFlush) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  Bytes v1 = workload::MakeValue(100, 2, 1);
  ASSERT_TRUE(ssd->Put("a", ByteSpan(v1)).ok());
  ASSERT_TRUE(ssd->Flush().ok());
  Bytes v2 = workload::MakeValue(100, 2, 2);
  ASSERT_TRUE(ssd->Put("b", ByteSpan(v2)).ok());
  EXPECT_EQ(ssd->Get("a").value(), v1);
  EXPECT_EQ(ssd->Get("b").value(), v2);
  ASSERT_TRUE(ssd->Flush().ok());
  EXPECT_EQ(ssd->Get("b").value(), v2);
}

TEST(KvSsdEdgeTest, SixteenKValueRoundTrip) {
  // A value of exactly one NAND page, and one beyond it.
  auto ssd = KvSsd::Open(SmallOptions()).value();
  for (std::size_t size : {16384u, 16385u, 20000u}) {
    Bytes v = workload::MakeValue(size, 3, size);
    const std::string key = "big" + std::to_string(size);
    ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok()) << size;
    EXPECT_EQ(ssd->Get(key).value(), v) << size;
  }
}

TEST(KvSsdEdgeTest, ExistsRejectedWhenNandOff) {
  KvSsdOptions o = SmallOptions();
  o.controller.nand_io_enabled = false;
  auto ssd = KvSsd::Open(o).value();
  Bytes v(8, 1);
  ASSERT_TRUE(ssd->Put("k", ByteSpan(v)).ok());
  EXPECT_FALSE(ssd->Exists("k").ok());
  EXPECT_FALSE(ssd->Seek("").ok());
  EXPECT_FALSE(ssd->Delete("k").ok());
}

// ----------------------------- Buffer edges --------------------------------

class BufferEdgeTest : public ::testing::Test {
 protected:
  buffer::BufferConfig Config(buffer::PackingPolicy policy) {
    buffer::BufferConfig c;
    c.policy = policy;
    c.num_entries = 8;
    c.dlt_entries = 8;
    return c;
  }
  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
};

TEST_F(BufferEdgeTest, WritesContinueAfterFlushAll) {
  int flushes = 0;
  buffer::NandPageBuffer buf(
      Config(buffer::PackingPolicy::kSelectiveBackfill), &clock_, &cost_,
      &metrics_, [&](std::uint64_t, ByteSpan, std::uint32_t) {
        ++flushes;
        return Status::Ok();
      });
  Bytes v = workload::MakeValue(100, 1, 1);
  ASSERT_TRUE(buf.PackPiggybacked(ByteSpan(v)).ok());
  ASSERT_TRUE(buf.FlushAll().ok());
  const int after_first = flushes;
  // The window restarted; further packs land on fresh pages.
  auto addr = buf.PackPiggybacked(ByteSpan(v));
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value() % kNandPageSize, 0u);
  EXPECT_GE(addr.value(), kNandPageSize);  // Past the flushed page.
  ASSERT_TRUE(buf.FlushAll().ok());
  EXPECT_GT(flushes, after_first);
}

TEST_F(BufferEdgeTest, FlushAllOnEmptyBufferIsNoop) {
  int flushes = 0;
  buffer::NandPageBuffer buf(
      Config(buffer::PackingPolicy::kAll), &clock_, &cost_, &metrics_,
      [&](std::uint64_t, ByteSpan, std::uint32_t) {
        ++flushes;
        return Status::Ok();
      });
  ASSERT_TRUE(buf.FlushAll().ok());
  EXPECT_EQ(flushes, 0);
}

TEST_F(BufferEdgeTest, FlushErrorPropagates) {
  buffer::NandPageBuffer buf(
      Config(buffer::PackingPolicy::kBlock), &clock_, &cost_, &metrics_,
      [&](std::uint64_t, ByteSpan, std::uint32_t) {
        return Status::IoError("injected");
      });
  Bytes v(100, 1);
  ASSERT_TRUE(buf.PackPiggybacked(ByteSpan(v)).ok());
  EXPECT_FALSE(buf.FlushAll().ok());
}

TEST_F(BufferEdgeTest, HybridExtentRecordedInDltWithTrailing) {
  buffer::NandPageBuffer buf(
      Config(buffer::PackingPolicy::kSelectiveBackfill), &clock_, &cost_,
      &metrics_,
      [](std::uint64_t, ByteSpan, std::uint32_t) { return Status::Ok(); });
  auto res = buf.ReserveDma(kMemPageSize, kMemPageSize + 40);
  ASSERT_TRUE(res.ok());
  Bytes tail(40, 0x7E);
  ASSERT_TRUE(buf.AppendTrailing(res.value(), kMemPageSize, ByteSpan(tail)).ok());
  ASSERT_TRUE(buf.CommitDma(res.value()).ok());
  ASSERT_EQ(buf.dlt().size(), 1u);
  // The DLT extent covers DMA pages plus the trailing bytes.
  EXPECT_EQ(buf.dlt().Oldest()->size, kMemPageSize + 40);
}

// ------------------------------ VLog edges ---------------------------------

TEST(VLogEdgeTest, ReadCacheHitsAndInvalidation) {
  sim::VirtualClock clock;
  sim::CostModel cost;
  stats::MetricsRegistry metrics;
  nand::NandGeometry g;
  g.channels = 1;
  g.ways = 1;
  g.blocks_per_die = 64;
  g.pages_per_block = 16;
  nand::NandFlash nand(g, &clock, &cost, &metrics);
  ftl::PageFtl ftl(&nand, &metrics);
  buffer::BufferConfig bc;
  bc.num_entries = 4;
  vlog::VLog vlog(&ftl, &clock, &cost, &metrics, bc, true);

  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 10; ++i) {
    Bytes v = workload::MakeValue(100, 5, static_cast<std::uint64_t>(i));
    auto a = vlog.buffer().PackPiggybacked(ByteSpan(v));
    ASSERT_TRUE(a.ok());
    addrs.push_back(a.value());
  }
  ASSERT_TRUE(vlog.Drain().ok());
  Bytes out(100);
  // Ten co-located reads: one NAND read + nine cache hits.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(vlog.Read(addrs[static_cast<std::size_t>(i)], MutByteSpan(out)).ok());
  }
  EXPECT_EQ(nand.pages_read(), 1u);
  EXPECT_EQ(vlog.read_cache_hits(), 9u);
  // Trim invalidates the cached page.
  ASSERT_TRUE(vlog.TrimPages(0, 1).ok());
  EXPECT_FALSE(vlog.Read(addrs[0], MutByteSpan(out)).ok());
}

// ---------------------------- Transport edges -------------------------------

TEST(TransportEdgeTest, PipelinedEmptyBatch) {
  sim::VirtualClock clock;
  sim::CostModel cost;
  pcie::PcieLink link;
  stats::MetricsRegistry metrics;
  nvme::NvmeTransport transport(&clock, &cost, &link, &metrics);
  std::vector<nvme::CqEntry> out(1);
  transport.SubmitPipelined(0, {}, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(link.TotalBytes(), 0u);
  EXPECT_EQ(transport.num_queues(), 1u);
}

// ----------------------------- Bulk accounting ------------------------------

TEST(BulkAccountingTest, DmaBytesPageRounded) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  // 3 records x ~110 B => ~350 B payload => 1 page of DMA.
  std::vector<driver::KvDriver::KvPair> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back({"r" + std::to_string(i), Bytes(100, 9)});
  }
  ASSERT_TRUE(ssd->PutBatch(batch).ok());
  EXPECT_EQ(ssd->GetStats().dma_h2d_bytes, kMemPageSize);
}

}  // namespace
}  // namespace bandslim
