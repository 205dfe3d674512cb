#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "fault/fault_plan.h"
#include "ftl/ftl.h"
#include "workload/value_gen.h"

namespace bandslim::ftl {
namespace {

nand::NandGeometry TinyGeometry() {
  nand::NandGeometry g;
  g.channels = 1;
  g.ways = 1;
  g.blocks_per_die = 16;
  g.pages_per_block = 8;
  return g;
}

class FtlTest : public ::testing::Test {
 protected:
  FtlTest()
      : nand_(TinyGeometry(), &clock_, &cost_, &metrics_),
        ftl_(&nand_, &metrics_) {}

  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
  nand::NandFlash nand_;
  PageFtl ftl_;
};

TEST_F(FtlTest, WriteReadRoundTrip) {
  Bytes data = workload::MakeValue(kNandPageSize, 1, 1);
  ASSERT_TRUE(ftl_.Write(42, ByteSpan(data), Stream::kVlog, true).ok());
  EXPECT_TRUE(ftl_.IsMapped(42));
  Bytes back(kNandPageSize);
  ASSERT_TRUE(ftl_.Read(42, MutByteSpan(back)).ok());
  EXPECT_EQ(back, data);
}

TEST_F(FtlTest, ReadUnmappedFails) {
  Bytes back(16);
  auto st = ftl_.Read(9, MutByteSpan(back));
  EXPECT_TRUE(st.IsNotFound());
}

TEST_F(FtlTest, OverwriteRemapsOutOfPlace) {
  Bytes v1 = workload::MakeValue(64, 1, 1);
  Bytes v2 = workload::MakeValue(64, 2, 2);
  ASSERT_TRUE(ftl_.Write(7, ByteSpan(v1), Stream::kVlog, true).ok());
  ASSERT_TRUE(ftl_.Write(7, ByteSpan(v2), Stream::kVlog, true).ok());
  Bytes back(64);
  ASSERT_TRUE(ftl_.Read(7, MutByteSpan(back)).ok());
  EXPECT_EQ(back, v2);
  EXPECT_EQ(nand_.pages_programmed(), 2u);  // Both physical writes happened.
  EXPECT_EQ(ftl_.mapped_pages(), 1u);
}

TEST_F(FtlTest, TrimUnmaps) {
  Bytes v(16);
  ASSERT_TRUE(ftl_.Write(5, ByteSpan(v), Stream::kVlog, false).ok());
  ASSERT_TRUE(ftl_.Trim(5).ok());
  EXPECT_FALSE(ftl_.IsMapped(5));
  EXPECT_TRUE(ftl_.Trim(5).ok());  // Idempotent.
}

TEST_F(FtlTest, StreamsUseSeparateBlocks) {
  Bytes v(16);
  ASSERT_TRUE(ftl_.Write(1, ByteSpan(v), Stream::kVlog, false).ok());
  ASSERT_TRUE(ftl_.Write(1ull << 40, ByteSpan(v), Stream::kLsm, false).ok());
  EXPECT_EQ(metrics_.CounterValue("ftl.programs.vlog"), 1u);
  EXPECT_EQ(metrics_.CounterValue("ftl.programs.lsm"), 1u);
}

TEST_F(FtlTest, GarbageCollectionReclaimsRewrittenPages) {
  // Device: 16 blocks x 8 pages = 128 pages. Repeatedly rewrite a small
  // logical set so most physical pages become garbage; GC must keep up.
  std::map<std::uint64_t, Bytes> model;
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
      Bytes v = workload::MakeValue(64, static_cast<std::uint64_t>(round), lpn);
      ASSERT_TRUE(ftl_.Write(lpn, ByteSpan(v), Stream::kVlog, true).ok())
          << "round " << round << " lpn " << lpn;
      model[lpn] = v;
    }
  }
  EXPECT_GT(ftl_.gc_runs(), 0u);
  EXPECT_GT(ftl_.gc_relocated_pages() + 1, 0u);
  for (const auto& [lpn, expected] : model) {
    Bytes back(64);
    ASSERT_TRUE(ftl_.Read(lpn, MutByteSpan(back)).ok());
    EXPECT_EQ(back, expected) << "lpn " << lpn;
  }
}

TEST_F(FtlTest, FillsToCapacityThenFails) {
  // All-unique logical pages: nothing is garbage, so the device eventually
  // reports out of space instead of looping in GC.
  Bytes v(16);
  std::uint64_t written = 0;
  Status st;
  for (std::uint64_t lpn = 0; lpn < 200; ++lpn) {
    st = ftl_.Write(lpn, ByteSpan(v), Stream::kVlog, false);
    if (!st.ok()) break;
    ++written;
  }
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfSpace);
  // Capacity minus the GC reserve and partially-filled active blocks.
  EXPECT_GT(written, 90u);
  EXPECT_LT(written, 128u);
}

TEST_F(FtlTest, GcPreservesUnretainedFlag) {
  // Pages written with retain=false must stay zero-reads after relocation.
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
      Bytes v = workload::MakeValue(64, 9, lpn);
      ASSERT_TRUE(ftl_.Write(lpn, ByteSpan(v), Stream::kVlog, false).ok());
    }
  }
  ASSERT_GT(ftl_.gc_runs(), 0u);
  Bytes back(64, 0xFF);
  ASSERT_TRUE(ftl_.Read(3, MutByteSpan(back)).ok());
  EXPECT_EQ(back, Bytes(64, 0));
}

// Pages of `nand` that still hold a retained payload.
std::uint64_t PagesWithPayload(const nand::NandFlash& nand) {
  std::uint64_t n = 0;
  for (std::uint64_t p = 0; p < nand.geometry().total_pages(); ++p) {
    n += nand.HasRetainedData(p) ? 1 : 0;
  }
  return n;
}

TEST_F(FtlTest, InvalidatedPagesDropTheirPayload) {
  const Bytes v1 = workload::MakeValue(64, 1, 1);
  const Bytes v2 = workload::MakeValue(64, 2, 2);
  const Bytes v3 = workload::MakeValue(64, 3, 3);
  // Overwrite: the old page turns garbage and gives its payload up, while a
  // view taken before keeps the bytes.
  ASSERT_TRUE(ftl_.Write(7, ByteSpan(v1), Stream::kVlog, true).ok());
  std::shared_ptr<const Bytes> view1;
  ASSERT_TRUE(ftl_.ReadView(7, &view1).ok());
  ASSERT_TRUE(nand_.HasRetainedData(0));  // The first vLog page.
  ASSERT_TRUE(ftl_.Write(7, ByteSpan(v2), Stream::kVlog, true).ok());
  EXPECT_FALSE(nand_.HasRetainedData(0));
  EXPECT_EQ(nand_.StateOf(0), nand::PageState::kProgrammed);
  EXPECT_TRUE(nand_.HasRetainedData(1));
  ASSERT_NE(view1, nullptr);
  EXPECT_EQ(*view1, v1);

  // GC: relocating a live page drops the source's payload before the
  // victim is erased; only mapped pages hold payloads throughout. Every
  // round leaves one page live for good, so every victim has pages to move.
  ASSERT_TRUE(ftl_.Write(100, ByteSpan(v3), Stream::kVlog, true).ok());
  std::shared_ptr<const Bytes> view3;
  ASSERT_TRUE(ftl_.ReadView(100, &view3).ok());
  for (std::uint64_t round = 0; round < 40; ++round) {
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
      const std::uint64_t target = lpn == 0 ? 1000 + round : lpn;
      const Bytes v = workload::MakeValue(64, 10 + round, lpn);
      ASSERT_TRUE(ftl_.Write(target, ByteSpan(v), Stream::kVlog, true).ok());
      ASSERT_EQ(PagesWithPayload(nand_), ftl_.mapped_pages())
          << "round " << round << " lpn " << target;
    }
  }
  ASSERT_GT(ftl_.gc_relocated_pages(), 0u);
  ASSERT_NE(view3, nullptr);
  EXPECT_EQ(*view3, v3);
  Bytes back(64);
  ASSERT_TRUE(ftl_.Read(100, MutByteSpan(back)).ok());
  EXPECT_EQ(back, v3);
}

// Runs a seeded Write/Trim stream through the allocator on a 4-die device
// with factory bad blocks, a remap reserve, and program/erase failures that
// retire blocks mid-run, then hashes where every page landed, every block's
// wear and bad flag, the free pool, the GC count and the clock. Any change
// to the allocation order, GC victim choice or retirement in either layout
// moves the digest.
std::uint64_t AllocationStreamDigest(bool stripe_across_dies) {
  nand::NandGeometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_die = 16;
  g.pages_per_block = 8;
  sim::VirtualClock clock;
  sim::CostModel cost;
  stats::MetricsRegistry metrics;
  fault::FaultConfig faults;
  faults.program_fail_rate = 0.002;
  faults.erase_fail_rate = 0.01;
  fault::FaultPlan plan(faults);
  nand::NandFlash nand(g, &clock, &cost, &metrics, &plan);
  FtlConfig config;
  config.stripe_across_dies = stripe_across_dies;
  config.reserved_blocks = 4;
  config.bad_block_rate = 0.1;
  PageFtl ftl(&nand, &metrics, config);

  Xoshiro256 rng(0xA110C);
  Bytes v(16, 1);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t r = rng.Below(100);
    const std::uint64_t lpn = rng.Below(160);
    if (r < 5) {
      EXPECT_TRUE(ftl.Trim(lpn).ok());
      continue;
    }
    const Stream stream = r < 75 ? Stream::kVlog : Stream::kLsm;
    const Status st = ftl.Write(lpn, ByteSpan(v), stream, false);
    EXPECT_TRUE(st.ok()) << "op " << i << ": " << st.ToString();
  }
  EXPECT_GT(ftl.gc_runs(), 0u);
  EXPECT_GT(ftl.bad_block_remaps(), 0u);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::uint64_t p = 0; p < g.total_pages(); ++p) {
    add(static_cast<std::uint64_t>(nand.StateOf(p)));
  }
  for (std::uint64_t b = 0; b < g.total_blocks(); ++b) {
    add(nand.EraseCount(b));
    add(ftl.IsBad(b) ? 1 : 0);
  }
  add(ftl.free_blocks());
  add(ftl.gc_runs());
  add(clock.Now());
  return h;
}

TEST_F(FtlTest, AllocationStreamDigestIsPinned) {
  EXPECT_EQ(AllocationStreamDigest(/*stripe_across_dies=*/false),
            1389360533255953241u);
  EXPECT_EQ(AllocationStreamDigest(/*stripe_across_dies=*/true),
            8154425787519435018u);
}

}  // namespace
}  // namespace bandslim::ftl
