// Multi-queue tests: fragment streams are FIFO *within* a submission queue
// (Section 3.3.1) but interleave freely across queues; the controller keys
// its reassembly state per queue and the packing policies must stay
// correct under interleaved arrivals.
#include <gtest/gtest.h>

#include "controller/controller.h"
#include "core/kvssd.h"
#include "workload/value_gen.h"

namespace bandslim {
namespace {

using nvme::NvmeCommand;
using nvme::Opcode;

nand::NandGeometry SmallGeometry() {
  nand::NandGeometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_die = 128;
  g.pages_per_block = 32;
  return g;
}

// Raw two-queue stack for fragment-level interleaving.
class MultiQueueRawTest : public ::testing::Test {
 protected:
  MultiQueueRawTest()
      : transport_(&clock_, &cost_, &link_, &metrics_, /*num_queues=*/2),
        dma_(&clock_, &cost_, &link_, &host_, &metrics_),
        nand_(SmallGeometry(), &clock_, &cost_, &metrics_),
        ftl_(&nand_, &metrics_),
        vlog_(&ftl_, &clock_, &cost_, &metrics_, BufferConfig(),
              /*retain_payloads=*/true),
        lsm_(&ftl_, &metrics_),
        controller_(&clock_, &cost_, &metrics_, &dma_, &vlog_, &lsm_,
                    controller::ControllerConfig{}) {
    transport_.AttachDevice(&controller_);
  }

  static buffer::BufferConfig BufferConfig() {
    buffer::BufferConfig c;
    c.num_entries = 16;
    c.dlt_entries = 16;
    return c;
  }

  NvmeCommand HeadCmd(const std::string& key, ByteSpan value) {
    NvmeCommand cmd;
    cmd.set_opcode(Opcode::kKvWrite);
    cmd.set_key(AsBytes(key));
    cmd.set_value_size(static_cast<std::uint32_t>(value.size()));
    const std::size_t head = std::min(kWriteCmdPiggybackCapacity, value.size());
    nvme::codec::SetWritePiggyback(cmd, value.subspan(0, head));
    cmd.set_final_fragment(head == value.size());
    return cmd;
  }

  std::vector<NvmeCommand> TrailCmds(ByteSpan value) {
    std::vector<NvmeCommand> cmds;
    std::size_t off = kWriteCmdPiggybackCapacity;
    while (off < value.size()) {
      const std::size_t n =
          std::min(kTransferCmdPiggybackCapacity, value.size() - off);
      NvmeCommand t;
      t.set_opcode(Opcode::kKvTransfer);
      nvme::codec::SetTransferPayload(t, value.subspan(off, n));
      off += n;
      t.set_final_fragment(off == value.size());
      cmds.push_back(t);
    }
    return cmds;
  }

  Bytes ReadValue(const std::string& key, std::uint32_t expected_size) {
    NvmeCommand cmd;
    cmd.set_opcode(Opcode::kKvRead);
    cmd.set_key(AsBytes(key));
    auto pages = host_.AllocatePages(CeilDiv(expected_size, kMemPageSize));
    nvme::codec::SetPrpPointers(cmd, nvme::PrpList(pages));
    auto cqe = transport_.Submit(cmd);
    EXPECT_TRUE(cqe.ok());
    Bytes out(expected_size);
    EXPECT_TRUE(host_.ReadFromPages(pages, MutByteSpan(out)).ok());
    host_.FreePages(pages);
    return out;
  }

  sim::VirtualClock clock_;
  sim::CostModel cost_;
  pcie::PcieLink link_;
  stats::MetricsRegistry metrics_;
  nvme::HostMemory host_;
  nvme::NvmeTransport transport_;
  dma::DmaEngine dma_;
  nand::NandFlash nand_;
  ftl::PageFtl ftl_;
  vlog::VLog vlog_;
  lsm::LsmTree lsm_;
  controller::KvController controller_;
};

TEST_F(MultiQueueRawTest, InterleavedFragmentStreams) {
  // Two multi-fragment piggyback values, fragments alternating between
  // queues; both must reassemble byte-exactly.
  Bytes va = workload::MakeValue(300, 1, 1);
  Bytes vb = workload::MakeValue(420, 1, 2);
  auto ta = TrailCmds(ByteSpan(va));
  auto tb = TrailCmds(ByteSpan(vb));

  ASSERT_TRUE(transport_.Submit(0, HeadCmd("keyA", ByteSpan(va))).ok());
  ASSERT_TRUE(transport_.Submit(1, HeadCmd("keyB", ByteSpan(vb))).ok());
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < ta.size() || ib < tb.size()) {
    if (ia < ta.size()) ASSERT_TRUE(transport_.Submit(0, ta[ia++]).ok());
    if (ib < tb.size()) ASSERT_TRUE(transport_.Submit(1, tb[ib++]).ok());
  }
  EXPECT_EQ(ReadValue("keyA", 300), va);
  EXPECT_EQ(ReadValue("keyB", 420), vb);
}

TEST_F(MultiQueueRawTest, TransferOnWrongQueueRejected) {
  Bytes v = workload::MakeValue(200, 2, 1);
  ASSERT_TRUE(transport_.Submit(0, HeadCmd("k", ByteSpan(v))).ok());
  auto trail = TrailCmds(ByteSpan(v));
  // Queue 1 has no pending write: its transfer must be rejected while the
  // queue-0 stream stays intact.
  EXPECT_EQ(transport_.Submit(1, trail[0]).status,
            nvme::CqStatus::kInvalidField);
  for (const auto& t : trail) {
    ASSERT_TRUE(transport_.Submit(0, t).ok());
  }
  EXPECT_EQ(ReadValue("k", 200), v);
}

TEST_F(MultiQueueRawTest, PerQueuePendingWriteAllowed) {
  // A head on each queue may be outstanding simultaneously.
  Bytes va = workload::MakeValue(100, 3, 1);
  Bytes vb = workload::MakeValue(100, 3, 2);
  ASSERT_TRUE(transport_.Submit(0, HeadCmd("a", ByteSpan(va))).ok());
  ASSERT_TRUE(transport_.Submit(1, HeadCmd("b", ByteSpan(vb))).ok());
  for (const auto& t : TrailCmds(ByteSpan(vb))) {
    ASSERT_TRUE(transport_.Submit(1, t).ok());
  }
  for (const auto& t : TrailCmds(ByteSpan(va))) {
    ASSERT_TRUE(transport_.Submit(0, t).ok());
  }
  EXPECT_EQ(ReadValue("a", 100), va);
  EXPECT_EQ(ReadValue("b", 100), vb);
}

TEST_F(MultiQueueRawTest, CidsAllocatedPerQueue) {
  // NVMe command identifiers are scoped to a submission queue: each queue
  // counts from 0 independently, rather than sharing one device-wide
  // counter.
  Bytes v = workload::MakeValue(16, 3, 1);
  const auto q0_first = transport_.Submit(0, HeadCmd("k0", ByteSpan(v)));
  const auto q1_first = transport_.Submit(1, HeadCmd("k1", ByteSpan(v)));
  const auto q0_second = transport_.Submit(0, HeadCmd("k2", ByteSpan(v)));
  const auto q1_second = transport_.Submit(1, HeadCmd("k3", ByteSpan(v)));
  ASSERT_TRUE(q0_first.ok());
  ASSERT_TRUE(q1_first.ok());
  ASSERT_TRUE(q0_second.ok());
  ASSERT_TRUE(q1_second.ok());
  EXPECT_EQ(q0_first.cid, 0);
  EXPECT_EQ(q1_first.cid, 0);
  EXPECT_EQ(q0_second.cid, 1);
  EXPECT_EQ(q1_second.cid, 1);
}

TEST(MultiQueueFacadeTest, DriversOnSeparateQueues) {
  KvSsdOptions o;
  o.geometry = SmallGeometry();
  o.num_queues = 4;
  auto ssd = KvSsd::Open(o).value();
  auto d1 = ssd->CreateQueueDriver(1);
  auto d2 = ssd->CreateQueueDriver(2, {.method = driver::TransferMethod::kPiggyback});
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_FALSE(ssd->CreateQueueDriver(4).ok());  // Out of range.

  Bytes v0 = workload::MakeValue(50, 4, 0);
  Bytes v1 = workload::MakeValue(600, 4, 1);
  Bytes v2 = workload::MakeValue(600, 4, 2);
  ASSERT_TRUE(ssd->Put("q0", ByteSpan(v0)).ok());
  ASSERT_TRUE(d1.value()->Put("q1", ByteSpan(v1)).ok());
  ASSERT_TRUE(d2.value()->Put("q2", ByteSpan(v2)).ok());
  // All keys readable through any driver (shared device KVS).
  EXPECT_EQ(ssd->Get("q1").value(), v1);
  EXPECT_EQ(d1.value()->Get("q2").value(), v2);
  EXPECT_EQ(d2.value()->Get("q0").value(), v0);
}

TEST(MultiQueueFacadeTest, InterleavedLoadStaysConsistent) {
  KvSsdOptions o;
  o.geometry = SmallGeometry();
  o.num_queues = 2;
  o.buffer.policy = buffer::PackingPolicy::kSelectiveBackfill;
  auto ssd = KvSsd::Open(o).value();
  auto d1 = ssd->CreateQueueDriver(1);
  ASSERT_TRUE(d1.ok());
  Xoshiro256 rng(17);
  std::map<std::string, Bytes> model;
  for (int i = 0; i < 400; ++i) {
    const std::string key = "m" + std::to_string(i);
    Bytes v = workload::MakeValue(1 + rng.Below(4000), 5,
                                  static_cast<std::uint64_t>(i));
    driver::KvDriver& drv = (i % 2 == 0) ? *ssd->Hooks().driver : *d1.value();
    ASSERT_TRUE(drv.Put(key, ByteSpan(v)).ok()) << i;
    model[key] = std::move(v);
  }
  for (const auto& [key, expected] : model) {
    auto got = ssd->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), expected) << key;
  }
}

}  // namespace
}  // namespace bandslim
