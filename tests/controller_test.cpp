// Controller tests drive the device through raw NVMe commands (no driver),
// checking protocol handling: piggyback reassembly, hybrid trailing bytes,
// error paths, and vLog GC.
#include <gtest/gtest.h>

#include "controller/controller.h"
#include "core/kvssd.h"
#include "workload/value_gen.h"

namespace bandslim::controller {
namespace {

using nvme::CqStatus;
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

// The raw-command tests construct their own mini-stack so they can talk to
// KvController directly without the facade.
class RawControllerTest : public ::testing::Test {
 protected:
  RawControllerTest()
      : transport_(&clock_, &cost_, &link_, &metrics_),
        dma_(&clock_, &cost_, &link_, &host_, &metrics_),
        nand_(SmallGeometry(), &clock_, &cost_, &metrics_),
        ftl_(&nand_, &metrics_),
        vlog_(&ftl_, &clock_, &cost_, &metrics_, BufferConfig(),
              /*retain_payloads=*/true),
        lsm_(&ftl_, &metrics_),
        controller_(&clock_, &cost_, &metrics_, &dma_, &vlog_, &lsm_,
                    ControllerConfig{}) {
    transport_.AttachDevice(&controller_);
  }

  static buffer::BufferConfig BufferConfig() {
    buffer::BufferConfig c;
    c.num_entries = 16;
    c.dlt_entries = 16;
    return c;
  }

  NvmeCommand WriteCmd(const std::string& key, std::uint32_t vsize) {
    NvmeCommand cmd;
    cmd.set_opcode(Opcode::kKvWrite);
    cmd.set_key(AsBytes(key));
    cmd.set_value_size(vsize);
    return cmd;
  }

  // Full piggyback PUT through raw commands.
  nvme::CqEntry PiggybackPut(const std::string& key, ByteSpan value) {
    NvmeCommand head = WriteCmd(key, static_cast<std::uint32_t>(value.size()));
    const std::size_t h = std::min(kWriteCmdPiggybackCapacity, value.size());
    nvme::codec::SetWritePiggyback(head, value.subspan(0, h));
    head.set_final_fragment(h == value.size());
    nvme::CqEntry cqe = transport_.Submit(head);
    std::size_t off = h;
    while (off < value.size() && cqe.ok()) {
      const std::size_t n =
          std::min(kTransferCmdPiggybackCapacity, value.size() - off);
      NvmeCommand t;
      t.set_opcode(Opcode::kKvTransfer);
      nvme::codec::SetTransferPayload(t, value.subspan(off, n));
      off += n;
      t.set_final_fragment(off == value.size());
      cqe = transport_.Submit(t);
    }
    return cqe;
  }

  Bytes ReadValue(const std::string& key, std::uint32_t expected_size) {
    NvmeCommand cmd;
    cmd.set_opcode(Opcode::kKvRead);
    cmd.set_key(AsBytes(key));
    auto pages = host_.AllocatePages(CeilDiv(expected_size, kMemPageSize));
    nvme::codec::SetPrpPointers(cmd, nvme::PrpList(pages));
    nvme::CqEntry cqe = transport_.Submit(cmd);
    EXPECT_TRUE(cqe.ok());
    EXPECT_EQ(cqe.result, expected_size);
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
  KvController controller_;
};

TEST_F(RawControllerTest, SingleCommandPiggybackWrite) {
  Bytes value = workload::MakeValue(32, 1, 1);
  EXPECT_TRUE(PiggybackPut("key1", ByteSpan(value)).ok());
  EXPECT_EQ(controller_.values_written(), 1u);
  EXPECT_EQ(ReadValue("key1", 32), value);
}

TEST_F(RawControllerTest, MultiFragmentReassembly) {
  // 128 B = 35 + 56 + 37: three commands (Figure 5b).
  Bytes value = workload::MakeValue(128, 2, 2);
  EXPECT_TRUE(PiggybackPut("key2", ByteSpan(value)).ok());
  EXPECT_EQ(transport_.commands_submitted(), 3u);
  EXPECT_EQ(ReadValue("key2", 128), value);
}

TEST_F(RawControllerTest, TransferWithoutPendingRejected) {
  NvmeCommand t;
  t.set_opcode(Opcode::kKvTransfer);
  t.set_final_fragment(true);
  EXPECT_EQ(transport_.Submit(t).status, CqStatus::kInvalidField);
}

TEST_F(RawControllerTest, WrongFinalFlagRejected) {
  Bytes value = workload::MakeValue(128, 3, 3);
  NvmeCommand head = WriteCmd("k", 128);
  nvme::codec::SetWritePiggyback(head, ByteSpan(value).subspan(0, 35));
  head.set_final_fragment(false);
  ASSERT_TRUE(transport_.Submit(head).ok());
  NvmeCommand t;
  t.set_opcode(Opcode::kKvTransfer);
  nvme::codec::SetTransferPayload(t, ByteSpan(value).subspan(35, 56));
  t.set_final_fragment(true);  // Lies: 37 bytes still missing.
  EXPECT_EQ(transport_.Submit(t).status, CqStatus::kInvalidField);
}

TEST_F(RawControllerTest, ZeroValueSizeRejected) {
  NvmeCommand cmd = WriteCmd("k", 0);
  cmd.set_piggybacked(true);
  cmd.set_final_fragment(true);
  EXPECT_EQ(transport_.Submit(cmd).status, CqStatus::kInvalidField);
}

TEST_F(RawControllerTest, MissingKeyRejected) {
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvWrite);
  cmd.set_value_size(8);
  cmd.set_piggybacked(true);
  cmd.set_final_fragment(true);
  EXPECT_EQ(transport_.Submit(cmd).status, CqStatus::kInvalidField);
}

TEST_F(RawControllerTest, RetiredIterNextOpcodeIsInvalidField) {
  // 0xC6 once fetched a single range-scan record; iterators now ship only
  // kKvIterNextBatch, so the raw opcode is as unknown as any other.
  Bytes value = workload::MakeValue(32, 1, 1);
  ASSERT_TRUE(PiggybackPut("key1", ByteSpan(value)).ok());
  NvmeCommand seek;
  seek.set_opcode(Opcode::kKvIterSeek);
  seek.set_key(AsBytes(std::string("key0")));
  const nvme::CqEntry handle = transport_.Submit(seek);
  ASSERT_TRUE(handle.ok());
  NvmeCommand next;
  next.set_opcode(static_cast<Opcode>(0xC6));
  next.set_iter_handle(handle.result);
  auto pages = host_.AllocatePages(1);
  nvme::codec::SetPrpPointers(next, nvme::PrpList(pages));
  EXPECT_EQ(transport_.Submit(next).status, CqStatus::kInvalidField);
  host_.FreePages(pages);
}

TEST_F(RawControllerTest, PrpWriteAndReadBack) {
  Bytes value = workload::MakeValue(6000, 4, 4);
  auto pages = host_.AllocatePages(2);
  ASSERT_TRUE(host_.WriteToPages(pages, ByteSpan(value)).ok());
  NvmeCommand cmd = WriteCmd("pk", 6000);
  cmd.set_final_fragment(true);
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(pages));
  ASSERT_TRUE(transport_.Submit(cmd).ok());
  host_.FreePages(pages);
  EXPECT_EQ(ReadValue("pk", 6000), value);
}

TEST_F(RawControllerTest, HybridWriteAndReadBack) {
  // 4 KiB via PRP + 100 trailing bytes via two transfer commands.
  Bytes value = workload::MakeValue(4196, 5, 5);
  auto pages = host_.AllocatePages(1);
  ASSERT_TRUE(host_.WriteToPages(pages, ByteSpan(value).subspan(0, 4096)).ok());
  NvmeCommand cmd = WriteCmd("hk", 4196);
  cmd.set_final_fragment(false);
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(pages));
  ASSERT_TRUE(transport_.Submit(cmd).ok());
  host_.FreePages(pages);
  std::size_t off = 4096;
  while (off < value.size()) {
    const std::size_t n = std::min(kTransferCmdPiggybackCapacity,
                                   value.size() - off);
    NvmeCommand t;
    t.set_opcode(Opcode::kKvTransfer);
    nvme::codec::SetTransferPayload(t, ByteSpan(value).subspan(off, n));
    off += n;
    t.set_final_fragment(off == value.size());
    ASSERT_TRUE(transport_.Submit(t).ok());
  }
  EXPECT_EQ(ReadValue("hk", 4196), value);
}

TEST_F(RawControllerTest, ReadMissingKeyNotFound) {
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvRead);
  cmd.set_key(AsBytes(std::string("nope")));
  auto pages = host_.AllocatePages(1);
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(pages));
  EXPECT_EQ(transport_.Submit(cmd).status, CqStatus::kNotFound);
}

TEST_F(RawControllerTest, ReadBufferTooSmallReportsSize) {
  Bytes value = workload::MakeValue(6000, 6, 6);
  ASSERT_TRUE(PiggybackPut("big", ByteSpan(value)).ok());
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvRead);
  cmd.set_key(AsBytes(std::string("big")));
  auto pages = host_.AllocatePages(1);  // 4 KiB < 6000 B.
  nvme::codec::SetPrpPointers(cmd, nvme::PrpList(pages));
  auto cqe = transport_.Submit(cmd);
  EXPECT_EQ(cqe.status, CqStatus::kBufferTooSmall);
  EXPECT_EQ(cqe.result, 6000u);
}

TEST_F(RawControllerTest, VlogGcRelocatesLiveValues) {
  // Write enough to flush vLog pages to NAND, then collect the oldest
  // segment; values must remain readable at their new addresses.
  std::vector<Bytes> values;
  for (int i = 0; i < 40; ++i) {
    values.push_back(workload::MakeValue(3000, 7, static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(
        PiggybackPut("gc" + std::to_string(i), ByteSpan(values.back())).ok());
  }
  NvmeCommand flush;
  flush.set_opcode(Opcode::kKvFlush);
  ASSERT_TRUE(transport_.Submit(flush).ok());

  auto relocated = controller_.CollectVlogSegment();
  ASSERT_TRUE(relocated.ok()) << relocated.status().ToString();
  EXPECT_GT(relocated.value(), 0u);
  EXPECT_EQ(controller_.vlog_gc_runs(), 1u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(ReadValue("gc" + std::to_string(i), 3000),
              values[static_cast<std::size_t>(i)]);
  }
}

TEST_F(RawControllerTest, NandOffModeSkipsPersistence) {
  KvController off(&clock_, &cost_, &metrics_, &dma_, &vlog_, &lsm_,
                   ControllerConfig{.nand_io_enabled = false});
  // Own registry: a second transport on the fixture's would collide with
  // the fixture transport's registered nvme.* counters.
  stats::MetricsRegistry off_metrics;
  nvme::NvmeTransport transport(&clock_, &cost_, &link_, &off_metrics);
  transport.AttachDevice(&off);

  Bytes value = workload::MakeValue(32, 8, 8);
  NvmeCommand head = WriteCmd("nk", 32);
  nvme::codec::SetWritePiggyback(head, ByteSpan(value));
  head.set_final_fragment(true);
  EXPECT_TRUE(transport.Submit(head).ok());
  EXPECT_EQ(off.values_written(), 1u);
  EXPECT_EQ(nand_.pages_programmed(), 0u);

  // Reads are unsupported with persistence off.
  NvmeCommand read;
  read.set_opcode(Opcode::kKvRead);
  read.set_key(AsBytes(std::string("nk")));
  EXPECT_EQ(transport.Submit(read).status, CqStatus::kInvalidField);
}

}  // namespace
}  // namespace bandslim::controller
