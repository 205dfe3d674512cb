#include <gtest/gtest.h>

#include "nvme/command.h"
#include "nvme/host_memory.h"
#include "nvme/prp.h"
#include "nvme/transport.h"
#include "trace/trace.h"
#include "workload/value_gen.h"

namespace bandslim::nvme {
namespace {

TEST(CommandTest, OpcodeFlagsCid) {
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvWrite);
  cmd.set_piggybacked(true);
  cmd.set_final_fragment(true);
  cmd.set_cid(0xBEEF);
  EXPECT_EQ(cmd.opcode(), Opcode::kKvWrite);
  EXPECT_TRUE(cmd.piggybacked());
  EXPECT_TRUE(cmd.final_fragment());
  EXPECT_EQ(cmd.cid(), 0xBEEF);
  cmd.set_piggybacked(false);
  EXPECT_FALSE(cmd.piggybacked());
  EXPECT_TRUE(cmd.final_fragment());  // Independent bits.
  EXPECT_EQ(cmd.opcode(), Opcode::kKvWrite);
}

TEST(CommandTest, KeyRoundTripShort) {
  NvmeCommand cmd;
  const Bytes key = {0xde, 0xad, 0xbe, 0xef};
  cmd.set_key(ByteSpan(key));
  EXPECT_EQ(cmd.key_size(), 4u);
  EXPECT_EQ(cmd.key(), key);
}

TEST(CommandTest, KeyRoundTripMax16Bytes) {
  NvmeCommand cmd;
  Bytes key(16);
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i + 1);
  cmd.set_key(ByteSpan(key));
  EXPECT_EQ(cmd.key_size(), 16u);
  EXPECT_EQ(cmd.key(), key);
}

TEST(CommandTest, KeySpansDw2_3AndDw14_15) {
  NvmeCommand cmd;
  Bytes key(12, 0xAB);
  cmd.set_key(ByteSpan(key));
  // First 8 bytes land in dw2-3, overflow in dw14-15 (Figure 6).
  EXPECT_EQ(cmd.dw[2] & 0xFF, 0xABu);
  EXPECT_EQ(cmd.dw[14] & 0xFF, 0xABu);
  EXPECT_EQ(cmd.dw[15], 0u);  // Bytes 12..16 unused.
}

TEST(CommandTest, ValueSizeField) {
  NvmeCommand cmd;
  cmd.set_value_size(123456);
  EXPECT_EQ(cmd.value_size(), 123456u);
}

TEST(CommandCodecTest, WritePiggybackCapacity35) {
  NvmeCommand cmd;
  Bytes payload = workload::MakeValue(64, 1, 1);
  const std::size_t consumed =
      codec::SetWritePiggyback(cmd, ByteSpan(payload));
  EXPECT_EQ(consumed, kWriteCmdPiggybackCapacity);
  EXPECT_TRUE(cmd.piggybacked());
}

TEST(CommandCodecTest, WritePiggybackRoundTrip) {
  for (std::size_t n : {1u, 8u, 24u, 25u, 27u, 30u, 35u}) {
    NvmeCommand cmd;
    Bytes payload = workload::MakeValue(n, 7, n);
    ASSERT_EQ(codec::SetWritePiggyback(cmd, ByteSpan(payload)), n);
    Bytes back(n);
    codec::GetWritePiggyback(cmd, MutByteSpan(back));
    EXPECT_EQ(back, payload) << "size " << n;
  }
}

TEST(CommandCodecTest, WritePiggybackDoesNotClobberKeyOrSizes) {
  NvmeCommand cmd;
  const Bytes key = {1, 2, 3, 4};
  cmd.set_key(ByteSpan(key));
  cmd.set_value_size(35);
  Bytes payload = workload::MakeValue(35, 9, 9);
  codec::SetWritePiggyback(cmd, ByteSpan(payload));
  // dw2-3/dw14-15 (key), dw10 (value size), dw11 byte 0 (key size) intact.
  EXPECT_EQ(cmd.key(), key);
  EXPECT_EQ(cmd.value_size(), 35u);
  EXPECT_EQ(cmd.key_size(), 4u);
  Bytes back(35);
  codec::GetWritePiggyback(cmd, MutByteSpan(back));
  EXPECT_EQ(back, payload);
}

TEST(CommandCodecTest, TransferPayloadRoundTrip56) {
  for (std::size_t n : {1u, 55u, 56u}) {
    NvmeCommand cmd;
    cmd.set_opcode(Opcode::kKvTransfer);
    Bytes payload = workload::MakeValue(n, 3, n);
    ASSERT_EQ(codec::SetTransferPayload(cmd, ByteSpan(payload)), n);
    Bytes back(n);
    codec::GetTransferPayload(cmd, MutByteSpan(back));
    EXPECT_EQ(back, payload);
    EXPECT_EQ(cmd.opcode(), Opcode::kKvTransfer);  // dw0 untouched.
  }
}

TEST(CommandCodecTest, PiggybackCommandCount) {
  // 1 command covers <=35 B; each extra command adds 56 B (Section 3.2).
  EXPECT_EQ(codec::PiggybackCommandCount(1), 1u);
  EXPECT_EQ(codec::PiggybackCommandCount(35), 1u);
  EXPECT_EQ(codec::PiggybackCommandCount(36), 2u);
  EXPECT_EQ(codec::PiggybackCommandCount(35 + 56), 2u);
  EXPECT_EQ(codec::PiggybackCommandCount(35 + 57), 3u);
  // The paper's example: a 128 B value takes 3 commands (Figure 5b).
  EXPECT_EQ(codec::PiggybackCommandCount(128), 3u);
}

TEST(HostMemoryTest, AllocateWriteRead) {
  HostMemory mem;
  auto pages = mem.AllocatePages(3);
  EXPECT_EQ(pages.size(), 3u);
  EXPECT_EQ(mem.allocated_pages(), 3u);
  Bytes data = workload::MakeValue(10000, 4, 4);
  ASSERT_TRUE(mem.WriteToPages(pages, ByteSpan(data)).ok());
  Bytes back(10000);
  ASSERT_TRUE(mem.ReadFromPages(pages, MutByteSpan(back)).ok());
  EXPECT_EQ(back, data);
  mem.FreePages(pages);
  EXPECT_EQ(mem.allocated_pages(), 0u);
}

TEST(HostMemoryTest, WriteTooLargeFails) {
  HostMemory mem;
  auto pages = mem.AllocatePages(1);
  Bytes data(kMemPageSize + 1);
  EXPECT_FALSE(mem.WriteToPages(pages, ByteSpan(data)).ok());
}

TEST(PrpListTest, DmaBytesAlwaysWholePages) {
  PrpList one({1});
  EXPECT_EQ(one.DmaBytes(), kMemPageSize);
  PrpList two({1, 2});
  EXPECT_EQ(two.DmaBytes(), 2 * kMemPageSize);
}

TEST(PrpListTest, ListFetchBytes) {
  // PRP1/PRP2 ride in the command; >2 pages require a list page fetch.
  EXPECT_EQ(PrpList({1}).ListFetchBytes(), 0u);
  EXPECT_EQ(PrpList({1, 2}).ListFetchBytes(), 0u);
  EXPECT_EQ(PrpList({1, 2, 3}).ListFetchBytes(), 16u);
  EXPECT_EQ(PrpList({1, 2, 3, 4}).ListFetchBytes(), 24u);
}

// Transport accounting against a trivial echo device.
class EchoDevice : public DeviceHandler {
 public:
  CqEntry Handle(const NvmeCommand& cmd, std::uint16_t queue_id) override {
    last_opcode = cmd.opcode();
    last_queue = queue_id;
    ++handled;
    return CqEntry{7, 0, CqStatus::kSuccess};
  }
  Opcode last_opcode = Opcode::kInvalid;
  std::uint16_t last_queue = 0;
  int handled = 0;
};

TEST(TransportTest, SubmitAccountsTrafficAndLatency) {
  sim::VirtualClock clock;
  sim::CostModel cost;
  pcie::PcieLink link;
  stats::MetricsRegistry metrics;
  NvmeTransport transport(&clock, &cost, &link, &metrics);
  EchoDevice device;
  transport.AttachDevice(&device);

  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvExists);
  const CqEntry cqe = transport.Submit(cmd);
  EXPECT_TRUE(cqe.ok());
  EXPECT_EQ(cqe.result, 7u);
  EXPECT_EQ(device.handled, 1);
  EXPECT_EQ(device.last_opcode, Opcode::kKvExists);

  // One command: 8 B doorbell + 64 B fetch h2d, 16 B completion d2h,
  // one round trip of latency.
  EXPECT_EQ(link.MmioBytes(), cost.mmio_doorbell_bytes);
  EXPECT_EQ(link.BytesOf(pcie::TrafficClass::kCommandFetch,
                         pcie::Direction::kHostToDevice),
            cost.cmd_fetch_bytes);
  EXPECT_EQ(link.BytesOf(pcie::TrafficClass::kCompletion,
                         pcie::Direction::kDeviceToHost),
            cost.cqe_bytes);
  EXPECT_EQ(clock.Now(), cost.cmd_round_trip_ns);
  EXPECT_EQ(transport.commands_submitted(), 1u);
}

TEST(TransportTest, PrpListFetchAddsTraffic) {
  sim::VirtualClock clock;
  sim::CostModel cost;
  pcie::PcieLink link;
  stats::MetricsRegistry metrics;
  NvmeTransport transport(&clock, &cost, &link, &metrics);
  EchoDevice device;
  transport.AttachDevice(&device);

  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvWrite);
  cmd.prp = PrpList({1, 2, 3, 4});  // 24 B of PRP list entries.
  transport.Submit(cmd);
  EXPECT_EQ(link.BytesOf(pcie::TrafficClass::kCommandFetch,
                         pcie::Direction::kHostToDevice),
            cost.cmd_fetch_bytes + 24);
}

TEST(TransportTest, CidsAssignedSequentially) {
  sim::VirtualClock clock;
  sim::CostModel cost;
  pcie::PcieLink link;
  stats::MetricsRegistry metrics;
  NvmeTransport transport(&clock, &cost, &link, &metrics);
  EchoDevice device;
  transport.AttachDevice(&device);
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvExists);
  const CqEntry a = transport.Submit(cmd);
  const CqEntry b = transport.Submit(cmd);
  EXPECT_EQ(a.cid + 1, b.cid);
}

TEST(TransportTest, QueueInfoReadsDepth64AndNothingInFlight) {
  sim::VirtualClock clock;
  sim::CostModel cost;
  pcie::PcieLink link;
  stats::MetricsRegistry metrics;
  NvmeTransport transport(&clock, &cost, &link, &metrics);
  EchoDevice device;
  transport.AttachDevice(&device);
  NvmeCommand cmd;
  cmd.set_opcode(Opcode::kKvExists);
  ASSERT_TRUE(transport.Submit(cmd).ok());
  const NvmeTransport::QueueInfo info = transport.QueueInfoAt(0);
  EXPECT_EQ(info.queue_id, 0u);
  EXPECT_EQ(info.depth, 64u);
  EXPECT_EQ(info.submitted, 1u);
  EXPECT_EQ(info.inflight, 0u);
}

// A traced transport on an echo device, with its own clock and link.
struct Rig {
  static trace::TraceConfig Traced() {
    trace::TraceConfig c;
    c.enabled = true;
    return c;
  }
  Rig() { transport.AttachDevice(&device); }

  sim::VirtualClock clock;
  sim::CostModel cost;
  pcie::PcieLink link;
  stats::MetricsRegistry metrics;
  trace::Tracer tracer{&clock, &metrics, Traced()};
  NvmeTransport transport{&clock, &cost, &link, &metrics,
                          /*num_queues=*/1, /*fault_plan=*/nullptr, &tracer};
  EchoDevice device;
};

TEST(TransportTest, SubmitIsAPipelinedBatchOfOne) {
  // credits = 0: every command is served. credits = 1: the first command
  // takes the only credit and the second is shed.
  for (std::uint32_t credits : {0u, 1u}) {
    SCOPED_TRACE(credits);
    Rig single, batch;
    single.transport.SetAdmissionControl(0, credits, /*busy_backoff_ns=*/700);
    batch.transport.SetAdmissionControl(0, credits, /*busy_backoff_ns=*/700);
    NvmeCommand cmd;
    cmd.set_opcode(Opcode::kKvExists);
    cmd.set_cid(0x55);
    std::vector<CqEntry> out;
    for (int i = 0; i < 2; ++i) {
      const CqEntry cqe = single.transport.Submit(cmd);
      batch.transport.SubmitPipelined(
          0, std::span<const NvmeCommand>(&cmd, 1), &out);
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(cqe.result, out[0].result);
      EXPECT_EQ(cqe.cid, out[0].cid);
      EXPECT_EQ(cqe.status, out[0].status);
      const bool shed = credits == 1 && i == 1;
      EXPECT_EQ(cqe.status, shed ? CqStatus::kBusy : CqStatus::kSuccess);
      EXPECT_EQ(cqe.cid, shed ? 0x55 : i);
    }
    EXPECT_EQ(single.clock.Now(), batch.clock.Now());
    for (int c = 0; c < pcie::kNumTrafficClasses; ++c) {
      for (auto dir : {pcie::Direction::kHostToDevice,
                       pcie::Direction::kDeviceToHost}) {
        const auto cls = static_cast<pcie::TrafficClass>(c);
        EXPECT_EQ(single.link.BytesOf(cls, dir), batch.link.BytesOf(cls, dir));
      }
    }
    EXPECT_EQ(single.transport.commands_submitted(),
              batch.transport.commands_submitted());
    EXPECT_EQ(single.transport.busy_rejections(), credits);
    EXPECT_EQ(batch.transport.busy_rejections(), credits);
    EXPECT_EQ(single.device.handled, batch.device.handled);
    ASSERT_EQ(single.tracer.commands().size(), batch.tracer.commands().size());
    for (std::size_t i = 0; i < single.tracer.commands().size(); ++i) {
      EXPECT_EQ(single.tracer.commands()[i].cid, batch.tracer.commands()[i].cid);
    }
    EXPECT_EQ(trace::ToChromeTraceJson(single.tracer),
              trace::ToChromeTraceJson(batch.tracer));
    EXPECT_EQ(trace::ToBreakdownCsv(single.tracer),
              trace::ToBreakdownCsv(batch.tracer));
  }
}

}  // namespace
}  // namespace bandslim::nvme
