// Tests for the per-command tracing layer (src/trace) and the redesigned
// introspection API (KvSsd::Inspect / KvSsd::TestHooks): the exactness
// invariant (per-stage sums == command windows) across all transfer
// techniques and queue configs, span-tree well-formedness, deterministic
// exports, zero side effects when disabled, and the fault timeout/retry
// path showing up as traced stages.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/kvssd.h"
#include "trace/trace.h"
#include "workload/value_gen.h"

namespace bandslim {
namespace {

using trace::Category;

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

KvSsdOptions TracedOptions() {
  KvSsdOptions o = SmallOptions();
  o.trace.enabled = true;
  return o;
}

// A deterministic PUT/GET/DELETE mix whose sizes touch the piggyback,
// hybrid and PRP paths regardless of the configured method.
void DriveMixed(KvSsd* ssd, int ops) {
  static const std::size_t kSizes[] = {24, 180, 4096 + 40, 8192};
  for (int i = 0; i < ops; ++i) {
    const std::string key = "t" + std::to_string(i);
    Bytes v = workload::MakeValue(kSizes[static_cast<std::size_t>(i) % 4], 3,
                                  static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok());
  }
  for (int i = 0; i < ops; i += 3) {
    ASSERT_TRUE(ssd->Get("t" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(ssd->Delete("t0").ok());
  ASSERT_TRUE(ssd->Flush().ok());
}

void ExpectExactAttribution(const trace::Tracer& tracer) {
  ASSERT_FALSE(tracer.commands().empty());
  for (const auto& cmd : tracer.commands()) {
    EXPECT_EQ(cmd.stages.TotalNs(), cmd.end_ns - cmd.start_ns)
        << "cmd seq " << cmd.seq;
  }
  EXPECT_EQ(tracer.orphan_spans(), 0u);
}

// --- Exactness: per-stage sum == submit->completion window -----------------

TEST(TraceExactnessTest, AllThreeTransferTechniques) {
  for (auto method : {driver::TransferMethod::kPrp,
                      driver::TransferMethod::kPiggyback,
                      driver::TransferMethod::kHybrid}) {
    KvSsdOptions o = TracedOptions();
    o.driver.method = method;
    auto ssd = KvSsd::Open(o).value();
    DriveMixed(ssd.get(), 30);
    SCOPED_TRACE(driver::MethodName(method));
    ExpectExactAttribution(ssd->tracer());
  }
}

TEST(TraceExactnessTest, MultiQueueConfigs) {
  for (std::uint16_t queues : {std::uint16_t{1}, std::uint16_t{2}}) {
    KvSsdOptions o = TracedOptions();
    o.num_queues = queues;
    auto ssd = KvSsd::Open(o).value();
    DriveMixed(ssd.get(), 20);
    if (queues > 1) {
      auto d1 = ssd->CreateQueueDriver(1, o.driver);
      ASSERT_TRUE(d1.ok());
      Bytes v = workload::MakeValue(300, 4, 99);
      ASSERT_TRUE(d1.value()->Put("q1key", ByteSpan(v)).ok());
    }
    SCOPED_TRACE(queues);
    ExpectExactAttribution(ssd->tracer());
    if (queues > 1) {
      bool saw_q1 = false;
      for (const auto& cmd : ssd->tracer().commands()) {
        saw_q1 |= cmd.queue_id == 1;
      }
      EXPECT_TRUE(saw_q1);
    }
  }
}

// --- Span-tree well-formedness ---------------------------------------------

TEST(TraceWellFormednessTest, SpansNestWithinTheirCommandWindow) {
  auto ssd = KvSsd::Open(TracedOptions()).value();
  DriveMixed(ssd.get(), 30);
  const trace::Tracer& t = ssd->tracer();

  std::map<std::uint64_t, const trace::CommandRecord*> by_seq;
  for (const auto& cmd : t.commands()) by_seq[cmd.seq] = &cmd;

  ASSERT_FALSE(t.spans().empty());
  for (const auto& span : t.spans()) {
    EXPECT_LE(span.start_ns, span.end_ns);
    if (span.cmd_seq == trace::kNoSeq) continue;  // Op-level span.
    auto it = by_seq.find(span.cmd_seq);
    if (it == by_seq.end()) continue;  // Command ring dropped the parent.
    EXPECT_GE(span.start_ns, it->second->start_ns);
    EXPECT_LE(span.end_ns, it->second->end_ns);
    EXPECT_EQ(span.queue_id, it->second->queue_id);
  }
  EXPECT_EQ(t.orphan_spans(), 0u);
  EXPECT_FALSE(t.command_active());
  EXPECT_FALSE(t.op_active());
}

TEST(TraceWellFormednessTest, CommandsNestWithinTheirOp) {
  auto ssd = KvSsd::Open(TracedOptions()).value();
  DriveMixed(ssd.get(), 20);
  const trace::Tracer& t = ssd->tracer();
  std::map<std::uint64_t, const trace::OpRecord*> ops;
  for (const auto& op : t.ops()) ops[op.seq] = &op;
  for (const auto& cmd : t.commands()) {
    ASSERT_NE(cmd.op_seq, trace::kNoSeq) << "command outside any op";
    auto it = ops.find(cmd.op_seq);
    if (it == ops.end()) continue;
    EXPECT_GE(cmd.start_ns, it->second->start_ns);
    EXPECT_LE(cmd.end_ns, it->second->end_ns);
  }
  // Commands are serial within one op, so the summed command windows can
  // never exceed the op window.
  for (const auto& op : t.ops()) {
    EXPECT_LE(op.commands_ns, op.end_ns - op.start_ns)
        << trace::OpTypeName(op.type);
  }
}

// --- Fault path: timeouts and retries are attributed stages ----------------

TEST(TraceFaultPathTest, TimeoutAndRetryBackoffTraced) {
  KvSsdOptions o = TracedOptions();
  o.fault.triggers.push_back({fault::FaultSite::kCommandDrop, 0});
  auto ssd = KvSsd::Open(o).value();
  Bytes v = workload::MakeValue(100, 10, 1);
  ASSERT_TRUE(ssd->Put("retry", ByteSpan(v)).ok());

  const trace::StageBreakdown agg = ssd->tracer().AggregateCommandStages();
  EXPECT_GT(agg.ns[static_cast<int>(Category::kTimeout)], 0u);
  EXPECT_GT(agg.ns[static_cast<int>(Category::kRetryBackoff)], 0u);
  ExpectExactAttribution(ssd->tracer());
}

// --- Deterministic exports -------------------------------------------------

std::pair<std::string, std::string> RunAndExport() {
  KvSsdOptions o = TracedOptions();
  o.num_queues = 2;
  auto ssd = KvSsd::Open(o).value();
  DriveMixed(ssd.get(), 25);
  return {trace::ToChromeTraceJson(ssd->tracer()),
          trace::ToBreakdownCsv(ssd->tracer())};
}

TEST(TraceExportTest, TwoIdenticalRunsExportIdenticalBytes) {
  auto [json1, csv1] = RunAndExport();
  auto [json2, csv2] = RunAndExport();
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(csv1, csv2);
  EXPECT_FALSE(json1.empty());
  EXPECT_NE(csv1.find("cmd_seq,op_seq,op,opcode"), std::string::npos);
}

// --- Sampled tracing (TraceConfig::sample_every) ---------------------------

TEST(TraceSamplingTest, ExactModeExportsAreBitIdenticalToDefault) {
  auto [json_default, csv_default] = RunAndExport();
  KvSsdOptions o = TracedOptions();
  o.num_queues = 2;
  o.trace.sample_every = 1;  // Explicit exact mode.
  auto ssd = KvSsd::Open(o).value();
  DriveMixed(ssd.get(), 25);
  EXPECT_EQ(trace::ToChromeTraceJson(ssd->tracer()), json_default);
  EXPECT_EQ(trace::ToBreakdownCsv(ssd->tracer()), csv_default);
}

TEST(TraceSamplingTest, RecordsEveryNthOpAndCountsTheRest) {
  constexpr std::uint64_t kEvery = 4;
  KvSsdOptions o = TracedOptions();
  o.trace.sample_every = kEvery;
  auto ssd = KvSsd::Open(o).value();
  DriveMixed(ssd.get(), 30);

  const trace::Tracer& tracer = ssd->tracer();
  const std::uint64_t seen = tracer.ops_seen();
  ASSERT_GT(seen, 0u);
  // Ops 0, N, 2N, ... are recorded; everything else is counted out.
  const std::uint64_t expected_recorded = (seen + kEvery - 1) / kEvery;
  EXPECT_EQ(tracer.ops().size() + tracer.dropped_ops(), expected_recorded);
  EXPECT_EQ(tracer.ops_sampled_out(), seen - expected_recorded);
  // Commands and spans of unsampled ops are suppressed with them, so the
  // rings shrink accordingly (every op issues at least one command).
  EXPECT_LT(tracer.commands().size(),
            static_cast<std::size_t>(seen));
}

TEST(TraceSamplingTest, SamplingNeverPerturbsDeviceState) {
  KvSsdStats stats[2];
  for (int pass = 0; pass < 2; ++pass) {
    KvSsdOptions o = TracedOptions();
    o.trace.sample_every = pass == 0 ? 1 : 7;
    auto ssd = KvSsd::Open(o).value();
    DriveMixed(ssd.get(), 30);
    stats[pass] = ssd->GetStats();
  }
  // The sampling decision is a pure counter: virtual time and every device
  // counter are identical in exact and cheap mode.
  EXPECT_EQ(stats[0].elapsed_ns, stats[1].elapsed_ns);
  EXPECT_EQ(stats[0].pcie_h2d_bytes, stats[1].pcie_h2d_bytes);
  EXPECT_EQ(stats[0].nand_pages_programmed, stats[1].nand_pages_programmed);
  EXPECT_EQ(stats[0].commands_submitted, stats[1].commands_submitted);
  EXPECT_EQ(stats[0].device_memcpy_bytes, stats[1].device_memcpy_bytes);
}

TEST(TraceSamplingTest, SampledSubsetMatchesTheExactRun) {
  // Every op the sampled run records must be byte-for-byte present in the
  // exact run's ring: same seq, type, window, and stage attribution.
  std::vector<trace::OpRecord> exact, sampled;
  for (int pass = 0; pass < 2; ++pass) {
    KvSsdOptions o = TracedOptions();
    o.trace.sample_every = pass == 0 ? 1 : 5;
    auto ssd = KvSsd::Open(o).value();
    DriveMixed(ssd.get(), 30);
    ASSERT_EQ(ssd->tracer().dropped_ops(), 0u);
    (pass == 0 ? exact : sampled) =
        std::vector<trace::OpRecord>(ssd->tracer().ops().begin(),
                                     ssd->tracer().ops().end());
  }
  ASSERT_FALSE(sampled.empty());
  ASSERT_LT(sampled.size(), exact.size());
  // Sampled record k is the exact run's op at global index 5k (seqs are
  // assigned per recorded op, so only the position lines up, not the seq).
  for (std::size_t k = 0; k < sampled.size(); ++k) {
    ASSERT_LT(5 * k, exact.size());
    const trace::OpRecord& e = exact[5 * k];
    const trace::OpRecord& s = sampled[k];
    EXPECT_EQ(e.type, s.type) << "sampled op " << k;
    EXPECT_EQ(e.start_ns, s.start_ns) << "sampled op " << k;
    EXPECT_EQ(e.end_ns, s.end_ns) << "sampled op " << k;
    EXPECT_EQ(e.commands_ns, s.commands_ns) << "sampled op " << k;
    EXPECT_EQ(e.stages.TotalNs(), s.stages.TotalNs()) << "sampled op " << k;
  }
}

// --- Zero overhead / zero side effects when disabled -----------------------

TEST(TraceOverheadTest, DisabledTracingRecordsNothingAndMatchesTimings) {
  KvSsdStats stats[2];
  for (int pass = 0; pass < 2; ++pass) {
    KvSsdOptions o = SmallOptions();
    o.trace.enabled = pass == 1;
    auto ssd = KvSsd::Open(o).value();
    DriveMixed(ssd.get(), 30);
    stats[pass] = ssd->GetStats();
    if (pass == 0) {
      EXPECT_TRUE(ssd->tracer().commands().empty());
      EXPECT_TRUE(ssd->tracer().ops().empty());
      EXPECT_TRUE(ssd->tracer().spans().empty());
    } else {
      EXPECT_FALSE(ssd->tracer().commands().empty());
    }
  }
  // Tracing must observe, never perturb: virtual time and every counter
  // are identical with tracing on and off.
  EXPECT_EQ(stats[0].elapsed_ns, stats[1].elapsed_ns);
  EXPECT_EQ(stats[0].pcie_h2d_bytes, stats[1].pcie_h2d_bytes);
  EXPECT_EQ(stats[0].nand_pages_programmed, stats[1].nand_pages_programmed);
  EXPECT_EQ(stats[0].commands_submitted, stats[1].commands_submitted);
  EXPECT_EQ(stats[0].device_memcpy_bytes, stats[1].device_memcpy_bytes);
}

TEST(TraceOverheadTest, RuntimeToggleViaHooks) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  Bytes v = workload::MakeValue(128, 5, 1);
  ASSERT_TRUE(ssd->Put("before", ByteSpan(v)).ok());
  EXPECT_TRUE(ssd->tracer().commands().empty());

  ssd->Hooks().tracer->SetEnabled(true);
  ASSERT_TRUE(ssd->Put("during", ByteSpan(v)).ok());
  EXPECT_EQ(ssd->tracer().ops().size(), 1u);

  ssd->Hooks().tracer->SetEnabled(false);
  ASSERT_TRUE(ssd->Put("after", ByteSpan(v)).ok());
  EXPECT_EQ(ssd->tracer().ops().size(), 1u);
}

// --- Trace-fed metrics -----------------------------------------------------

TEST(TraceMetricsTest, LatencyHistogramsMirrorTheRings) {
  auto ssd = KvSsd::Open(TracedOptions()).value();
  DriveMixed(ssd.get(), 20);
  const auto hists = ssd->metrics().SnapshotHistograms();
  auto cmd_it = hists.find("trace.cmd.latency_ns");
  ASSERT_NE(cmd_it, hists.end());
  EXPECT_EQ(cmd_it->second.count,
            ssd->tracer().commands().size() + ssd->tracer().dropped_commands());
  auto op_it = hists.find("trace.op.latency_ns");
  ASSERT_NE(op_it, hists.end());
  EXPECT_EQ(op_it->second.count,
            ssd->tracer().ops().size() + ssd->tracer().dropped_ops());
  // Per-stage histograms exist for stages that consumed time.
  EXPECT_NE(hists.find("trace.stage.kvs_ns"), hists.end());
}

// --- Introspection API: Inspect() and Hooks() ------------------------------

TEST(InspectTest, SnapshotAgreesWithStatsAndStructure) {
  KvSsdOptions o = SmallOptions();
  o.num_queues = 2;
  o.ftl.reserved_blocks = 4;
  auto ssd = KvSsd::Open(o).value();
  Bytes v = workload::MakeValue(600, 6, 1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ssd->Put("s" + std::to_string(i), ByteSpan(v)).ok());
  }

  const DeviceSnapshot snap = ssd->InspectDevice();
  EXPECT_EQ(snap.stats.values_written, 10u);
  EXPECT_EQ(snap.stats.commands_submitted,
            snap.counters.at("nvme.commands_submitted"));
  ASSERT_EQ(snap.queues.size(), 2u);
  EXPECT_EQ(snap.queues[0].queue_id, 0u);
  EXPECT_GT(snap.queues[0].submitted, 0u);
  EXPECT_EQ(snap.queues[0].inflight, 0u);  // Synchronous API: all reaped.
  EXPECT_EQ(snap.queues[1].submitted, 0u);
  EXPECT_GE(snap.vlog_tail, snap.buffer_window_base);
  EXPECT_EQ(snap.buffer_resident_bytes,
            snap.vlog_tail - snap.buffer_window_base);
  EXPECT_GT(snap.ftl_free_blocks, 0u);
  EXPECT_EQ(snap.ftl_reserve_blocks, 4u);
  // PCIe mirror counters assemble the same totals as the link object.
  EXPECT_EQ(snap.stats.pcie_h2d_bytes, ssd->link().HostToDeviceBytes());
  EXPECT_EQ(snap.stats.mmio_bytes, ssd->link().MmioBytes());
}

TEST(InspectTest, StatsAreMonotoneAcrossPowerCycle) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  Bytes v = workload::MakeValue(2000, 7, 1);
  ASSERT_TRUE(ssd->Put("p", ByteSpan(v)).ok());
  ASSERT_TRUE(ssd->Flush().ok());
  const KvSsdStats before = ssd->GetStats();
  ASSERT_TRUE(ssd->PowerCycle().ok());
  const KvSsdStats after = ssd->GetStats();
  // Registry-backed stats survive the device-DRAM rebuild.
  EXPECT_GE(after.nand_pages_programmed, before.nand_pages_programmed);
  EXPECT_EQ(after.values_written, before.values_written);
  EXPECT_EQ(after.vlog_pages_flushed, before.vlog_pages_flushed);
}

TEST(HooksTest, ExposesTheMutationPoints) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  KvSsd::TestHooks hooks = ssd->Hooks();
  ASSERT_NE(hooks.clock, nullptr);
  ASSERT_NE(hooks.transport, nullptr);
  ASSERT_NE(hooks.fault_plan, nullptr);
  ASSERT_NE(hooks.driver, nullptr);
  ASSERT_NE(hooks.tracer, nullptr);
  EXPECT_EQ(hooks.clock, &ssd->clock());
  Bytes v = workload::MakeValue(64, 8, 1);
  EXPECT_TRUE(hooks.driver->Put("via-hooks", ByteSpan(v)).ok());
  EXPECT_TRUE(ssd->Get("via-hooks").ok());
}

// --- Batch API symmetry (GetBatch / DeleteBatch) ---------------------------

TEST(BatchApiTest, GetBatchReturnsOneResultPerKeyInOrder) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  Bytes small = workload::MakeValue(40, 9, 1);
  Bytes large = workload::MakeValue(5000, 9, 2);
  ASSERT_TRUE(ssd->Put("a", ByteSpan(small)).ok());
  ASSERT_TRUE(ssd->Put("b", ByteSpan(large)).ok());

  const std::vector<std::string> keys = {"a", "missing", "b"};
  auto r = ssd->GetBatch(keys);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 3u);
  EXPECT_TRUE(r.value()[0].found);
  EXPECT_EQ(r.value()[0].value, small);
  EXPECT_FALSE(r.value()[1].found);
  EXPECT_TRUE(r.value()[1].value.empty());
  EXPECT_TRUE(r.value()[2].found);
  EXPECT_EQ(r.value()[2].value, large);
}

TEST(BatchApiTest, GetBatchUsesOneCommandAfterRenegotiation) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  // Values far larger than the first-guess receive buffer force the
  // kBufferTooSmall renegotiation round trip.
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) {
    const std::string key = "big" + std::to_string(i);
    Bytes v = workload::MakeValue(6000, 12, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok());
    keys.push_back(key);
  }
  const std::uint64_t before = ssd->GetStats().commands_submitted;
  auto r = ssd->GetBatch(keys);
  ASSERT_TRUE(r.ok());
  for (const auto& res : r.value()) EXPECT_TRUE(res.found);
  // One undersized attempt + one sized retry at most.
  EXPECT_LE(ssd->GetStats().commands_submitted - before, 2u);
}

TEST(BatchApiTest, DeleteBatchSkipsAbsentKeysAndCounts) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  Bytes v = workload::MakeValue(64, 13, 1);
  ASSERT_TRUE(ssd->Put("d1", ByteSpan(v)).ok());
  ASSERT_TRUE(ssd->Put("d2", ByteSpan(v)).ok());

  const std::vector<std::string> keys = {"d1", "ghost", "d2"};
  auto removed = ssd->DeleteBatch(keys);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), 2u);
  EXPECT_TRUE(ssd->Get("d1").status().IsNotFound());
  EXPECT_TRUE(ssd->Get("d2").status().IsNotFound());
}

TEST(BatchApiTest, EmptyAndInvalidBatches) {
  auto ssd = KvSsd::Open(SmallOptions()).value();
  const std::vector<std::string> none;
  auto g = ssd->GetBatch(none);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g.value().empty());
  auto d = ssd->DeleteBatch(none);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), 0u);
  const std::vector<std::string> bad = {""};
  EXPECT_FALSE(ssd->GetBatch(bad).ok());
  EXPECT_FALSE(ssd->DeleteBatch(bad).ok());
}

TEST(BatchApiTest, BatchOpsAreTraced) {
  auto ssd = KvSsd::Open(TracedOptions()).value();
  ASSERT_TRUE(ssd->PutBatch({{"x", Bytes(32, 1)}, {"y", Bytes(32, 2)}}).ok());
  const std::vector<std::string> keys = {"x", "y"};
  ASSERT_TRUE(ssd->GetBatch(keys).ok());
  ASSERT_TRUE(ssd->DeleteBatch(keys).ok());
  bool saw[3] = {false, false, false};
  for (const auto& op : ssd->tracer().ops()) {
    saw[0] |= op.type == trace::OpType::kPutBatch;
    saw[1] |= op.type == trace::OpType::kGetBatch;
    saw[2] |= op.type == trace::OpType::kDeleteBatch;
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
  EXPECT_TRUE(saw[2]);
  ExpectExactAttribution(ssd->tracer());
}

}  // namespace
}  // namespace bandslim
