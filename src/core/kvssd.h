// bandslim::KvSsd — the public API. Opening a device assembles the whole
// simulated stack of Figure 5(a):
//
//   host:   KvDriver ── NvmeTransport (SQ/CQ + doorbells over PcieLink)
//   device: KvController ── DmaEngine
//                        ── NandPageBuffer (packing policies + DLT) ── vLog
//                        ── LsmTree (MemTable / SSTables)           ── FTL ── NAND
//
// All timing is virtual (sim::VirtualClock); all PCIe/NAND activity is
// accounted; a run is deterministic for a given option set.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "buffer/page_buffer.h"
#include "common/status.h"
#include "control/control_loop.h"
#include "control/policy.h"
#include "controller/controller.h"
#include "core/kv_store.h"
#include "core/snapshot.h"
#include "dma/dma_engine.h"
#include "driver/driver.h"
#include "fault/fault_plan.h"
#include "ftl/ftl.h"
#include "lsm/lsm_tree.h"
#include "nand/geometry.h"
#include "nand/nand_flash.h"
#include "nvme/host_memory.h"
#include "nvme/transport.h"
#include "pcie/link.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "stats/metrics.h"
#include "telemetry/telemetry.h"
#include "trace/trace.h"
#include "vlog/vlog.h"

namespace bandslim {

struct KvSsdOptions {
  driver::DriverConfig driver;
  buffer::BufferConfig buffer;
  lsm::LsmConfig lsm;
  nand::NandGeometry geometry;
  ftl::FtlConfig ftl;
  sim::CostModel cost;
  dma::DmaConfig dma;
  controller::ControllerConfig controller;
  // Deterministic fault injection (src/fault). The default config is inert:
  // no PRNG draws, no timing perturbation, bit-identical fig* outputs.
  fault::FaultConfig fault;
  // Per-command tracing (src/trace). Disabled by default: the stack then
  // pays one branch per instrumentation site and records nothing.
  trace::TraceConfig trace;
  // Continuous telemetry (src/telemetry): virtual-time periodic sampling,
  // structured event log, and watchdog alert rules. Disabled by default —
  // the stack then pays one branch per poll site, records nothing, and
  // simulated outcomes are bit-identical to a telemetry-free build.
  telemetry::TimelineConfig telemetry;
  // Closed-loop adaptive control (src/control): a deterministic controller
  // ticked on the telemetry sample grid that actuates driver thresholds,
  // GC pacing, flush admission, and per-SQ credits. Requires telemetry to
  // be enabled (the sample grid is its clock). Disabled by default — the
  // null policy builds no controller and runs bit-identical to a build
  // without the subsystem.
  control::ControlPolicy control;
  // Keep value payloads in the NAND model so GET returns real bytes. Turn
  // off for multi-GiB write-only benches (reads then return zeros).
  bool retain_payloads = true;
  std::uint16_t queue_depth = 64;
  // NVMe submission/completion queue pairs. The built-in driver binds to
  // queue 0; CreateQueueDriver() attaches further drivers to other queues.
  std::uint16_t num_queues = 1;
};

// KvSsdStats and DeviceSnapshot moved to core/snapshot.h (re-exported via
// core/kv_store.h) so the abstract KvStore interface can speak in those
// types without depending on the concrete device.

class KvSsd : public KvStore {
 public:
  static Result<std::unique_ptr<KvSsd>> Open(const KvSsdOptions& options = {});
  ~KvSsd() override;

  // --- KV API (the KvStore interface) --------------------------------------
  // The string_view Put and initializer_list PutBatch conveniences come
  // from the base class and forward to the virtual span overloads.
  using KvStore::Put;
  using KvStore::PutBatch;
  Status Put(std::string_view key, ByteSpan value) override;
  // Host-side batching comparator (Dotori/KV-CSD style, Section 1). One
  // command carries the whole batch; see KvDriver for the trade-off notes.
  Status PutBatch(std::span<const driver::KvDriver::KvPair> batch) override;
  // Bulk GET: one result per key, in key order (absent keys -> !found).
  Result<std::vector<driver::KvDriver::BatchGetResult>> GetBatch(
      std::span<const std::string> keys) override;
  // Bulk DELETE: removes every present key (absent keys are skipped, not an
  // error) and returns how many were actually removed.
  Result<std::uint32_t> DeleteBatch(std::span<const std::string> keys) override;
  Result<Bytes> Get(std::string_view key) override;
  // Allocation-free GET: fills `*value` in place, reusing its capacity
  // (see driver::KvDriver::GetInto).
  Status GetInto(std::string_view key, Bytes* value) override;
  Status Delete(std::string_view key) override;
  Result<std::uint32_t> Exists(std::string_view key);
  // Drains the NAND page buffer and checkpoints the LSM-tree manifest.
  Status Flush() override;
  Result<driver::KvDriver::Iterator> Seek(std::string_view from);

  // --- Maintenance / fault injection ---------------------------------------
  // Relocates live values out of the oldest vLog segment (log cleaning).
  Result<std::uint64_t> CollectVlogGarbage();
  // Simulates power loss and firmware reboot: device DRAM state (MemTable,
  // window bookkeeping) is discarded and rebuilt from the last checkpoint
  // (Flush()). Data PUT after the last Flush is lost by contract.
  Status PowerCycle();
  // Arms the fault plan's power-loss latch: the first device operation at or
  // after `t` (virtual time) fails, and everything after it keeps failing —
  // in-flight DMA and flush state is effectively dropped mid-stream.
  void CrashAt(sim::Nanoseconds t) { fault_plan_.ArmCrash(t); }
  // Re-energizes a crashed device and remounts from the last checkpoint,
  // then verifies the recovered mapping: every live value reference must lie
  // entirely below the checkpointed vLog tail, so no GET can ever observe a
  // torn or partially flushed value. Returns kCorruption if any does.
  Status Recover();

  // --- Introspection --------------------------------------------------------
  // One-call observation point: everything a test, bench or operator
  // dashboard needs, as plain values, for THIS device.
  DeviceSnapshot InspectDevice() const;
  // In-place variant: refills `*out` reusing its vectors, maps and strings.
  // Steady state — no new counters, rules, queues or LSM levels since the
  // last call on the same snapshot — performs zero heap allocations, so a
  // sampling loop can Inspect every interval for free.
  void InspectDeviceInto(DeviceSnapshot* out) const;
  // KvStore view of the same data: a one-shard StoreSnapshot wrapping
  // InspectDevice(), so topology-neutral callers aggregate uniformly.
  StoreSnapshot Inspect() const override;
  void InspectInto(StoreSnapshot* out) const override;
  KvSsdStats GetStats() const override;
  sim::Nanoseconds Now() const override { return clock_.Now(); }
  const sim::VirtualClock& clock() const { return clock_; }
  const pcie::PcieLink& link() const { return link_; }
  const stats::MetricsRegistry& metrics() const { return metrics_; }
  // Per-command trace sink (records only while options().trace.enabled or
  // Hooks().tracer->SetEnabled(true)); feed to trace::ToChromeTraceJson /
  // trace::ToBreakdownCsv for export.
  const trace::Tracer& tracer() const { return tracer_; }
  // Telemetry sample stream / event log / watchdog (records only while
  // options().telemetry.enabled); feed to telemetry::ToPrometheusText /
  // ToJsonl / ToTimeSeriesCsv for export. Call Hooks().sampler->Finalize()
  // before exporting so the closing sample reconciles with GetStats().
  const telemetry::Sampler& telemetry() const { return *sampler_; }
  // The closed-loop controller (null unless options().control.enabled and
  // telemetry is on); its actuation log is the control-side export.
  const control::LoopController* control() const {
    return loop_controller_.get();
  }
  const KvSsdOptions& options() const { return options_; }

  // Narrow escape hatch for tests and benches that must *mutate* device
  // internals: time-frame juggling (multi-queue runner), arbitration
  // toggles, fault-plan arming, direct driver calls, trace control.
  // Production code should need none of these.
  struct TestHooks {
    sim::VirtualClock* clock = nullptr;
    nvme::NvmeTransport* transport = nullptr;
    fault::FaultPlan* fault_plan = nullptr;
    driver::KvDriver* driver = nullptr;  // The built-in queue-0 driver.
    trace::Tracer* tracer = nullptr;
    telemetry::Sampler* sampler = nullptr;
    // Mutable registry access: the attribution plane caches stable Counter*
    // via the find-or-create GetCounter path (it only ever reads them).
    stats::MetricsRegistry* metrics = nullptr;
  };
  TestHooks Hooks();

  // Attaches an additional host driver bound to `queue_id` (must be
  // < options().num_queues). Lives as long as the device.
  Result<driver::KvDriver*> CreateQueueDriver(std::uint16_t queue_id,
                                              driver::DriverConfig config = {});

 private:
  explicit KvSsd(const KvSsdOptions& options);
  void AssembleDevice(std::uint64_t vlog_start_lpn);
  // (Re)binds the sampler's observation points; the buffer pointer changes
  // whenever AssembleDevice rebuilds the vLog.
  void BindTelemetry();
  // (Re)binds the controller's actuators (the LSM is rebuilt on PowerCycle)
  // and re-derives every control setting from the policy base.
  void BindControl();

  KvSsdOptions options_;
  stats::MetricsRegistry metrics_;
  sim::VirtualClock clock_;
  trace::Tracer tracer_;  // Shared sink for every layer of the stack.
  pcie::PcieLink link_;
  nvme::HostMemory host_memory_;
  fault::FaultPlan fault_plan_;  // Shared by transport, DMA, and NAND.
  // Owns the event log and watchdog; components hold pointers into it, so
  // it outlives (is declared before) every component below.
  std::unique_ptr<telemetry::Sampler> sampler_;
  std::unique_ptr<nvme::NvmeTransport> transport_;
  std::unique_ptr<dma::DmaEngine> dma_;
  std::unique_ptr<nand::NandFlash> nand_;
  std::unique_ptr<ftl::PageFtl> ftl_;
  std::unique_ptr<vlog::VLog> vlog_;
  std::unique_ptr<lsm::LsmTree> lsm_;
  std::unique_ptr<controller::KvController> controller_;
  std::unique_ptr<driver::KvDriver> driver_;
  // Distinct from `controller_` (the device-side command handler): this is
  // the host-visible closed-loop tuner. Null when control is disabled.
  std::unique_ptr<control::LoopController> loop_controller_;
  std::vector<std::unique_ptr<driver::KvDriver>> extra_drivers_;
};

}  // namespace bandslim
