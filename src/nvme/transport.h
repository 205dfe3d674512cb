// NvmeTransport couples the host driver to the device controller through
// NVMe queue pairs, accounting every PCIe transaction the NVMe protocol
// generates (Section 4.2):
//   * an 8 B doorbell MMIO write per submission,
//   * a 64 B command fetch (plus PRP-list page fetch for >2-page payloads),
//   * a 16 B completion entry,
// and one synchronous command round trip of latency — the passthrough path
// on the testbed "mandatorily handles only one command at any given time".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_plan.h"
#include "nvme/command.h"
#include "pcie/link.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "stats/metrics.h"
#include "trace/trace.h"

// Forward-declared: telemetry.h includes this header, so the transport only
// holds pointers and the .cpp includes the full definitions.
namespace bandslim::telemetry {
class EventLog;
class Sampler;
}  // namespace bandslim::telemetry

namespace bandslim::nvme {

// Implemented by the device-side controller. `queue_id` identifies the
// submission queue a command was fetched from — piggybacked fragment
// streams are FIFO *per queue* (Section 3.3.1), so the controller keys its
// reassembly state by it.
class DeviceHandler {
 public:
  virtual ~DeviceHandler() = default;
  virtual CqEntry Handle(const NvmeCommand& cmd, std::uint16_t queue_id) = 0;
};

class NvmeTransport {
 public:
  NvmeTransport(sim::VirtualClock* clock, const sim::CostModel* cost,
                pcie::PcieLink* link, stats::MetricsRegistry* metrics,
                std::uint16_t num_queues = 1,
                fault::FaultPlan* fault_plan = nullptr,
                trace::Tracer* tracer = nullptr);

  void AttachDevice(DeviceHandler* handler) { device_ = handler; }

  std::uint16_t num_queues() const {
    return static_cast<std::uint16_t>(queues_.size());
  }

  // Synchronous submit on queue 0 (the paper's passthrough path).
  CqEntry Submit(const NvmeCommand& cmd) { return Submit(0, cmd); }
  // Synchronous submit on a specific queue pair: a pipelined batch of one.
  CqEntry Submit(std::uint16_t queue_id, const NvmeCommand& cmd) {
    CqEntry cqe;
    SubmitBatch(queue_id, std::span<const NvmeCommand>(&cmd, 1), &cqe);
    return cqe;
  }

  // Pipelined batch submit (extension beyond the paper's serialized
  // passthrough, Section 4.2): the doorbell rings ONCE for the whole batch;
  // the first command pays the full round trip and each subsequent one only
  // the device-side cadence. Commands execute in order, so multi-command
  // values stay correct. Clears `*out` and fills it with one completion per
  // command (a single kBusy completion when admission sheds the batch),
  // reusing the vector's capacity.
  void SubmitPipelined(std::uint16_t queue_id, std::span<const NvmeCommand> cmds,
                       std::vector<CqEntry>* out) {
    out->resize(cmds.size());
    out->resize(SubmitBatch(queue_id, cmds, out->data()));
  }

  std::uint64_t commands_submitted() const { return commands_submitted_; }
  // Host-watchdog expirations (lost commands) and bounded resubmissions
  // performed because of them; zero without a fault plan.
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t retries() const { return retries_; }

  // Multi-queue-pair timing: when on, submissions from different queue
  // pairs contend only on the controller's shared command fetch/interpret
  // unit (an absolute-time busy timeline, cmd_pipelined_ns per command)
  // instead of serializing whole round trips. A single stream sees
  // identical timing either way because the round trip dominates the
  // fetch cadence; the multi-stream workload executor turns this on.
  void SetParallelArbitration(bool on) { parallel_arbitration_ = on; }
  bool parallel_arbitration() const { return parallel_arbitration_; }

  // Submission-queue depth reported for every queue pair. The synchronous
  // path keeps at most one command in flight, so nothing ever fills it.
  static constexpr std::uint16_t kQueueDepth = 64;

  // Read-only per-queue-pair state for DeviceSnapshot.
  struct QueueInfo {
    std::uint16_t queue_id = 0;
    std::uint16_t depth = 0;
    std::uint64_t submitted = 0;
    std::uint64_t inflight = 0;
  };
  std::size_t num_queue_pairs() const { return queues_.size(); }
  QueueInfo QueueInfoAt(std::uint16_t queue_id) const;

  // Telemetry taps (optional, null = untapped). The transport is the one
  // deterministic choke point every host op funnels through — including
  // sharded-runner drivers that bypass KvSsd's public API — so the sampler
  // polls here after every command completes, and the event log records
  // watchdog timeouts and retry backoffs as they happen.
  void SetEventLog(telemetry::EventLog* log) { event_log_ = log; }
  void SetSampler(telemetry::Sampler* sampler) { sampler_ = sampler; }

  // --- per-queue admission control (closed-loop load shedding) ----------
  // With `credits` > 0, each head-of-op submission on `queue_id` consumes
  // one credit; at zero credits the transport sheds the submission with a
  // host-synthesized kBusy completion (nothing crosses PCIe) after waiting
  // out `busy_backoff_ns` of host time — the shed is not free, otherwise a
  // rejected caller could livelock retrying at the same virtual instant.
  // Trailing kKvTransfer fragments are NEVER shed: the head write already
  // consumed the credit and tearing a fragment stream would corrupt
  // reassembly. `credits` == 0 disables shedding on the queue. The
  // controller refills every enabled queue to its configured budget once
  // per control tick via RefillQueueCredits().
  void SetAdmissionControl(std::uint16_t queue_id, std::uint32_t credits,
                           sim::Nanoseconds busy_backoff_ns);
  void RefillQueueCredits();
  std::uint64_t busy_rejections() const { return busy_rejections_; }

 private:
  struct QueuePair {
    // No SQ/CQ ring is kept: each command is fetched and completed before
    // the next is issued. CIDs are per submission queue in NVMe; with one
    // command in flight a wrapping counter never reuses a live CID.
    std::uint16_t next_cid = 0;
    std::uint64_t inflight_count = 0;
    std::uint64_t submitted = 0;
    // Admission control (disabled unless SetAdmissionControl was called).
    std::uint32_t admission_budget = 0;  // 0 = shedding disabled.
    std::uint32_t admission_credits = 0;
    sim::Nanoseconds busy_backoff_ns = 0;
  };

  // Submits `cmds` (every Submit/SubmitPipelined call lands here) and
  // writes the completions to `out`, which has room for cmds.size();
  // returns how many were written: cmds.size(), or 1 when shed.
  std::size_t SubmitBatch(std::uint16_t queue_id,
                          std::span<const NvmeCommand> cmds, CqEntry* out);
  // Allocates the queue's next CID and marks it in flight.
  static std::uint16_t AllocateCid(QueuePair* qp);
  static void ReleaseCid(QueuePair* qp) { --qp->inflight_count; }
  // Charges one command's latency: a full round trip serialized on the
  // clock (sync), or arbitration through the shared fetch unit (parallel).
  void ChargeCommand(bool first_in_batch);
  // One command through the queue pair, including the watchdog/retry
  // loop for injected command drops. The caller records the doorbell for
  // the first attempt; resubmissions ring their own.
  CqEntry SubmitOne(QueuePair& qp, std::uint16_t queue_id,
                    const NvmeCommand& cmd, bool first_in_batch);
  // True when admission control sheds this submission; fills `*rejected`
  // with the synthesized kBusy completion and charges the backoff wait.
  bool ShedIfOutOfCredits(QueuePair* qp, const NvmeCommand& cmd,
                          CqEntry* rejected);

  sim::VirtualClock* clock_;
  const sim::CostModel* cost_;
  pcie::PcieLink* link_;
  fault::FaultPlan* fault_plan_;  // Optional; null = lossless link.
  trace::Tracer* tracer_;         // Optional; null = untraced.
  telemetry::EventLog* event_log_ = nullptr;  // Optional; null = untapped.
  telemetry::Sampler* sampler_ = nullptr;     // Optional; null = unsampled.
  DeviceHandler* device_ = nullptr;
  std::vector<QueuePair> queues_;
  bool parallel_arbitration_ = false;
  sim::Nanoseconds fetch_busy_until_ = 0;
  std::uint64_t commands_submitted_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t busy_rejections_ = 0;
  stats::MetricsRegistry* metrics_;
  stats::Counter* submit_counter_;
  stats::Counter* timeout_counter_;
  stats::Counter* retry_counter_;
  // Registered lazily on the first SetAdmissionControl enable: a counter
  // that exists only when the feature is on keeps the Prometheus export of
  // control-free runs byte-identical to builds without this feature.
  stats::Counter* busy_counter_ = nullptr;
};

}  // namespace bandslim::nvme
