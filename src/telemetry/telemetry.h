// Continuous device telemetry (DESIGN.md 2.4): the timeline source over the
// assembled device. Every sample snapshots the metrics registry plus live
// component state — PCIe per-class byte/transaction counters, NAND
// per-channel/way busy time, FTL block accounting and GC activity, per-queue
// depth/inflight, page-buffer window occupancy, LSM/compaction state,
// fault/retry/timeout counters — and derives per-interval deltas and
// fixed-point rate gauges (bytes/s, ops/s in milli-units, instantaneous
// TAF/WAF x1000), so the paper's rates-over-time curves can be produced from
// one run. The grid, ring, exports and publication are the Timeline's
// (telemetry/timeline.h); Poll() runs after every device command and
// host-level op.
#pragma once

#include <memory>

#include "buffer/page_buffer.h"
#include "ftl/ftl.h"
#include "nand/nand_flash.h"
#include "nvme/transport.h"
#include "pcie/link.h"
#include "sim/clock.h"
#include "stats/metrics.h"
#include "telemetry/timeline.h"

namespace bandslim::lsm {
class LsmTree;
}

namespace bandslim::telemetry {

class Sampler : public Timeline {
 public:
  // What one sample reads. All pointers are observed, never mutated;
  // `buffer` is re-bound after PowerCycle() reassembles the device.
  struct Sources {
    const stats::MetricsRegistry* metrics = nullptr;
    const pcie::PcieLink* link = nullptr;
    const nvme::NvmeTransport* transport = nullptr;
    const nand::NandFlash* nand = nullptr;
    const ftl::PageFtl* ftl = nullptr;
    const buffer::NandPageBuffer* buffer = nullptr;
    const lsm::LsmTree* lsm = nullptr;
  };

  Sampler(const sim::VirtualClock* clock, const TimelineConfig& config);
  Sampler(Sampler&&) noexcept;
  ~Sampler() override;

  // (Re)binds the observation points; the first bind anchors the interval
  // grid at the current virtual time.
  void Bind(const Sources& sources) {
    src_ = sources;
    Anchor();
  }

 private:
  // Every series this sampler emits, resolved once (telemetry.cpp).
  struct SeriesPlan;

  void Collect(SampleBuilder& b) override;

  Sources src_;
  std::unique_ptr<SeriesPlan> plan_;
};

}  // namespace bandslim::telemetry
