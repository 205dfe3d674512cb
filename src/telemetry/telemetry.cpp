#include "telemetry/telemetry.h"

#include <string>

#include "lsm/lsm_tree.h"

namespace bandslim::telemetry {

namespace {

const char* PcieClassName(pcie::TrafficClass cls) {
  switch (cls) {
    case pcie::TrafficClass::kMmio: return "mmio";
    case pcie::TrafficClass::kCommandFetch: return "cmd_fetch";
    case pcie::TrafficClass::kDmaData: return "dma_data";
    case pcie::TrafficClass::kCompletion: return "completion";
  }
  return "?";
}

}  // namespace

Sampler::Sampler(const sim::VirtualClock* clock, const TimelineConfig& config)
    : Timeline(clock, config, "bandslim_telemetry_samples_total",
               "Samples emitted by the virtual-time sampler.") {}

void Sampler::Collect(SampleBuilder& b) {
  // --- Metrics registry: every named counter, verbatim -------------------
  std::uint64_t cum_value_bytes = 0, cum_pages = 0;
  std::uint64_t d_ops = 0, d_value_bytes = 0, d_pages = 0, d_timeouts = 0,
                d_retries = 0, d_prog_fail = 0, d_ecc = 0;
  std::uint64_t d_stalls = 0, d_compactions = 0, d_comp_bytes = 0;
  if (src_.metrics != nullptr) {
    for (const auto& [name, value] : src_.metrics->SnapshotCounters()) {
      const std::uint64_t delta = b.Cumulative(name, value);
      if (name == "nvme.commands_submitted") {
        d_ops = delta;
      } else if (name == "controller.value_bytes_written") {
        cum_value_bytes = value;
        d_value_bytes = delta;
      } else if (name == "nand.pages_programmed") {
        cum_pages = value;
        d_pages = delta;
      } else if (name == "nvme.timeouts") {
        d_timeouts = delta;
      } else if (name == "nvme.retries") {
        d_retries = delta;
      } else if (name == "nand.program_failures") {
        d_prog_fail = delta;
      } else if (name == "nand.ecc_corrections") {
        d_ecc = delta;
      } else if (name == "lsm.memtable_stalls") {
        d_stalls = delta;
      } else if (name == "lsm.compactions") {
        d_compactions = delta;
      } else if (name == "lsm.compaction_bytes_written") {
        d_comp_bytes = delta;
      }
    }
  }

  // --- PCIe link: direction totals and per-class transaction counts ------
  std::uint64_t cum_h2d = 0, d_h2d = 0, d_d2h = 0;
  if (src_.link != nullptr) {
    cum_h2d = src_.link->HostToDeviceBytes();
    d_h2d = b.Cumulative("pcie.h2d_bytes", cum_h2d);
    d_d2h = b.Cumulative("pcie.d2h_bytes", src_.link->DeviceToHostBytes());
    for (int c = 0; c < pcie::kNumTrafficClasses; ++c) {
      const auto cls = static_cast<pcie::TrafficClass>(c);
      const std::string base = std::string("pcie.") + PcieClassName(cls);
      b.Cumulative(base + ".h2d_txns",
                   src_.link->TransactionsOf(cls,
                                             pcie::Direction::kHostToDevice));
      // Per-class byte rates: the cumulative series is the registry mirror
      // snapshotted above; the current value comes straight from the link
      // (identical by construction).
      const std::uint64_t cls_bytes =
          src_.link->BytesOf(cls, pcie::Direction::kHostToDevice);
      b.Set("rate." + base + ".h2d_bytes_per_sec",
            PerSecond(cls_bytes - b.Previous(base + ".h2d_bytes"),
                      b.interval_ns()));
    }
  }

  // --- NVMe queues --------------------------------------------------------
  if (src_.transport != nullptr) {
    for (const auto& q : src_.transport->QueueInfos()) {
      const std::string base = "queue" + std::to_string(q.queue_id);
      b.Set("gauge." + base + ".depth", q.depth);
      b.Set("gauge." + base + ".inflight", q.inflight);
      b.Cumulative(base + ".submitted", q.submitted);
    }
  }

  // --- NAND channel/way busy time ----------------------------------------
  if (src_.nand != nullptr) {
    const nand::NandGeometry& g = src_.nand->geometry();
    for (std::uint32_t c = 0; c < g.channels; ++c) {
      const std::uint64_t d_busy = b.Cumulative(
          "nand.ch" + std::to_string(c) + ".busy_ns",
          static_cast<std::uint64_t>(src_.nand->channel_busy_ns(c)));
      b.Set("gauge.nand.ch" + std::to_string(c) + ".busy_permille",
            RatioMilli(d_busy, b.interval_ns()));
    }
    for (std::uint64_t d = 0; d < g.dies(); ++d) {
      b.Cumulative("nand.die" + std::to_string(d) + ".busy_ns",
                   static_cast<std::uint64_t>(src_.nand->die_busy_ns(d)));
    }
  }

  // --- FTL block accounting and GC activity ------------------------------
  if (src_.ftl != nullptr) {
    b.Set("gauge.ftl.free_blocks", src_.ftl->free_blocks());
    b.Set("gauge.ftl.reserve_blocks", src_.ftl->reserve_remaining());
    b.Set("gauge.ftl.bad_blocks", src_.ftl->bad_blocks());
    b.Set("gauge.ftl.mapped_pages", src_.ftl->mapped_pages());
    b.Cumulative("ftl.gc_runs", src_.ftl->gc_runs());
  }

  // --- Page buffer window -------------------------------------------------
  if (src_.buffer != nullptr) {
    b.Set("gauge.buffer.wp", src_.buffer->wp());
    b.Set("gauge.buffer.window_base", src_.buffer->window_base_addr());
    b.Set("gauge.buffer.resident_bytes",
          src_.buffer->wp() - src_.buffer->window_base_addr());
    b.Set("gauge.buffer.dma_frontier", src_.buffer->dma_frontier());
    b.Set("gauge.buffer.dlt_pending", src_.buffer->dlt().size());
  }

  // --- LSM / compaction state ---------------------------------------------
  if (src_.lsm != nullptr) {
    b.Set("gauge.lsm.memtable_bytes", src_.lsm->memtable_bytes());
    b.Set("gauge.lsm.memtable_entries", src_.lsm->memtable_entries());
    b.Set("gauge.lsm.pending_trim_tables", src_.lsm->pending_trim_tables());
    b.Set("gauge.lsm.compaction_debt_bytes", src_.lsm->CompactionDebtBytes());
    b.Set("gauge.lsm.flush_in_progress",
          src_.lsm->flush_in_progress() ? 1 : 0);
    b.Set("gauge.lsm.compaction_in_progress",
          src_.lsm->compaction_in_progress() ? 1 : 0);
    for (int l = 0; l < src_.lsm->level_count(); ++l) {
      const std::string base = "gauge.lsm.l" + std::to_string(l);
      b.Set(base + ".tables", src_.lsm->TableCount(l));
      b.Set(base + ".bytes", src_.lsm->LevelBytes(l));
    }
  }

  // --- Per-interval histogram percentiles ---------------------------------
  // Only histograms that have ever recorded a value emit series (the tracer
  // registers its full taxonomy up front; exports stay compact when tracing
  // is off). An interval with no recordings emits zeros consistently —
  // QuantileFromBuckets is 0 on an all-zero delta.
  if (src_.metrics != nullptr) {
    for (const auto& [name, cur] : src_.metrics->SnapshotHistogramBuckets()) {
      if (cur.count != 0) b.Histogram(name, cur);
    }
  }

  // --- Per-interval deltas and fixed-point rates --------------------------
  b.Set("delta.ops", d_ops);
  b.Set("delta.pcie.h2d_bytes", d_h2d);
  b.Set("delta.pcie.d2h_bytes", d_d2h);
  b.Set("delta.value_bytes", d_value_bytes);
  b.Set("delta.nand.pages_programmed", d_pages);
  b.Set("delta.nvme.timeouts", d_timeouts);
  b.Set("delta.nvme.retries", d_retries);
  b.Set("delta.nand.program_failures", d_prog_fail);
  b.Set("delta.nand.ecc_corrections", d_ecc);
  b.Set("delta.lsm.memtable_stalls", d_stalls);
  b.Set("delta.lsm.compactions", d_compactions);
  b.Set("delta.lsm.compaction_bytes_written", d_comp_bytes);

  b.Set("rate.ops_per_sec_milli", PerSecondMilli(d_ops, b.interval_ns()));
  b.Set("rate.pcie.h2d_bytes_per_sec", PerSecond(d_h2d, b.interval_ns()));
  b.Set("rate.pcie.d2h_bytes_per_sec", PerSecond(d_d2h, b.interval_ns()));
  b.Set("rate.taf_milli", RatioMilli(d_h2d, d_value_bytes));
  const std::size_t page_size =
      src_.nand != nullptr ? src_.nand->geometry().page_size : kNandPageSize;
  b.Set("rate.waf_milli", RatioMilli(d_pages * page_size, d_value_bytes));
  b.Set("total.taf_milli", RatioMilli(cum_h2d, cum_value_bytes));
  b.Set("total.waf_milli", RatioMilli(cum_pages * page_size, cum_value_bytes));
}

}  // namespace bandslim::telemetry
