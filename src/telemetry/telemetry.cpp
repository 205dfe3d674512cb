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

struct Sampler::SeriesPlan {
  struct PcieClass {
    SeriesSlot h2d_txns, h2d_bytes, h2d_bytes_per_sec;
  };
  struct Queue {
    SeriesSlot depth, inflight, submitted;
  };
  struct Channel {
    SeriesSlot busy_ns, busy_permille;
  };
  struct Level {
    SeriesSlot tables, bytes;
  };

  SeriesPlan() {
    for (int c = 0; c < pcie::kNumTrafficClasses; ++c) {
      const std::string base =
          std::string("pcie.") +
          PcieClassName(static_cast<pcie::TrafficClass>(c));
      pcie_class[c] = {SeriesSlot(base + ".h2d_txns"),
                       SeriesSlot(base + ".h2d_bytes"),
                       SeriesSlot("rate." + base + ".h2d_bytes_per_sec")};
    }
  }

  RegistryPlan registry{/*lifetime=*/false};

  SeriesSlot pcie_h2d{"pcie.h2d_bytes"}, pcie_d2h{"pcie.d2h_bytes"};
  std::array<PcieClass, pcie::kNumTrafficClasses> pcie_class;
  // Indexed by queue id, channel, die and LSM level; grown on first use.
  std::vector<Queue> queues;
  std::vector<Channel> channels;
  std::vector<SeriesSlot> dies;
  std::vector<Level> levels;

  SeriesSlot ftl_free{"gauge.ftl.free_blocks"},
      ftl_reserve{"gauge.ftl.reserve_blocks"},
      ftl_bad{"gauge.ftl.bad_blocks"}, ftl_mapped{"gauge.ftl.mapped_pages"},
      ftl_gc_runs{"ftl.gc_runs"};
  SeriesSlot buf_wp{"gauge.buffer.wp"},
      buf_window_base{"gauge.buffer.window_base"},
      buf_resident{"gauge.buffer.resident_bytes"},
      buf_dma_frontier{"gauge.buffer.dma_frontier"},
      buf_dlt_pending{"gauge.buffer.dlt_pending"};
  SeriesSlot lsm_memtable_bytes{"gauge.lsm.memtable_bytes"},
      lsm_memtable_entries{"gauge.lsm.memtable_entries"},
      lsm_pending_trim{"gauge.lsm.pending_trim_tables"},
      lsm_debt{"gauge.lsm.compaction_debt_bytes"},
      lsm_flush{"gauge.lsm.flush_in_progress"},
      lsm_compaction{"gauge.lsm.compaction_in_progress"};

  SeriesSlot d_ops{"delta.ops"}, d_h2d{"delta.pcie.h2d_bytes"},
      d_d2h{"delta.pcie.d2h_bytes"}, d_value_bytes{"delta.value_bytes"},
      d_pages{"delta.nand.pages_programmed"},
      d_timeouts{"delta.nvme.timeouts"}, d_retries{"delta.nvme.retries"},
      d_prog_fail{"delta.nand.program_failures"},
      d_ecc{"delta.nand.ecc_corrections"},
      d_stalls{"delta.lsm.memtable_stalls"},
      d_compactions{"delta.lsm.compactions"},
      d_comp_bytes{"delta.lsm.compaction_bytes_written"};
  SeriesSlot rate_ops{"rate.ops_per_sec_milli"},
      rate_h2d{"rate.pcie.h2d_bytes_per_sec"},
      rate_d2h{"rate.pcie.d2h_bytes_per_sec"}, rate_taf{"rate.taf_milli"},
      rate_waf{"rate.waf_milli"}, total_taf{"total.taf_milli"},
      total_waf{"total.waf_milli"};
};

Sampler::Sampler(const sim::VirtualClock* clock, const TimelineConfig& config)
    : Timeline(clock, config, "bandslim_telemetry_samples_total",
               "Samples emitted by the virtual-time sampler.") {}

Sampler::Sampler(Sampler&&) noexcept = default;
Sampler::~Sampler() = default;

void Sampler::Collect(SampleBuilder& b) {
  // Built on the first sample, so a disabled sampler allocates nothing.
  if (plan_ == nullptr) plan_ = std::make_unique<SeriesPlan>();
  SeriesPlan& p = *plan_;

  // --- Metrics registry: every named counter, verbatim -------------------
  const stats::MetricsRegistry* metrics = src_.metrics;
  p.registry.Sync({&metrics, 1});
  const RoleTotals reg = p.registry.EmitCounters(b);

  // --- PCIe link: direction totals and per-class transaction counts ------
  std::uint64_t cum_h2d = 0, d_h2d = 0, d_d2h = 0;
  if (src_.link != nullptr) {
    cum_h2d = src_.link->HostToDeviceBytes();
    d_h2d = b.Cumulative(p.pcie_h2d, cum_h2d);
    d_d2h = b.Cumulative(p.pcie_d2h, src_.link->DeviceToHostBytes());
    for (int c = 0; c < pcie::kNumTrafficClasses; ++c) {
      const auto cls = static_cast<pcie::TrafficClass>(c);
      SeriesPlan::PcieClass& s = p.pcie_class[c];
      b.Cumulative(s.h2d_txns,
                   src_.link->TransactionsOf(cls,
                                             pcie::Direction::kHostToDevice));
      // Per-class byte rates: the cumulative series is the registry mirror
      // emitted above; the current value comes straight from the link
      // (identical by construction).
      const std::uint64_t cls_bytes =
          src_.link->BytesOf(cls, pcie::Direction::kHostToDevice);
      b.Set(s.h2d_bytes_per_sec,
            PerSecond(cls_bytes - b.Previous(s.h2d_bytes), b.interval_ns()));
    }
  }

  // --- NVMe queues --------------------------------------------------------
  if (src_.transport != nullptr) {
    for (std::size_t q = 0; q < src_.transport->num_queue_pairs(); ++q) {
      const auto info =
          src_.transport->QueueInfoAt(static_cast<std::uint16_t>(q));
      SeriesPlan::Queue& s = GrowTo(p.queues, q, [](std::size_t i) {
        const std::string base = "queue" + std::to_string(i);
        return SeriesPlan::Queue{SeriesSlot("gauge." + base + ".depth"),
                                 SeriesSlot("gauge." + base + ".inflight"),
                                 SeriesSlot(base + ".submitted")};
      });
      b.Set(s.depth, info.depth);
      b.Set(s.inflight, info.inflight);
      b.Cumulative(s.submitted, info.submitted);
    }
  }

  // --- NAND channel/way busy time ----------------------------------------
  if (src_.nand != nullptr) {
    const nand::NandGeometry& g = src_.nand->geometry();
    for (std::uint32_t c = 0; c < g.channels; ++c) {
      SeriesPlan::Channel& s = GrowTo(p.channels, c, [](std::size_t i) {
        const std::string base = "nand.ch" + std::to_string(i);
        return SeriesPlan::Channel{SeriesSlot(base + ".busy_ns"),
                                   SeriesSlot("gauge." + base +
                                              ".busy_permille")};
      });
      const std::uint64_t d_busy = b.Cumulative(
          s.busy_ns,
          static_cast<std::uint64_t>(src_.nand->channel_busy_ns(c)));
      b.Set(s.busy_permille, RatioMilli(d_busy, b.interval_ns()));
    }
    for (std::uint64_t d = 0; d < g.dies(); ++d) {
      SeriesSlot& s = GrowTo(p.dies, d, [](std::size_t i) {
        return SeriesSlot("nand.die" + std::to_string(i) + ".busy_ns");
      });
      b.Cumulative(s, static_cast<std::uint64_t>(src_.nand->die_busy_ns(d)));
    }
  }

  // --- FTL block accounting and GC activity ------------------------------
  if (src_.ftl != nullptr) {
    b.Set(p.ftl_free, src_.ftl->free_blocks());
    b.Set(p.ftl_reserve, src_.ftl->reserve_remaining());
    b.Set(p.ftl_bad, src_.ftl->bad_blocks());
    b.Set(p.ftl_mapped, src_.ftl->mapped_pages());
    b.Cumulative(p.ftl_gc_runs, src_.ftl->gc_runs());
  }

  // --- Page buffer window -------------------------------------------------
  if (src_.buffer != nullptr) {
    b.Set(p.buf_wp, src_.buffer->wp());
    b.Set(p.buf_window_base, src_.buffer->window_base_addr());
    b.Set(p.buf_resident,
          src_.buffer->wp() - src_.buffer->window_base_addr());
    b.Set(p.buf_dma_frontier, src_.buffer->dma_frontier());
    b.Set(p.buf_dlt_pending, src_.buffer->dlt().size());
  }

  // --- LSM / compaction state ---------------------------------------------
  if (src_.lsm != nullptr) {
    b.Set(p.lsm_memtable_bytes, src_.lsm->memtable_bytes());
    b.Set(p.lsm_memtable_entries, src_.lsm->memtable_entries());
    b.Set(p.lsm_pending_trim, src_.lsm->pending_trim_tables());
    b.Set(p.lsm_debt, src_.lsm->CompactionDebtBytes());
    b.Set(p.lsm_flush, src_.lsm->flush_in_progress() ? 1 : 0);
    b.Set(p.lsm_compaction, src_.lsm->compaction_in_progress() ? 1 : 0);
    for (int l = 0; l < src_.lsm->level_count(); ++l) {
      SeriesPlan::Level& s = GrowTo(p.levels, l, [](std::size_t i) {
        const std::string base = "gauge.lsm.l" + std::to_string(i);
        return SeriesPlan::Level{SeriesSlot(base + ".tables"),
                                 SeriesSlot(base + ".bytes")};
      });
      b.Set(s.tables, src_.lsm->TableCount(l));
      b.Set(s.bytes, src_.lsm->LevelBytes(l));
    }
  }

  // --- Per-interval histogram percentiles ---------------------------------
  // Only histograms that have ever recorded a value emit series (the tracer
  // registers its full taxonomy up front; exports stay compact when tracing
  // is off). An interval with no recordings emits zeros consistently.
  for (RegistryPlan::HistogramEntry& h : p.registry.histograms()) {
    b.Histogram(h.series, h.live);
  }

  // --- Per-interval deltas and fixed-point rates --------------------------
  const std::uint64_t d_ops = reg.Delta(CounterRole::kOps);
  const std::uint64_t d_value_bytes = reg.Delta(CounterRole::kValueBytes);
  const std::uint64_t d_pages = reg.Delta(CounterRole::kPagesProgrammed);
  b.Set(p.d_ops, d_ops);
  b.Set(p.d_h2d, d_h2d);
  b.Set(p.d_d2h, d_d2h);
  b.Set(p.d_value_bytes, d_value_bytes);
  b.Set(p.d_pages, d_pages);
  b.Set(p.d_timeouts, reg.Delta(CounterRole::kTimeouts));
  b.Set(p.d_retries, reg.Delta(CounterRole::kRetries));
  b.Set(p.d_prog_fail, reg.Delta(CounterRole::kProgramFailures));
  b.Set(p.d_ecc, reg.Delta(CounterRole::kEccCorrections));
  b.Set(p.d_stalls, reg.Delta(CounterRole::kMemtableStalls));
  b.Set(p.d_compactions, reg.Delta(CounterRole::kCompactions));
  b.Set(p.d_comp_bytes, reg.Delta(CounterRole::kCompactionBytes));

  b.Set(p.rate_ops, PerSecondMilli(d_ops, b.interval_ns()));
  b.Set(p.rate_h2d, PerSecond(d_h2d, b.interval_ns()));
  b.Set(p.rate_d2h, PerSecond(d_d2h, b.interval_ns()));
  b.Set(p.rate_taf, RatioMilli(d_h2d, d_value_bytes));
  const std::size_t page_size =
      src_.nand != nullptr ? src_.nand->geometry().page_size : kNandPageSize;
  const std::uint64_t cum_value_bytes = reg.Cum(CounterRole::kValueBytes);
  b.Set(p.rate_waf, RatioMilli(d_pages * page_size, d_value_bytes));
  b.Set(p.total_taf, RatioMilli(cum_h2d, cum_value_bytes));
  b.Set(p.total_waf,
        RatioMilli(reg.Cum(CounterRole::kPagesProgrammed) * page_size,
                   cum_value_bytes));
}

}  // namespace bandslim::telemetry
