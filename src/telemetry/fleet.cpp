#include "telemetry/fleet.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "telemetry/attribution/attribution.h"
#include "telemetry/text_out.h"

namespace bandslim::telemetry {

namespace {

constexpr char kOpLatencyHist[] = "trace.op.latency_ns";

std::uint64_t Read(const stats::Counter* counter) {
  return counter == nullptr ? 0 : counter->value();
}

}  // namespace

WatchdogRule ShardImbalanceRule(std::uint64_t ratio_milli, std::uint32_t n,
                                std::uint32_t clear_n) {
  return WatchdogRule{"shard_imbalance",
                      "fleet.imbalance.ops_max_over_mean_milli",
                      WatchdogRule::Cmp::kAtLeast, ratio_milli, n, clear_n};
}

WatchdogRule HotShardP99SkewRule(std::uint64_t ratio_milli, std::uint32_t n,
                                 std::uint32_t clear_n) {
  return WatchdogRule{"hot_shard_p99_skew",
                      "fleet.skew.p99_max_over_fleet_milli",
                      WatchdogRule::Cmp::kAtLeast, ratio_milli, n, clear_n};
}

WatchdogRule RingSkewRule(std::uint64_t skew_permille, std::uint32_t n) {
  return WatchdogRule{"ring_skew", "fleet.ring.skew_permille",
                      WatchdogRule::Cmp::kAbove, skew_permille, n};
}

WatchdogRule StragglerShardRule(std::uint32_t n, std::uint32_t clear_n) {
  return WatchdogRule{"straggler_shard", "fleet.straggler.stalled_shards",
                      WatchdogRule::Cmp::kAtLeast, 1, n, clear_n};
}

struct FleetAggregator::SeriesPlan {
  // One shard's window inputs, looked up whenever the registry plan is
  // rebuilt (null when the shard's registry lacks the name).
  struct ShardRefs {
    const stats::Counter* ops = nullptr;
    const stats::Counter* value_bytes = nullptr;
    std::array<const stats::Counter*, 4> h2d{};
    const stats::Counter* pages = nullptr;
    const stats::Histogram* op_latency = nullptr;
  };
  struct ShardSeries {
    SeriesSlot ops, delta_ops, routed_keys, p99_ns;
  };

  void ResolveShards(const std::vector<const stats::MetricsRegistry*>& regs) {
    const auto counter = [](const stats::MetricsRegistry* r,
                            std::string_view name) -> const stats::Counter* {
      const auto it = r->counters().find(name);
      return it == r->counters().end() ? nullptr : &it->second;
    };
    refs.assign(regs.size(), ShardRefs{});
    for (std::size_t i = 0; i < regs.size(); ++i) {
      if (regs[i] == nullptr) continue;
      ShardRefs& r = refs[i];
      r.ops = counter(regs[i], "nvme.commands_submitted");
      r.value_bytes = counter(regs[i], "controller.value_bytes_written");
      r.h2d = {counter(regs[i], "pcie.mmio.h2d_bytes"),
               counter(regs[i], "pcie.cmd_fetch.h2d_bytes"),
               counter(regs[i], "pcie.dma_data.h2d_bytes"),
               counter(regs[i], "pcie.completion.h2d_bytes")};
      r.pages = counter(regs[i], "nand.pages_programmed");
      const auto h = regs[i]->histograms().find(kOpLatencyHist);
      if (h != regs[i]->histograms().end()) r.op_latency = &h->second;
    }
    op_latency = registry.histograms().size();
    for (std::size_t h = 0; h < registry.histograms().size(); ++h) {
      if (registry.histograms()[h].series.hist_name == kOpLatencyHist) {
        op_latency = h;
      }
    }
  }

  RegistryPlan registry{/*lifetime=*/true};
  std::vector<ShardRefs> refs;
  // Index of trace.op.latency_ns in registry.histograms(); size() if none.
  std::size_t op_latency = 0;
  std::vector<ShardSeries> shards;  // Grown on first use.

  SeriesSlot fleet_shards{"fleet.shards"}, d_ops{"delta.ops"},
      d_vb{"delta.value_bytes"}, d_h2d{"delta.pcie.h2d_bytes"},
      d_pages{"delta.nand.pages_programmed"},
      rate_ops{"rate.ops_per_sec_milli"}, rate_taf{"rate.taf_milli"},
      total_taf{"total.taf_milli"},
      imbalance{"fleet.imbalance.ops_max_over_mean_milli"},
      p99_skew{"fleet.skew.p99_max_over_fleet_milli"},
      ring_skew{"fleet.ring.skew_permille"},
      stalled{"fleet.straggler.stalled_shards"};
};

FleetAggregator::FleetAggregator(const sim::VirtualClock* router_clock,
                                 const TimelineConfig& config)
    : Timeline(router_clock, config, "bandslim_fleet_samples_total",
               "Fleet samples emitted by the cluster aggregator.") {}

FleetAggregator::~FleetAggregator() = default;

void FleetAggregator::Bind(std::vector<ShardSource> shards,
                           const std::vector<std::uint64_t>* routed_keys,
                           std::vector<std::uint64_t> expected_share_permille) {
  shards_ = std::move(shards);
  registries_.clear();
  for (const ShardSource& src : shards_) registries_.push_back(src.metrics);
  routed_keys_ = routed_keys;
  expected_share_permille_ = std::move(expected_share_permille);
  windows_.assign(shards_.size(), ShardWindow{});
  prev_shard_ops_.assign(shards_.size(), 0);
  last_shard_op_hist_.assign(shards_.size(), stats::HistogramBuckets{});
  Anchor();
}

void FleetAggregator::Collect(SampleBuilder& b) {
  // Built on the first sample, so a disabled aggregator allocates nothing.
  if (plan_ == nullptr) plan_ = std::make_unique<SeriesPlan>();
  SeriesPlan& p = *plan_;
  if (p.registry.Sync(registries_)) p.ResolveShards(registries_);

  // --- Per-shard reads: one instant, one pass ----------------------------
  // Every shard's counters are read while the routed op that crossed the
  // boundary is complete on its device, so the summed cluster series and
  // the per-shard windows describe the same cut — the reconciliation
  // invariant (fleet delta == sum of shard deltas) is exact by construction.
  const std::size_t n = shards_.size();
  std::uint64_t max_shard_p99 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SeriesPlan::ShardRefs& r = p.refs[i];
    ShardWindow& w = windows_[i];
    w.p99_ns = 0;
    if (r.op_latency != nullptr && r.op_latency->count() != 0) {
      w.p99_ns =
          AdvanceQuantiles({&r.op_latency, 1}, &last_shard_op_hist_[i]).p99;
      max_shard_p99 = std::max(max_shard_p99, w.p99_ns);
    }
    w.ops = Read(r.ops);
    w.value_bytes = Read(r.value_bytes);
    w.pcie_h2d_bytes =
        Read(r.h2d[0]) + Read(r.h2d[1]) + Read(r.h2d[2]) + Read(r.h2d[3]);
    w.nand_pages_programmed = Read(r.pages);
    w.delta_ops = w.ops - prev_shard_ops_[i];
    prev_shard_ops_[i] = w.ops;
    w.routed_keys = routed_keys_ != nullptr && i < routed_keys_->size()
                        ? (*routed_keys_)[i]
                        : 0;
    w.shard_now_ns = shards_[i].clock != nullptr ? shards_[i].clock->Now() : 0;
  }

  // --- Cluster cumulative series: summed shard counters, verbatim names --
  const RoleTotals totals = p.registry.EmitCounters(b);
  const std::uint64_t d_ops = totals.Delta(CounterRole::kOps);
  const std::uint64_t d_vb = totals.Delta(CounterRole::kValueBytes);
  const std::uint64_t d_h2d = totals.Delta(CounterRole::kPcieH2dBytes);
  const std::uint64_t cum_vb = totals.Cum(CounterRole::kValueBytes);
  const std::uint64_t cum_h2d = totals.Cum(CounterRole::kPcieH2dBytes);

  // --- Merged-histogram percentiles ---------------------------------------
  // Interval series mirror the device sampler (<base>.p50/.p95/.p99 over
  // the bucket delta); the lifetime.* variants are quantiles over the full
  // merged cumulative buckets — by the shared-boundary argument these equal
  // the quantiles over the union of every shard's recordings, which the
  // fleet test asserts against a replayed union histogram.
  std::uint64_t fleet_p99 = 0;
  std::vector<RegistryPlan::HistogramEntry>& hists = p.registry.histograms();
  for (std::size_t h = 0; h < hists.size(); ++h) {
    const IntervalQuantiles q = b.Histogram(hists[h].series, hists[h].live);
    if (h == p.op_latency) fleet_p99 = q.p99;
  }

  // --- Per-shard series and imbalance inputs ------------------------------
  std::uint64_t max_delta_ops = 0, stalled = 0, total_routed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ShardWindow& w = windows_[i];
    SeriesPlan::ShardSeries& s = GrowTo(p.shards, i, [](std::size_t k) {
      const std::string base = "shard" + std::to_string(k);
      return SeriesPlan::ShardSeries{
          SeriesSlot(base + ".ops"), SeriesSlot(base + ".delta.ops"),
          SeriesSlot(base + ".routed_keys"), SeriesSlot(base + ".p99_ns")};
    });
    b.Set(s.ops, w.ops);
    b.Set(s.delta_ops, w.delta_ops);
    b.Set(s.routed_keys, w.routed_keys);
    b.Set(s.p99_ns, w.p99_ns);
    max_delta_ops = std::max(max_delta_ops, w.delta_ops);
    if (w.delta_ops == 0) ++stalled;
    total_routed += w.routed_keys;
  }
  std::uint64_t ring_skew = 0;
  if (total_routed > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t actual =
          windows_[i].routed_keys * 1000 / total_routed;
      const std::uint64_t expected =
          i < expected_share_permille_.size() ? expected_share_permille_[i]
                                              : 0;
      ring_skew = std::max(
          ring_skew, actual > expected ? actual - expected : expected - actual);
    }
  }

  // --- Fleet derived series and watchdog rule inputs ----------------------
  b.Set(p.fleet_shards, n);
  b.Set(p.d_ops, d_ops);
  b.Set(p.d_vb, d_vb);
  b.Set(p.d_h2d, d_h2d);
  b.Set(p.d_pages, totals.Delta(CounterRole::kPagesProgrammed));
  b.Set(p.rate_ops, PerSecondMilli(d_ops, b.interval_ns()));
  b.Set(p.rate_taf, RatioMilli(d_h2d, d_vb));
  b.Set(p.total_taf, RatioMilli(cum_h2d, cum_vb));
  // max/mean x1000 == max * N * 1000 / total; 0 on an idle interval so the
  // imbalance rule never fires while the fleet is quiet.
  b.Set(p.imbalance, d_ops == 0 ? 0 : max_delta_ops * n * kMilliScale / d_ops);
  b.Set(p.p99_skew,
        fleet_p99 == 0 ? 0 : max_shard_p99 * kMilliScale / fleet_p99);
  b.Set(p.ring_skew, ring_skew);
  b.Set(p.stalled, d_ops > 0 ? stalled : 0);

  // --- Tenant/key-space attribution series --------------------------------
  // Folded into THIS sample before the sort and the watchdog pass, so the
  // burn-rate and hot-range rules evaluate against the same interval cut as
  // every fleet rule, and the untagged residual reconciles against the
  // exact cumulative counters captured above.
  if (attribution_ != nullptr && attribution_->enabled()) {
    attribution::AttributionPlane::FleetTotals fleet_totals;
    fleet_totals.ops = totals.Cum(CounterRole::kOps);
    fleet_totals.value_bytes = cum_vb;
    fleet_totals.pcie_h2d_bytes = cum_h2d;
    fleet_totals.nand_pages = totals.Cum(CounterRole::kPagesProgrammed);
    attribution_->OnFleetSample(b, fleet_totals);
  }
}

void FleetAggregator::AppendPrometheus(std::string* out,
                                       std::uint64_t ts_ms) const {
  if (windows_.empty()) return;
  TextOut os(out);
  // Federated per-shard block: the same scrape carries every shard's view
  // under a `shard` label, so one endpoint serves the whole cluster.
  const auto family = [&](const char* name, const char* type, auto getter) {
    os << "# TYPE " << name << " " << type << "\n";
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      os << name << "{shard=\"" << i << "\"} " << getter(windows_[i]) << " "
         << ts_ms << "\n";
    }
  };
  family("bandslim_shard_ops_total", "counter",
         [](const ShardWindow& w) { return w.ops; });
  family("bandslim_shard_delta_ops", "gauge",
         [](const ShardWindow& w) { return w.delta_ops; });
  family("bandslim_shard_value_bytes_total", "counter",
         [](const ShardWindow& w) { return w.value_bytes; });
  family("bandslim_shard_pcie_h2d_bytes_total", "counter",
         [](const ShardWindow& w) { return w.pcie_h2d_bytes; });
  family("bandslim_shard_nand_pages_programmed_total", "counter",
         [](const ShardWindow& w) { return w.nand_pages_programmed; });
  family("bandslim_shard_routed_keys_total", "counter",
         [](const ShardWindow& w) { return w.routed_keys; });
  family("bandslim_shard_p99_ns", "gauge",
         [](const ShardWindow& w) { return w.p99_ns; });
  if (attribution_ != nullptr && attribution_->enabled()) {
    attribution_->AppendPrometheus(out, ts_ms);
  }
}

std::string FleetAggregator::ShardsJsonl() const {
  std::string out;
  TextOut os(&out);
  const sim::Nanoseconds t = samples().empty() ? 0 : samples().back().t_ns;
  std::uint64_t total_routed = 0;
  for (const ShardWindow& w : windows_) total_routed += w.routed_keys;
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    const ShardWindow& w = windows_[i];
    const std::uint64_t expected =
        i < expected_share_permille_.size() ? expected_share_permille_[i] : 0;
    const std::uint64_t actual =
        total_routed == 0 ? 0 : w.routed_keys * 1000 / total_routed;
    os << "{\"shard\":" << i << ",\"t_ns\":" << t << ",\"shard_t_ns\":"
       << w.shard_now_ns << ",\"ops\":" << w.ops << ",\"delta_ops\":"
       << w.delta_ops << ",\"value_bytes\":" << w.value_bytes
       << ",\"pcie_h2d_bytes\":" << w.pcie_h2d_bytes
       << ",\"nand_pages_programmed\":" << w.nand_pages_programmed
       << ",\"routed_keys\":" << w.routed_keys << ",\"p99_ns\":" << w.p99_ns
       << ",\"expected_share_permille\":" << expected
       << ",\"actual_share_permille\":" << actual << "}\n";
  }
  return out;
}

void FleetAggregator::AppendHealthz(std::string* doc) const {
  *doc += ",\"shards\":" + std::to_string(windows_.size());
}

void FleetAggregator::AppendRoutes(std::vector<Route>* routes) const {
  routes->push_back({"/shards.jsonl", "application/x-ndjson", ShardsJsonl()});
  if (attribution_ != nullptr && attribution_->enabled()) {
    routes->push_back(
        {"/slo.jsonl", "application/x-ndjson", attribution_->SloJsonl()});
  }
}

}  // namespace bandslim::telemetry
