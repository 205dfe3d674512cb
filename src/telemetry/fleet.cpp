#include "telemetry/fleet.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "telemetry/attribution/attribution.h"

namespace bandslim::telemetry {

namespace {

// The registry mirrors PCIe bytes as one counter per traffic class
// ("pcie.mmio.h2d_bytes" ... "pcie.completion.h2d_bytes"); their sum is the
// link's host-to-device byte total, exactly as KvSsd::GetStats computes it.
bool IsPcieH2dBytes(const std::string& name) {
  constexpr std::string_view kPrefix = "pcie.", kSuffix = ".h2d_bytes";
  return name.size() > kPrefix.size() + kSuffix.size() &&
         name.starts_with(kPrefix) && name.ends_with(kSuffix);
}

constexpr char kOpLatencyHist[] = "trace.op.latency_ns";

// summed_ marker for a series no shard reported this sample.
constexpr std::uint64_t kAbsent = ~0ULL;

void MergeInto(stats::HistogramBuckets* into,
               const stats::HistogramBuckets& from) {
  for (std::size_t b = 0; b < into->buckets.size(); ++b) {
    into->buckets[b] += from.buckets[b];
  }
  into->count += from.count;
  into->sum += from.sum;
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

FleetAggregator::FleetAggregator(const sim::VirtualClock* router_clock,
                                 const TimelineConfig& config)
    : Timeline(router_clock, config, "bandslim_fleet_samples_total",
               "Fleet samples emitted by the cluster aggregator.") {}

void FleetAggregator::Bind(std::vector<ShardSource> shards,
                           const std::vector<std::uint64_t>* routed_keys,
                           std::vector<std::uint64_t> expected_share_permille) {
  shards_ = std::move(shards);
  routed_keys_ = routed_keys;
  expected_share_permille_ = std::move(expected_share_permille);
  windows_.assign(shards_.size(), ShardWindow{});
  prev_shard_ops_.assign(shards_.size(), 0);
  last_shard_op_hist_.assign(shards_.size(), stats::HistogramBuckets{});
  Anchor();
}

void FleetAggregator::Collect(SampleBuilder& b) {
  // --- Per-shard reads: one instant, one pass ----------------------------
  // Every shard's counters are read while the routed op that crossed the
  // boundary is complete on its device, so the summed cluster series and
  // the per-shard windows describe the same cut — the reconciliation
  // invariant (fleet delta == sum of shard deltas) is exact by construction.
  // Sums accumulate by id; a name this timeline has not seen yet is held
  // back by name, so new series are interned in name order.
  const std::size_t n = shards_.size();
  summed_.assign(series().size(), kAbsent);
  merged_hist_.assign(histogram_names().size(), stats::HistogramBuckets{});
  std::map<std::string, std::uint64_t> new_counters;
  std::map<std::string, stats::HistogramBuckets> new_hists;
  std::uint64_t max_shard_p99 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ShardSource& src = shards_[i];
    ShardWindow& w = windows_[i];
    w.p99_ns = 0;
    if (src.metrics != nullptr) {
      for (const auto& [name, value] : src.metrics->SnapshotCounters()) {
        const std::int64_t id = series().Find(name);
        if (id < 0) {
          new_counters[name] += value;
          continue;
        }
        std::uint64_t& sum = summed_[static_cast<std::size_t>(id)];
        sum = (sum == kAbsent ? 0 : sum) + value;
      }
      for (const auto& [name, cur] :
           src.metrics->SnapshotHistogramBuckets()) {
        if (cur.count == 0) continue;
        const std::int64_t id = histogram_names().Find(name);
        MergeInto(id < 0 ? &new_hists[name]
                         : &merged_hist_[static_cast<std::size_t>(id)],
                  cur);
        if (name == kOpLatencyHist) {
          w.p99_ns = QuantilesSince(cur, last_shard_op_hist_[i]).p99;
          max_shard_p99 = std::max(max_shard_p99, w.p99_ns);
          last_shard_op_hist_[i] = cur;
        }
      }
      w.ops = src.metrics->CounterValue("nvme.commands_submitted");
      w.value_bytes =
          src.metrics->CounterValue("controller.value_bytes_written");
      w.pcie_h2d_bytes =
          src.metrics->CounterValue("pcie.mmio.h2d_bytes") +
          src.metrics->CounterValue("pcie.cmd_fetch.h2d_bytes") +
          src.metrics->CounterValue("pcie.dma_data.h2d_bytes") +
          src.metrics->CounterValue("pcie.completion.h2d_bytes");
      w.nand_pages_programmed =
          src.metrics->CounterValue("nand.pages_programmed");
    }
    w.delta_ops = w.ops - prev_shard_ops_[i];
    prev_shard_ops_[i] = w.ops;
    w.routed_keys = routed_keys_ != nullptr && i < routed_keys_->size()
                        ? (*routed_keys_)[i]
                        : 0;
    w.shard_now_ns = src.clock != nullptr ? src.clock->Now() : 0;
  }

  // --- Cluster cumulative series: summed shard counters, verbatim names --
  std::uint64_t cum_ops = 0, cum_vb = 0, cum_h2d = 0, cum_pages = 0;
  std::uint64_t d_ops = 0, d_vb = 0, d_pages = 0, d_h2d = 0;
  const auto counter = [&](const std::string& name, std::uint64_t value,
                           std::uint64_t delta) {
    if (name == "nvme.commands_submitted") {
      cum_ops = value;
      d_ops = delta;
    } else if (name == "controller.value_bytes_written") {
      cum_vb = value;
      d_vb = delta;
    } else if (name == "nand.pages_programmed") {
      cum_pages = value;
      d_pages = delta;
    } else if (IsPcieH2dBytes(name)) {
      cum_h2d += value;
      d_h2d += delta;
    }
  };
  for (std::uint32_t id = 0; id < summed_.size(); ++id) {
    if (summed_[id] == kAbsent) continue;
    counter(series().NameOf(id), summed_[id], b.Cumulative(id, summed_[id]));
  }
  for (const auto& [name, value] : new_counters) {
    counter(name, value, b.Cumulative(name, value));
  }

  // --- Merged-histogram percentiles ---------------------------------------
  // Interval series mirror the device sampler (<base>.p50/.p95/.p99 over
  // the bucket delta); the lifetime.* variants are quantiles over the full
  // merged cumulative buckets — by the shared-boundary argument these equal
  // the quantiles over the union of every shard's recordings, which the
  // fleet test asserts against a replayed union histogram.
  std::uint64_t fleet_p99 = 0;
  const auto merged = [&](const std::string& name,
                          const stats::HistogramBuckets& cur) {
    const IntervalQuantiles q = b.Histogram(name, cur);
    const std::string base = SampleBuilder::PercentileBase(name);
    b.Set("lifetime." + base + ".p50",
          stats::Histogram::QuantileFromBuckets(cur.buckets, cur.count, 500));
    b.Set("lifetime." + base + ".p95",
          stats::Histogram::QuantileFromBuckets(cur.buckets, cur.count, 950));
    b.Set("lifetime." + base + ".p99",
          stats::Histogram::QuantileFromBuckets(cur.buckets, cur.count, 990));
    if (name == kOpLatencyHist) fleet_p99 = q.p99;
  };
  for (std::uint32_t id = 0; id < merged_hist_.size(); ++id) {
    if (merged_hist_[id].count != 0) {
      merged(histogram_names().NameOf(id), merged_hist_[id]);
    }
  }
  for (const auto& [name, cur] : new_hists) merged(name, cur);

  // --- Per-shard series and imbalance inputs ------------------------------
  std::uint64_t max_delta_ops = 0, stalled = 0, total_routed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ShardWindow& w = windows_[i];
    const std::string base = "shard" + std::to_string(i);
    b.Set(base + ".ops", w.ops);
    b.Set(base + ".delta.ops", w.delta_ops);
    b.Set(base + ".routed_keys", w.routed_keys);
    b.Set(base + ".p99_ns", w.p99_ns);
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
  b.Set("fleet.shards", n);
  b.Set("delta.ops", d_ops);
  b.Set("delta.value_bytes", d_vb);
  b.Set("delta.pcie.h2d_bytes", d_h2d);
  b.Set("delta.nand.pages_programmed", d_pages);
  b.Set("rate.ops_per_sec_milli", PerSecondMilli(d_ops, b.interval_ns()));
  b.Set("rate.taf_milli", RatioMilli(d_h2d, d_vb));
  b.Set("total.taf_milli", RatioMilli(cum_h2d, cum_vb));
  // max/mean x1000 == max * N * 1000 / total; 0 on an idle interval so the
  // imbalance rule never fires while the fleet is quiet.
  b.Set("fleet.imbalance.ops_max_over_mean_milli",
        d_ops == 0 ? 0 : max_delta_ops * n * kMilliScale / d_ops);
  b.Set("fleet.skew.p99_max_over_fleet_milli",
        fleet_p99 == 0 ? 0 : max_shard_p99 * kMilliScale / fleet_p99);
  b.Set("fleet.ring.skew_permille", ring_skew);
  b.Set("fleet.straggler.stalled_shards", d_ops > 0 ? stalled : 0);

  // --- Tenant/key-space attribution series --------------------------------
  // Folded into THIS sample before the sort and the watchdog pass, so the
  // burn-rate and hot-range rules evaluate against the same interval cut as
  // every fleet rule, and the untagged residual reconciles against the
  // exact cumulative counters captured above.
  if (attribution_ != nullptr && attribution_->enabled()) {
    attribution::AttributionPlane::FleetTotals totals;
    totals.ops = cum_ops;
    totals.value_bytes = cum_vb;
    totals.pcie_h2d_bytes = cum_h2d;
    totals.nand_pages = cum_pages;
    attribution_->OnFleetSample(b, totals);
  }
}

void FleetAggregator::AppendPrometheus(std::string* out,
                                       std::uint64_t ts_ms) const {
  if (windows_.empty()) return;
  std::ostringstream os;
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
  *out += os.str();
  if (attribution_ != nullptr && attribution_->enabled()) {
    attribution_->AppendPrometheus(out, ts_ms);
  }
}

std::string FleetAggregator::ShardsJsonl() const {
  std::ostringstream os;
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
  return os.str();
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
