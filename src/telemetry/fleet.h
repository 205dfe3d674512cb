// Fleet-level observability for a sharded KvCluster (DESIGN.md 2.9): one
// aggregator — a Timeline source (telemetry/timeline.h) — that samples
// every shard's metrics registry on the ROUTER clock's interval grid and
// renders a cluster-wide timeline next to the shards' own per-device
// samplers.
//
// Aggregation invariants (asserted by tests/fleet_test and enforced by
// bench/fleet_timeline exiting nonzero):
//  * Exact reconciliation. A cluster cumulative series is the plain sum of
//    the shard counters read at one instant, so every per-interval fleet
//    delta equals the sum of the per-shard deltas over the same interval,
//    and the deltas telescope to the summed final GetStats() counters — no
//    rounding, no sampling skew.
//  * Mergeable percentiles. Shard latency histograms share log-bucket
//    boundaries, so summing bucket arrays (Histogram::MergeFrom) and taking
//    a quantile equals taking the quantile over the union of the shards'
//    recordings. The fleet's trace.op.*.p50/.p95/.p99 series are computed
//    from merged buckets and are exact, not approximations.
//  * Observation only. The aggregator never advances any clock and never
//    touches device state: enabling it changes no simulated outcome, and a
//    disabled aggregator is one branch per Poll().
//
// Determinism: sampling happens at deterministic Poll() points (after each
// router-level op), stamps land on router-clock interval boundaries, all
// series are integral/fixed-point, and exports render byte-identically
// across runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "stats/metrics.h"
#include "telemetry/timeline.h"

namespace bandslim::telemetry {

namespace attribution {
class AttributionPlane;
}

// --- Canned fleet rules ----------------------------------------------------
// Rule table (all inputs are fleet series the aggregator derives; series
// read 0 before the first interval with traffic, so quiet runs stay silent):
//
//   series                                what it measures
//   fleet.imbalance.ops_max_over_mean_milli
//       busiest shard's interval ops over the fleet mean, x1000. Uniform
//       routing holds this near 1000; a Zipfian hot shard drives it up.
//   fleet.skew.p99_max_over_fleet_milli
//       worst shard's interval op p99 over the fleet-merged p99, x1000.
//   fleet.ring.skew_permille
//       max over shards of |actual routed-key share - expected share from
//       the hash ring's virtual-node arc weights|, in permille.
//   fleet.straggler.stalled_shards
//       number of shards with zero ops in an interval where the fleet as a
//       whole made progress.

// Busiest shard at least `ratio_milli` x the mean for `n` intervals.
WatchdogRule ShardImbalanceRule(std::uint64_t ratio_milli, std::uint32_t n,
                                std::uint32_t clear_n = 2);
// Worst shard p99 at least `ratio_milli` x the fleet p99 for `n` intervals.
WatchdogRule HotShardP99SkewRule(std::uint64_t ratio_milli, std::uint32_t n,
                                 std::uint32_t clear_n = 2);
// Routed-key share deviates from the ring's expected share by more than
// `skew_permille` for `n` intervals.
WatchdogRule RingSkewRule(std::uint64_t skew_permille, std::uint32_t n);
// At least one shard stalled (zero ops while the fleet progressed) for `n`
// consecutive intervals.
WatchdogRule StragglerShardRule(std::uint32_t n, std::uint32_t clear_n = 2);

class FleetAggregator : public Timeline {
 public:
  // One shard's observation points. Pointers are observed, never mutated.
  struct ShardSource {
    const stats::MetricsRegistry* metrics = nullptr;
    const sim::VirtualClock* clock = nullptr;
  };

  // Per-shard view of the latest fleet interval, also rendered to
  // /shards.jsonl. All cumulative fields are raw counter reads.
  struct ShardWindow {
    std::uint64_t ops = 0;         // nvme.commands_submitted, cumulative.
    std::uint64_t delta_ops = 0;   // Ops in the latest fleet interval.
    std::uint64_t value_bytes = 0;
    std::uint64_t pcie_h2d_bytes = 0;
    std::uint64_t nand_pages_programmed = 0;
    std::uint64_t routed_keys = 0;  // Router placement decisions, cumulative.
    std::uint64_t p99_ns = 0;       // Interval op-latency p99 (0 untraced).
    sim::Nanoseconds shard_now_ns = 0;  // The shard clock at the sample.
  };

  FleetAggregator(const sim::VirtualClock* router_clock,
                  const TimelineConfig& config);
  ~FleetAggregator() override;

  // Binds the shard observation points; anchors the interval grid at the
  // router clock's current time on first call. `routed_keys` points at the
  // router's per-shard placement counters (one entry per shard, owned by
  // the cluster); `expected_share_permille` is the hash ring's arc-weight
  // baseline (HashRing::OwnershipWeightsPermille) the ring-skew rule
  // compares actual shares against.
  void Bind(std::vector<ShardSource> shards,
            const std::vector<std::uint64_t>* routed_keys,
            std::vector<std::uint64_t> expected_share_permille);

  const std::vector<ShardWindow>& shard_windows() const { return windows_; }

  // The /shards.jsonl document: one JSON object per shard.
  std::string ShardsJsonl() const;

  // Attaches (or clears) the tenant/key-space attribution plane. The plane
  // folds its per-tenant and heat series into THIS aggregator's samples —
  // there is no second sampler — so its burn-rate rules ride the fleet
  // watchdog and its exports share the fleet's publish cadence. Observed
  // convention: the cluster calls this once at assembly when
  // ClusterConfig::attribution.enabled.
  void SetAttribution(attribution::AttributionPlane* plane) {
    attribution_ = plane;
  }
  const attribution::AttributionPlane* attribution() const {
    return attribution_;
  }

 private:
  // Every series this aggregator emits, resolved once (fleet.cpp).
  struct SeriesPlan;

  void Collect(SampleBuilder& b) override;
  // Federated per-shard block plus the attribution plane's tenant families.
  void AppendPrometheus(std::string* out, std::uint64_t ts_ms) const override;
  void AppendHealthz(std::string* doc) const override;
  void AppendRoutes(std::vector<Route>* routes) const override;

  std::vector<ShardSource> shards_;
  std::vector<const stats::MetricsRegistry*> registries_;  // One per shard.
  const std::vector<std::uint64_t>* routed_keys_ = nullptr;
  std::vector<std::uint64_t> expected_share_permille_;

  std::vector<ShardWindow> windows_;
  std::vector<std::uint64_t> prev_shard_ops_;
  std::vector<stats::HistogramBuckets> last_shard_op_hist_;
  std::unique_ptr<SeriesPlan> plan_;

  attribution::AttributionPlane* attribution_ = nullptr;
};

}  // namespace bandslim::telemetry
