// bandslim::cluster::KvCluster — a host-side router sharding keys across a
// fleet of independent KvSsd instances behind the KvStore interface.
//
//   client ── KvCluster (hash ring + scatter/gather + tenant QoS)
//                ├── shard 0: KvSsd (own clock, metrics, telemetry, control)
//                ├── shard 1: KvSsd
//                └── ...
//
// Time-frame semantics (all virtual, fully deterministic):
//   * The cluster owns a router clock — the client-visible timeline.
//   * One shard call is the only place the router touches a shard for a
//     client op. It stamps the shard's tracer with the router client op and
//     tenant, brackets the tenant's attribution charge, and pulls the shard
//     clock FORWARD to the dispatch time (AdvanceTo; router time is
//     monotone, so shard clocks never move backward) before the shard runs.
//   * A point op (Put/GetInto/Delete) routes to the key's owner shard and
//     sets the router clock to that shard's finish time.
//   * A batch op scatters: every touched shard is served from the same
//     dispatch time T, sub-batches run in their shards' own time frames,
//     and the router clock gathers to the MAX finish — the client sees the
//     slowest shard, exactly like a host issuing the sub-batches to N
//     devices at once and waiting for all completions. A failing shard
//     does not stop the others: every touched shard is served and the
//     first error in shard order is returned. A crashed shard costs its
//     command timeout, so the gather waits that long. A malformed batch is
//     rejected before any key is routed.
//   * With num_shards == 1 every AdvanceTo is a no-op and every gather is
//     the shard's own finish, so a 1-shard cluster is bit-identical in
//     virtual time and device counters to a bare KvSsd fed the same ops.
//
// Tenancy / QoS: each tenant maps to one NVMe queue pair ON EVERY SHARD
// (tenant i talks to queue tenants[i].queue_id of whichever shard owns the
// key). Tenants with credits_per_window > 0 get per-SQ admission control
// (nvme::NvmeTransport::SetAdmissionControl): once a tenant burns its
// credits on a shard within the refill window, further commands are shed
// with kBusy and charged the busy backoff. The cluster refills every
// shard's credits on a fixed virtual-time window grid, checked lazily at
// the next op — no callbacks, so determinism is preserved. Do not combine
// tenant credits with a control policy that also actuates per-SQ admission
// (control::AdmissionPolicy) on the same queues: both would write the same
// transport registers and the last writer wins.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cluster/hash_ring.h"
#include "common/status.h"
#include "core/kv_store.h"
#include "core/kvssd.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/fleet.h"

namespace bandslim::cluster {

struct TenantConfig {
  std::string name = "default";
  // NVMe queue pair this tenant uses on every shard. Tenant queue ids must
  // be distinct; shard options' num_queues is raised automatically to fit.
  std::uint16_t queue_id = 0;
  // Admission credits per refill window on EACH shard; 0 = unmetered.
  std::uint32_t credits_per_window = 0;
  // Virtual time burned per shed command (models host backoff + resubmit).
  sim::Nanoseconds busy_backoff_ns = 2000;
};

struct ClusterConfig {
  std::uint32_t num_shards = 1;
  // Ring points per shard. More points = flatter key distribution.
  std::uint32_t virtual_nodes = 64;
  std::uint64_t ring_seed = 0xB5CCA11;
  // Every shard is opened from this option set (homogeneous fleet).
  KvSsdOptions shard;
  // Empty = one unmetered default tenant on queue 0.
  std::vector<TenantConfig> tenants;
  // Credit refill grid (virtual ns). Only meaningful when some tenant has
  // credits_per_window > 0.
  sim::Nanoseconds qos_refill_window_ns = 100000;
  // Fleet-level observability (telemetry/fleet.h): a cluster-wide sampler
  // on the router clock aggregating every shard's registry, with merged
  // percentiles and shard-imbalance watchdogs. Disabled by default; the
  // aggregator is observation-only either way, so enabling it changes no
  // simulated outcome.
  telemetry::TimelineConfig fleet;
  // Tenant/key-space attribution plane (telemetry/attribution). Requires
  // fleet.enabled — its series ride the fleet sample grid. Per-tenant SLOs
  // in attribution.slo pair positionally with `tenants`. Observation-only:
  // enabling it changes no simulated outcome.
  telemetry::attribution::AttributionConfig attribution;
};

class KvCluster : public KvStore {
 public:
  static Result<std::unique_ptr<KvCluster>> Open(const ClusterConfig& config);
  ~KvCluster() override;

  // --- KvStore: the default tenant (index 0) -------------------------------
  using KvStore::Put;
  using KvStore::PutBatch;
  Status Put(std::string_view key, ByteSpan value) override;
  Status GetInto(std::string_view key, Bytes* value) override;
  Status Delete(std::string_view key) override;
  Status PutBatch(std::span<const KvPair> batch) override;
  Result<std::vector<BatchGetResult>> GetBatch(
      std::span<const std::string> keys) override;
  Result<std::uint32_t> DeleteBatch(std::span<const std::string> keys) override;
  Status Flush() override;

  // Aggregated snapshot: summed stats + one DeviceSnapshot per shard (in
  // shard-index order) + router-level batch/QoS accounting + fleet alerts.
  // Allocation-free in steady state: reuses `out`'s per-shard snapshots,
  // counter maps and alert strings, so a sampling loop can call this every
  // interval without touching the heap.
  void InspectInto(StoreSnapshot* out) const override;
  KvSsdStats GetStats() const override;
  sim::Nanoseconds Now() const override { return clock_.Now(); }

  // --- Topology ------------------------------------------------------------
  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t ShardOf(std::string_view key) const {
    return ring_.OwnerOf(key);
  }
  KvSsd& shard(std::uint32_t index) { return *shards_[index]; }
  const KvSsd& shard(std::uint32_t index) const { return *shards_[index]; }
  const ClusterConfig& config() const { return config_; }

  // --- Tenancy -------------------------------------------------------------
  std::size_t num_tenants() const { return tenants_.size(); }
  const TenantConfig& tenant_config(std::size_t tenant) const {
    return tenants_[tenant];
  }
  // A KvStore facade routing through this cluster as tenant `tenant`.
  // Tenant 0's facade is the cluster's own KvStore surface. Lives as long
  // as the cluster.
  KvStore& Tenant(std::size_t tenant);

  // Pulls the router clock up to the latest shard-local time. For harnesses
  // (the multi-stream workload executor) that drive shards directly in
  // parallel time frames and must hand a consistent timeline back to the
  // router.
  void SyncClockToShards();

  std::uint64_t qos_refill_windows() const { return qos_refill_windows_; }

  // --- Fleet observability -------------------------------------------------
  // The cluster-wide aggregator (always constructed; inert unless
  // config().fleet.enabled). Call fleet().Finalize() before exporting so
  // the closing fleet sample reconciles with GetStats().
  telemetry::FleetAggregator& fleet() { return *fleet_; }
  const telemetry::FleetAggregator& fleet() const { return *fleet_; }
  // Router placement decisions per shard (one increment per routed key,
  // including batch members) — the actual-share input to the ring-skew
  // watchdog.
  const std::vector<std::uint64_t>& routed_keys() const {
    return routed_keys_;
  }
  // The tenant/key-space attribution plane (always constructed; inert unless
  // config().attribution.enabled). Its series appear in fleet() samples.
  telemetry::attribution::AttributionPlane& attribution() {
    return *attribution_;
  }
  const telemetry::attribution::AttributionPlane& attribution() const {
    return *attribution_;
  }

 private:
  // Per-tenant KvStore facade. Every client op runs as a tenant view op;
  // tenant 0's view backs the cluster's own KvStore surface.
  class TenantView;
  // Stands in for a tenant index on fleet-wide maintenance (Flush): no
  // tenant stamp, no attribution charge.
  static constexpr std::size_t kUntagged = ~std::size_t{0};

  explicit KvCluster(const ClusterConfig& config);
  Status Assemble();

  // Lazily refills admission credits for every elapsed window boundary.
  void MaybeRefillCredits();

  // The one place the router touches a shard for a client op: stamps shard
  // `s`'s tracer with `client_op` and the tenant, brackets the tenant's
  // attribution charge, pulls the shard clock up to `start` and runs
  // `serve`. Returns the shard's finish time. Parallel shard lanes would
  // put their epoch barrier here.
  template <typename Serve>
  sim::Nanoseconds CallShard(std::uint32_t s, std::size_t tenant,
                             std::uint64_t client_op, sim::Nanoseconds start,
                             Serve&& serve);
  // Point op: runs `op(driver)` on the key's owner shard for `tenant`.
  // `book(status)` gives the bytes the op books with the attribution plane.
  template <typename Op, typename Book>
  Status Route(std::size_t tenant, std::string_view key, Op&& op, Book&& book);
  // Batch op: rejects a malformed batch before routing, splits the rest by
  // owner shard, serves every touched shard from one start time with
  // `serve(driver, sub_batch, request_indices)`, gathers the router clock
  // to the slowest shard and returns the first error in shard order. The
  // split reuses each lane's buckets, so a warmed-up router allocates
  // nothing for it.
  template <typename T, typename Serve, typename Book>
  Status Scatter(std::size_t tenant, std::span<const T> items, Serve&& serve,
                 Book&& book);
  // Closes a client op: the router clock gathers to `finish`, a tenant op
  // is booked with the attribution plane, and the fleet polls.
  void Complete(std::size_t tenant, sim::Nanoseconds start,
                sim::Nanoseconds finish, StatusCode code,
                std::uint64_t booked_bytes);

  // What the router keeps per shard: the device parts an op touches, taken
  // once in Assemble, and the scatter buckets a batch reuses. The buckets
  // only grow, so copy-assigning a sub-batch into them reuses the keys' and
  // values' capacity.
  struct Lane {
    sim::VirtualClock* clock = nullptr;
    nvme::NvmeTransport* transport = nullptr;
    trace::Tracer* tracer = nullptr;
    std::vector<std::size_t> origin;  // Request indices routed here.
    std::vector<std::string> keys;    // Key sub-batch (first origin.size()).
    std::vector<KvPair> pairs;        // Record sub-batch (likewise).

    template <typename T>
    std::vector<T>& Bucket() {
      if constexpr (std::is_same_v<T, KvPair>) {
        return pairs;
      } else {
        return keys;
      }
    }
  };

  ClusterConfig config_;
  HashRing ring_;
  sim::VirtualClock clock_;  // Router clock: the client-visible timeline.
  std::vector<std::unique_ptr<KvSsd>> shards_;
  std::vector<Lane> lanes_;  // Shard-index order.
  std::vector<TenantConfig> tenants_;
  // drivers_[shard][tenant] — tenant 0 on queue 0 reuses the shard's
  // built-in driver; other tenants get CreateQueueDriver() attachments.
  std::vector<std::vector<driver::KvDriver*>> drivers_;
  std::vector<std::unique_ptr<TenantView>> tenant_views_;

  bool qos_enabled_ = false;
  sim::Nanoseconds last_refill_ns_ = 0;
  std::uint64_t qos_refill_windows_ = 0;
  std::uint64_t batch_subops_ = 0;
  std::uint64_t cross_shard_batches_ = 0;

  // Fleet observability. routed_keys_ and the tracer tagging are always on
  // (plain integer stamps, no simulated effect); the aggregator itself is a
  // single branch per Poll() when config_.fleet.enabled is false.
  std::unique_ptr<telemetry::FleetAggregator> fleet_;
  std::unique_ptr<telemetry::attribution::AttributionPlane> attribution_;
  std::vector<std::uint64_t> routed_keys_;  // One entry per shard.
  std::uint64_t next_client_op_ = 0;  // Router-level client op ids.
};

}  // namespace bandslim::cluster
