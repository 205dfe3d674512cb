#include "cluster/kv_cluster.h"

#include <algorithm>
#include <utility>

namespace bandslim::cluster {

// ---------------------------------------------------------------------------
// The op envelope: one shard call, one point-op path, one scatter/gather.
// ---------------------------------------------------------------------------

template <typename Serve>
sim::Nanoseconds KvCluster::CallShard(std::uint32_t s, std::size_t tenant,
                                      std::uint64_t client_op,
                                      sim::Nanoseconds start, Serve&& serve) {
  // The client-op and tenant stamps (t + 1, like shard tags) are plain
  // trace stamps; the attribution bracket charges the counter deltas the
  // shard accrues while serving to this tenant.
  const bool tagged = tenant != kUntagged;
  const bool charge = tagged && attribution_->enabled();
  const Lane& lane = lanes_[s];
  lane.tracer->SetClientOpContext(client_op);
  lane.tracer->SetTenantContext(
      tagged ? static_cast<std::uint16_t>(tenant + 1) : 0);
  if (charge) attribution_->ChargeBegin(s);
  lane.clock->AdvanceTo(start);
  serve();
  lane.tracer->ClearClientOpContext();
  lane.tracer->ClearTenantContext();
  if (charge) attribution_->ChargeEnd(tenant, s);
  return lane.clock->Now();
}

void KvCluster::Complete(std::size_t tenant, sim::Nanoseconds start,
                         sim::Nanoseconds finish, StatusCode code,
                         std::uint64_t booked_bytes) {
  clock_.SetTime(finish);
  if (tenant != kUntagged && attribution_->enabled()) {
    attribution_->RecordOp(tenant, finish - start, code, booked_bytes);
  }
  fleet_->Poll();
}

template <typename Op, typename Book>
Status KvCluster::Route(std::size_t tenant, std::string_view key, Op&& op,
                        Book&& book) {
  MaybeRefillCredits();
  const sim::Nanoseconds start = clock_.Now();
  const std::uint64_t hash = ring_.HashKey(key);
  const std::uint32_t s = ring_.OwnerOfHash(hash);
  ++routed_keys_[s];
  if (attribution_->enabled()) attribution_->TouchKey(hash);
  Status status;
  const sim::Nanoseconds finish =
      CallShard(s, tenant, next_client_op_++, start,
                [&] { status = op(*drivers_[s][tenant]); });
  Complete(tenant, start, std::max(start, finish), status.code(),
           book(status));
  return status;
}

namespace {
std::string_view KeyOf(const std::string& key) { return key; }
std::string_view KeyOf(const KvStore::KvPair& kv) { return kv.key; }
}  // namespace

template <typename T, typename Serve, typename Book>
Status KvCluster::Scatter(std::size_t tenant, std::span<const T> items,
                          Serve&& serve, Book&& book) {
  BANDSLIM_RETURN_IF_ERROR(driver::CheckBatch(items));
  if (items.empty()) return Status::Ok();
  MaybeRefillCredits();
  const sim::Nanoseconds start = clock_.Now();
  // Every shard-local sub-batch carries the same router client op, so a
  // cross-shard batch can be reassembled from the per-shard traces.
  const std::uint64_t client_op = next_client_op_++;
  for (Lane& lane : lanes_) lane.origin.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint64_t hash = ring_.HashKey(KeyOf(items[i]));
    const std::uint32_t s = ring_.OwnerOfHash(hash);
    ++routed_keys_[s];
    if (attribution_->enabled()) attribution_->TouchKey(hash);
    lanes_[s].origin.push_back(i);
  }
  sim::Nanoseconds latest = start;
  Status first_error;
  std::uint32_t touched = 0;
  for (std::uint32_t s = 0; s < lanes_.size(); ++s) {
    Lane& lane = lanes_[s];
    const std::span<const std::size_t> origin(lane.origin);
    if (origin.empty()) continue;
    ++touched;
    ++batch_subops_;
    // Sub-batches keep each record's relative request order.
    std::vector<T>& bucket = lane.Bucket<T>();
    if (bucket.size() < origin.size()) bucket.resize(origin.size());
    for (std::size_t j = 0; j < origin.size(); ++j) {
      bucket[j] = items[origin[j]];
    }
    const std::span<const T> sub(bucket.data(), origin.size());
    Status status;
    latest = std::max(latest, CallShard(s, tenant, client_op, start, [&] {
      status = serve(*drivers_[s][tenant], sub, origin);
    }));
    if (first_error.ok()) first_error = status;
  }
  if (touched >= 2) ++cross_shard_batches_;
  Complete(tenant, start, latest, first_error.code(), book(first_error));
  return first_error;
}

// ---------------------------------------------------------------------------
// TenantView: the KV ops, each one call into Route or Scatter.
// ---------------------------------------------------------------------------

class KvCluster::TenantView final : public KvStore {
 public:
  TenantView(KvCluster* cluster, std::size_t tenant)
      : cluster_(cluster), tenant_(tenant) {}

  using KvStore::Put;
  using KvStore::PutBatch;
  // A PUT books its payload even when it is shed with kBusy.
  Status Put(std::string_view key, ByteSpan value) override {
    return cluster_->Route(
        tenant_, key, [&](driver::KvDriver& d) { return d.Put(key, value); },
        [&](const Status&) { return value.size(); });
  }
  // A GET books the bytes it returned, only on success.
  Status GetInto(std::string_view key, Bytes* value) override {
    return cluster_->Route(
        tenant_, key,
        [&](driver::KvDriver& d) { return d.GetInto(key, value); },
        [&](const Status& st) { return st.ok() ? value->size() : 0; });
  }
  Status Delete(std::string_view key) override {
    return cluster_->Route(
        tenant_, key, [&](driver::KvDriver& d) { return d.Delete(key); },
        NoBytes);
  }
  Status PutBatch(std::span<const KvPair> batch) override {
    std::uint64_t payload_bytes = 0;
    for (const KvPair& kv : batch) payload_bytes += kv.value.size();
    return cluster_->Scatter(
        tenant_, batch,
        [](driver::KvDriver& d, std::span<const KvPair> sub,
           std::span<const std::size_t>) { return d.PutBatch(sub); },
        [&](const Status&) { return payload_bytes; });
  }
  // Each shard decodes its results straight into their REQUEST-order slots
  // (the KvStore contract); books the returned bytes only when the whole
  // batch succeeds.
  Result<std::vector<BatchGetResult>> GetBatch(
      std::span<const std::string> keys) override {
    std::vector<BatchGetResult> merged(keys.size());
    std::uint64_t returned_bytes = 0;
    const Status status = cluster_->Scatter(
        tenant_, keys,
        [&](driver::KvDriver& d, std::span<const std::string> sub,
            std::span<const std::size_t> origin) -> Status {
          BANDSLIM_RETURN_IF_ERROR(
              d.GetBatchInto(sub, origin, std::span(merged)));
          for (const std::size_t i : origin) {
            returned_bytes += merged[i].value.size();
          }
          return Status::Ok();
        },
        [&](const Status& st) { return st.ok() ? returned_bytes : 0; });
    if (!status.ok()) return status;
    return merged;
  }
  Result<std::uint32_t> DeleteBatch(
      std::span<const std::string> keys) override {
    std::uint32_t removed = 0;
    const Status status = cluster_->Scatter(
        tenant_, keys,
        [&](driver::KvDriver& d, std::span<const std::string> sub,
            std::span<const std::size_t>) -> Status {
          auto got = d.DeleteBatch(sub);
          if (got.ok()) removed += got.value();
          return got.status();
        },
        NoBytes);
    if (!status.ok()) return status;
    return removed;
  }
  Status Flush() override { return cluster_->Flush(); }

  // Observation is cluster-wide regardless of tenant: the fleet has one
  // timeline and one counter space.
  void InspectInto(StoreSnapshot* out) const override {
    cluster_->InspectInto(out);
  }
  KvSsdStats GetStats() const override { return cluster_->GetStats(); }
  sim::Nanoseconds Now() const override { return cluster_->Now(); }

 private:
  static std::uint64_t NoBytes(const Status&) { return 0; }

  KvCluster* cluster_;
  std::size_t tenant_;
};

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

KvCluster::KvCluster(const ClusterConfig& config)
    : config_(config),
      ring_(config.num_shards, config.virtual_nodes, config.ring_seed) {}

KvCluster::~KvCluster() = default;

Result<std::unique_ptr<KvCluster>> KvCluster::Open(
    const ClusterConfig& config) {
  if (config.num_shards == 0) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  if (config.virtual_nodes == 0) {
    return Status::InvalidArgument("virtual_nodes must be >= 1");
  }
  auto cluster = std::unique_ptr<KvCluster>(new KvCluster(config));
  BANDSLIM_RETURN_IF_ERROR(cluster->Assemble());
  return cluster;
}

Status KvCluster::Assemble() {
  tenants_ = config_.tenants;
  if (tenants_.empty()) tenants_.push_back(TenantConfig{});

  if (config_.attribution.enabled && !config_.fleet.enabled) {
    // The plane has no sampler of its own: its series ride the fleet grid.
    return Status::InvalidArgument(
        "attribution requires fleet telemetry (ClusterConfig::fleet.enabled)");
  }
  if (config_.attribution.slo.size() > tenants_.size()) {
    return Status::InvalidArgument(
        "attribution.slo has more entries than tenants");
  }
  if (config_.attribution.enabled) {
    // Tenant names are exported verbatim as Prometheus label values and
    // JSON strings, beside the residual row labeled "untagged".
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const std::string& name = tenants_[i].name;
      const bool charset_ok = std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
      });
      if (name.empty() || name == "untagged" || !charset_ok) {
        return Status::InvalidArgument(
            "attribution tenant names must be non-empty, not \"untagged\", "
            "and use only [A-Za-z0-9_.-]");
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (tenants_[j].name == name) {
          return Status::InvalidArgument(
              "attribution tenant names must be distinct");
        }
      }
    }
  }

  std::uint16_t max_queue = 0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    max_queue = std::max(max_queue, tenants_[i].queue_id);
    for (std::size_t j = i + 1; j < tenants_.size(); ++j) {
      if (tenants_[i].queue_id == tenants_[j].queue_id) {
        return Status::InvalidArgument(
            "tenants must use distinct queue ids");
      }
    }
    if (tenants_[i].credits_per_window > 0) {
      if (config_.qos_refill_window_ns <= 0) {
        return Status::InvalidArgument(
            "qos_refill_window_ns must be > 0 when tenant credits are set");
      }
      qos_enabled_ = true;
    }
  }

  KvSsdOptions shard_options = config_.shard;
  shard_options.num_queues = std::max<std::uint16_t>(
      shard_options.num_queues, static_cast<std::uint16_t>(max_queue + 1));

  shards_.reserve(config_.num_shards);
  lanes_.resize(config_.num_shards);
  drivers_.resize(config_.num_shards);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    auto opened = KvSsd::Open(shard_options);
    if (!opened.ok()) return opened.status();
    shards_.push_back(std::move(opened).value());
    KvSsd& dev = *shards_.back();
    const KvSsd::TestHooks hooks = dev.Hooks();
    lanes_[s].clock = hooks.clock;
    lanes_[s].transport = hooks.transport;
    lanes_[s].tracer = hooks.tracer;

    // Shard-tag the tracer (s + 1; 0 means untagged) so a merged Chrome
    // trace renders one process lane per shard and trace_breakdown rows
    // carry their shard. Plain stamps — no simulated effect.
    hooks.tracer->SetShardTag(static_cast<std::uint16_t>(s + 1));

    drivers_[s].resize(tenants_.size(), nullptr);
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      if (tenants_[t].queue_id == 0) {
        // Queue 0 rides the shard's built-in driver: with one unmetered
        // default tenant this makes the 1-shard cluster's command stream
        // byte-identical to a bare KvSsd's.
        drivers_[s][t] = hooks.driver;
      } else {
        auto made =
            dev.CreateQueueDriver(tenants_[t].queue_id, shard_options.driver);
        if (!made.ok()) return made.status();
        drivers_[s][t] = made.value();
      }
      if (tenants_[t].credits_per_window > 0) {
        hooks.transport->SetAdmissionControl(
            tenants_[t].queue_id, tenants_[t].credits_per_window,
            tenants_[t].busy_backoff_ns);
      }
    }
  }

  tenant_views_.reserve(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    tenant_views_.push_back(std::make_unique<TenantView>(this, t));
  }

  // Fleet aggregator: samples every shard's registry on the router clock's
  // interval grid. Always constructed (Poll is one branch when disabled);
  // Bind anchors the grid at router time 0.
  routed_keys_.assign(shards_.size(), 0);
  fleet_ = std::make_unique<telemetry::FleetAggregator>(&clock_,
                                                        config_.fleet);
  std::vector<telemetry::FleetAggregator::ShardSource> sources;
  sources.reserve(shards_.size());
  for (const auto& dev : shards_) {
    sources.push_back({&dev->metrics(), &dev->clock()});
  }
  fleet_->Bind(std::move(sources), &routed_keys_,
               ring_.OwnershipWeightsPermille(config_.num_shards));

  // Attribution plane: per-tenant charging against the same shard counters
  // the fleet sums, so the untagged residual reconciles exactly. Always
  // constructed (hot-path hooks are one branch when disabled).
  attribution_ = std::make_unique<telemetry::attribution::AttributionPlane>(
      config_.attribution);
  std::vector<stats::MetricsRegistry*> shard_metrics;
  shard_metrics.reserve(shards_.size());
  for (auto& dev : shards_) shard_metrics.push_back(dev->Hooks().metrics);
  std::vector<std::string> tenant_names;
  tenant_names.reserve(tenants_.size());
  for (const TenantConfig& t : tenants_) tenant_names.push_back(t.name);
  attribution_->Bind(shard_metrics, std::move(tenant_names));
  fleet_->SetAttribution(attribution_.get());
  return Status::Ok();
}

KvStore& KvCluster::Tenant(std::size_t tenant) {
  if (tenant == 0) return *this;
  return *tenant_views_[tenant];
}

// ---------------------------------------------------------------------------
// QoS credit refill
// ---------------------------------------------------------------------------

void KvCluster::MaybeRefillCredits() {
  if (!qos_enabled_) return;
  const sim::Nanoseconds now = clock_.Now();
  const sim::Nanoseconds window = config_.qos_refill_window_ns;
  if (now - last_refill_ns_ < window) return;
  const std::uint64_t elapsed =
      static_cast<std::uint64_t>(now - last_refill_ns_) /
      static_cast<std::uint64_t>(window);
  last_refill_ns_ += static_cast<sim::Nanoseconds>(elapsed) * window;
  qos_refill_windows_ += elapsed;
  // One refill per crossing, not per elapsed window: credits cap at the
  // budget anyway, so collapsed windows are indistinguishable.
  for (Lane& lane : lanes_) lane.transport->RefillQueueCredits();
}

// ---------------------------------------------------------------------------
// Default-tenant KvStore surface
// ---------------------------------------------------------------------------

Status KvCluster::Put(std::string_view key, ByteSpan value) {
  return tenant_views_[0]->Put(key, value);
}
Status KvCluster::GetInto(std::string_view key, Bytes* value) {
  return tenant_views_[0]->GetInto(key, value);
}
Status KvCluster::Delete(std::string_view key) {
  return tenant_views_[0]->Delete(key);
}
Status KvCluster::PutBatch(std::span<const KvPair> batch) {
  return tenant_views_[0]->PutBatch(batch);
}
Result<std::vector<KvCluster::BatchGetResult>> KvCluster::GetBatch(
    std::span<const std::string> keys) {
  return tenant_views_[0]->GetBatch(keys);
}
Result<std::uint32_t> KvCluster::DeleteBatch(
    std::span<const std::string> keys) {
  return tenant_views_[0]->DeleteBatch(keys);
}

Status KvCluster::Flush() {
  // Flush is fleet-wide maintenance, not tenant traffic: it stays untagged,
  // so its device work lands in the attribution plane's untagged residual.
  const sim::Nanoseconds start = clock_.Now();
  const std::uint64_t client_op = next_client_op_++;
  sim::Nanoseconds latest = start;
  Status first_error;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    Status status;
    latest = std::max(latest, CallShard(s, kUntagged, client_op, start, [&] {
      status = shards_[s]->Flush();
    }));
    if (first_error.ok()) first_error = status;
  }
  Complete(kUntagged, start, latest, first_error.code(), 0);
  return first_error;
}

// ---------------------------------------------------------------------------
// Observation
// ---------------------------------------------------------------------------

KvSsdStats KvCluster::GetStats() const {
  KvSsdStats total;
  total.elapsed_ns = clock_.Now();
  for (const auto& dev : shards_) {
    AccumulateStats(&total, dev->GetStats());
  }
  return total;
}

void KvCluster::InspectInto(StoreSnapshot* out) const {
  out->stats = GetStats();
  out->shards.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->InspectDeviceInto(&out->shards[s]);
  }
  out->batch_subops = batch_subops_;
  out->cross_shard_batches = cross_shard_batches_;
  out->qos_refill_windows = qos_refill_windows_;
  // Fleet-level watchdog state (shard imbalance, p99 skew, ring skew,
  // straggler stall) — distinct from each shard's per-device alerts.
  const telemetry::Watchdog& wd = fleet_->watchdog();
  out->alerts.resize(wd.rules().size());
  for (std::size_t i = 0; i < wd.rules().size(); ++i) {
    const telemetry::AlertState& st = wd.states()[i];
    DeviceSnapshot::AlertInfo& a = out->alerts[i];
    a.rule.assign(wd.rules()[i].name);
    a.fired = st.fired;
    a.cleared = st.cleared;
    a.active = st.active;
    a.last_value = st.last_value;
    a.last_fire_ns = st.last_fire_ns;
  }
  out->fleet_samples = fleet_->samples_emitted();
  out->fleet_events = fleet_->event_log().total_emitted();
}

void KvCluster::SyncClockToShards() {
  sim::Nanoseconds latest = clock_.Now();
  for (const auto& dev : shards_) latest = std::max(latest, dev->Now());
  clock_.SetTime(latest);
  // Harness-driven shards may have crossed fleet interval boundaries while
  // the router clock stood still; catch up now that it is consistent.
  fleet_->Poll();
}

}  // namespace bandslim::cluster
