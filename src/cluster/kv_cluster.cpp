#include "cluster/kv_cluster.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bandslim::cluster {

// ---------------------------------------------------------------------------
// TenantView: a KvStore facade bound to one tenant index.
// ---------------------------------------------------------------------------

class KvCluster::TenantView : public KvStore {
 public:
  TenantView(KvCluster* cluster, std::size_t tenant)
      : cluster_(cluster), tenant_(tenant) {}

  using KvStore::Put;
  using KvStore::PutBatch;
  Status Put(std::string_view key, ByteSpan value) override {
    return cluster_->DoPut(tenant_, key, value);
  }
  Result<Bytes> Get(std::string_view key) override {
    return cluster_->DoGet(tenant_, key);
  }
  Status GetInto(std::string_view key, Bytes* value) override {
    return cluster_->DoGetInto(tenant_, key, value);
  }
  Status Delete(std::string_view key) override {
    return cluster_->DoDelete(tenant_, key);
  }
  Status PutBatch(std::span<const KvPair> batch) override {
    return cluster_->DoPutBatch(tenant_, batch);
  }
  Result<std::vector<BatchGetResult>> GetBatch(
      std::span<const std::string> keys) override {
    return cluster_->DoGetBatch(tenant_, keys);
  }
  Result<std::uint32_t> DeleteBatch(
      std::span<const std::string> keys) override {
    return cluster_->DoDeleteBatch(tenant_, keys);
  }
  Status Flush() override { return cluster_->DoFlush(); }

  // Observation is cluster-wide regardless of tenant: the fleet has one
  // timeline and one counter space.
  StoreSnapshot Inspect() const override { return cluster_->Inspect(); }
  void InspectInto(StoreSnapshot* out) const override {
    cluster_->InspectInto(out);
  }
  KvSsdStats GetStats() const override { return cluster_->GetStats(); }
  sim::Nanoseconds Now() const override { return cluster_->Now(); }

 private:
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
  drivers_.resize(config_.num_shards);
  shard_tracers_.reserve(config_.num_shards);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    auto opened = KvSsd::Open(shard_options);
    if (!opened.ok()) return opened.status();
    shards_.push_back(std::move(opened).value());
    KvSsd& dev = *shards_.back();

    // Shard-tag the tracer (s + 1; 0 means untagged) so a merged Chrome
    // trace renders one process lane per shard and trace_breakdown rows
    // carry their shard. Plain stamps — no simulated effect.
    dev.Hooks().tracer->SetShardTag(static_cast<std::uint16_t>(s + 1));
    shard_tracers_.push_back(dev.Hooks().tracer);

    drivers_[s].resize(tenants_.size(), nullptr);
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      if (tenants_[t].queue_id == 0) {
        // Queue 0 rides the shard's built-in driver: with one unmetered
        // default tenant this makes the 1-shard cluster's command stream
        // byte-identical to a bare KvSsd's.
        drivers_[s][t] = dev.Hooks().driver;
      } else {
        auto made =
            dev.CreateQueueDriver(tenants_[t].queue_id, shard_options.driver);
        if (!made.ok()) return made.status();
        drivers_[s][t] = made.value();
      }
      if (tenants_[t].credits_per_window > 0) {
        dev.Hooks().transport->SetAdmissionControl(
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
  for (auto& dev : shards_) dev->Hooks().transport->RefillQueueCredits();
}

// ---------------------------------------------------------------------------
// Serial ops: advance owner shard to router time, run, follow its finish.
// ---------------------------------------------------------------------------

Status KvCluster::DoPut(std::size_t tenant, std::string_view key,
                        ByteSpan value) {
  MaybeRefillCredits();
  const sim::Nanoseconds start = clock_.Now();
  const std::uint32_t s = ring_.OwnerOf(key);
  ++routed_keys_[s];
  // Tenant trace stamp (t + 1, like shard tags) is always on; the
  // attribution hooks bracket the op so the counter deltas the shard
  // accrues while serving it are charged to this tenant.
  const bool attr = attribution_->enabled();
  shard_tracers_[s]->SetClientOpContext(next_client_op_++);
  shard_tracers_[s]->SetTenantContext(static_cast<std::uint16_t>(tenant + 1));
  if (attr) {
    attribution_->TouchKey(ring_.HashKey(key));
    attribution_->ChargeBegin(s);
  }
  shards_[s]->Hooks().clock->AdvanceTo(start);
  const Status status = drivers_[s][tenant]->Put(key, value);
  shard_tracers_[s]->ClearClientOpContext();
  shard_tracers_[s]->ClearTenantContext();
  clock_.SetTime(std::max(start, shards_[s]->Now()));
  if (attr) {
    attribution_->ChargeEnd(tenant, s);
    attribution_->RecordOp(tenant, clock_.Now() - start, status.code(),
                           value.size());
  }
  fleet_->Poll();
  return status;
}

Result<Bytes> KvCluster::DoGet(std::size_t tenant, std::string_view key) {
  MaybeRefillCredits();
  const sim::Nanoseconds start = clock_.Now();
  const std::uint32_t s = ring_.OwnerOf(key);
  ++routed_keys_[s];
  const bool attr = attribution_->enabled();
  shard_tracers_[s]->SetClientOpContext(next_client_op_++);
  shard_tracers_[s]->SetTenantContext(static_cast<std::uint16_t>(tenant + 1));
  if (attr) {
    attribution_->TouchKey(ring_.HashKey(key));
    attribution_->ChargeBegin(s);
  }
  shards_[s]->Hooks().clock->AdvanceTo(start);
  auto got = drivers_[s][tenant]->Get(key);
  shard_tracers_[s]->ClearClientOpContext();
  shard_tracers_[s]->ClearTenantContext();
  clock_.SetTime(std::max(start, shards_[s]->Now()));
  if (attr) {
    attribution_->ChargeEnd(tenant, s);
    attribution_->RecordOp(tenant, clock_.Now() - start, got.status().code(),
                           got.ok() ? got.value().size() : 0);
  }
  fleet_->Poll();
  return got;
}

Status KvCluster::DoGetInto(std::size_t tenant, std::string_view key,
                            Bytes* value) {
  MaybeRefillCredits();
  const sim::Nanoseconds start = clock_.Now();
  const std::uint32_t s = ring_.OwnerOf(key);
  ++routed_keys_[s];
  const bool attr = attribution_->enabled();
  shard_tracers_[s]->SetClientOpContext(next_client_op_++);
  shard_tracers_[s]->SetTenantContext(static_cast<std::uint16_t>(tenant + 1));
  if (attr) {
    attribution_->TouchKey(ring_.HashKey(key));
    attribution_->ChargeBegin(s);
  }
  shards_[s]->Hooks().clock->AdvanceTo(start);
  const Status status = drivers_[s][tenant]->GetInto(key, value);
  shard_tracers_[s]->ClearClientOpContext();
  shard_tracers_[s]->ClearTenantContext();
  clock_.SetTime(std::max(start, shards_[s]->Now()));
  if (attr) {
    attribution_->ChargeEnd(tenant, s);
    attribution_->RecordOp(tenant, clock_.Now() - start, status.code(),
                           status.ok() ? value->size() : 0);
  }
  fleet_->Poll();
  return status;
}

Status KvCluster::DoDelete(std::size_t tenant, std::string_view key) {
  MaybeRefillCredits();
  const sim::Nanoseconds start = clock_.Now();
  const std::uint32_t s = ring_.OwnerOf(key);
  ++routed_keys_[s];
  const bool attr = attribution_->enabled();
  shard_tracers_[s]->SetClientOpContext(next_client_op_++);
  shard_tracers_[s]->SetTenantContext(static_cast<std::uint16_t>(tenant + 1));
  if (attr) {
    attribution_->TouchKey(ring_.HashKey(key));
    attribution_->ChargeBegin(s);
  }
  shards_[s]->Hooks().clock->AdvanceTo(start);
  const Status status = drivers_[s][tenant]->Delete(key);
  shard_tracers_[s]->ClearClientOpContext();
  shard_tracers_[s]->ClearTenantContext();
  clock_.SetTime(std::max(start, shards_[s]->Now()));
  if (attr) {
    attribution_->ChargeEnd(tenant, s);
    attribution_->RecordOp(tenant, clock_.Now() - start, status.code(), 0);
  }
  fleet_->Poll();
  return status;
}

// ---------------------------------------------------------------------------
// Batch ops: scatter by owner shard from one dispatch time, gather to the
// max finish. Sub-batches preserve each record's relative order, and
// GetBatch merges shard results back into REQUEST order (the KvStore
// contract) via the recorded origin indices.
// ---------------------------------------------------------------------------

Status KvCluster::DoPutBatch(std::size_t tenant,
                             std::span<const KvPair> batch) {
  if (batch.empty()) return Status::Ok();
  MaybeRefillCredits();
  const sim::Nanoseconds start = clock_.Now();
  const std::uint64_t client_op = next_client_op_++;
  const bool attr = attribution_->enabled();
  std::uint64_t payload_bytes = 0;
  std::vector<std::vector<KvPair>> groups(shards_.size());
  for (const KvPair& kv : batch) {
    const std::uint32_t s = ring_.OwnerOf(kv.key);
    ++routed_keys_[s];
    if (attr) attribution_->TouchKey(ring_.HashKey(kv.key));
    payload_bytes += kv.value.size();
    groups[s].push_back(kv);
  }
  sim::Nanoseconds latest = start;
  Status first_error = Status::Ok();
  std::uint32_t touched = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (groups[s].empty()) continue;
    ++touched;
    ++batch_subops_;
    // Every shard-local sub-batch carries the same router client op, so a
    // cross-shard batch can be reassembled from the per-shard traces.
    shard_tracers_[s]->SetClientOpContext(client_op);
    shard_tracers_[s]->SetTenantContext(
        static_cast<std::uint16_t>(tenant + 1));
    if (attr) attribution_->ChargeBegin(s);
    shards_[s]->Hooks().clock->AdvanceTo(start);
    const Status status = drivers_[s][tenant]->PutBatch(groups[s]);
    shard_tracers_[s]->ClearClientOpContext();
    shard_tracers_[s]->ClearTenantContext();
    if (attr) attribution_->ChargeEnd(tenant, s);
    if (!status.ok() && first_error.ok()) first_error = status;
    latest = std::max(latest, shards_[s]->Now());
  }
  if (touched >= 2) ++cross_shard_batches_;
  clock_.SetTime(latest);
  if (attr) {
    // One client-visible op: its latency is the gather (slowest shard).
    attribution_->RecordOp(tenant, latest - start, first_error.code(),
                           payload_bytes);
  }
  fleet_->Poll();
  return first_error;
}

Result<std::vector<KvCluster::BatchGetResult>> KvCluster::DoGetBatch(
    std::size_t tenant, std::span<const std::string> keys) {
  std::vector<BatchGetResult> merged(keys.size());
  if (keys.empty()) return merged;
  MaybeRefillCredits();
  const sim::Nanoseconds start = clock_.Now();
  const std::uint64_t client_op = next_client_op_++;
  const bool attr = attribution_->enabled();
  std::vector<std::vector<std::string>> sub(shards_.size());
  std::vector<std::vector<std::size_t>> origin(shards_.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint32_t s = ring_.OwnerOf(keys[i]);
    ++routed_keys_[s];
    if (attr) attribution_->TouchKey(ring_.HashKey(keys[i]));
    sub[s].push_back(keys[i]);
    origin[s].push_back(i);
  }
  sim::Nanoseconds latest = start;
  std::uint32_t touched = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (sub[s].empty()) continue;
    ++touched;
    ++batch_subops_;
    shard_tracers_[s]->SetClientOpContext(client_op);
    shard_tracers_[s]->SetTenantContext(
        static_cast<std::uint16_t>(tenant + 1));
    if (attr) attribution_->ChargeBegin(s);
    shards_[s]->Hooks().clock->AdvanceTo(start);
    auto got = drivers_[s][tenant]->GetBatch(sub[s]);
    shard_tracers_[s]->ClearClientOpContext();
    shard_tracers_[s]->ClearTenantContext();
    if (attr) attribution_->ChargeEnd(tenant, s);
    latest = std::max(latest, shards_[s]->Now());
    if (!got.ok()) {
      clock_.SetTime(latest);
      if (attr) {
        attribution_->RecordOp(tenant, latest - start, got.status().code(),
                               0);
      }
      fleet_->Poll();
      return got.status();
    }
    std::vector<BatchGetResult>& results = got.value();
    if (results.size() != sub[s].size()) {
      clock_.SetTime(latest);
      if (attr) {
        attribution_->RecordOp(tenant, latest - start,
                               StatusCode::kCorruption, 0);
      }
      fleet_->Poll();
      return Status::Corruption(
          "shard GetBatch violated the one-result-per-key contract");
    }
    // Un-scatter: results[j] answers sub[s][j], which was request slot
    // origin[s][j]. Origin slots are unique by construction.
    for (std::size_t j = 0; j < results.size(); ++j) {
      merged[origin[s][j]] = std::move(results[j]);
    }
  }
  if (touched >= 2) ++cross_shard_batches_;
  clock_.SetTime(latest);
  if (attr) {
    std::uint64_t returned_bytes = 0;
    for (const BatchGetResult& r : merged) returned_bytes += r.value.size();
    attribution_->RecordOp(tenant, latest - start, StatusCode::kOk,
                           returned_bytes);
  }
  fleet_->Poll();
  return merged;
}

Result<std::uint32_t> KvCluster::DoDeleteBatch(
    std::size_t tenant, std::span<const std::string> keys) {
  if (keys.empty()) return std::uint32_t{0};
  MaybeRefillCredits();
  const sim::Nanoseconds start = clock_.Now();
  const std::uint64_t client_op = next_client_op_++;
  const bool attr = attribution_->enabled();
  std::vector<std::vector<std::string>> sub(shards_.size());
  for (const std::string& key : keys) {
    const std::uint32_t s = ring_.OwnerOf(key);
    ++routed_keys_[s];
    if (attr) attribution_->TouchKey(ring_.HashKey(key));
    sub[s].push_back(key);
  }
  sim::Nanoseconds latest = start;
  std::uint32_t removed = 0;
  std::uint32_t touched = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (sub[s].empty()) continue;
    ++touched;
    ++batch_subops_;
    shard_tracers_[s]->SetClientOpContext(client_op);
    shard_tracers_[s]->SetTenantContext(
        static_cast<std::uint16_t>(tenant + 1));
    if (attr) attribution_->ChargeBegin(s);
    shards_[s]->Hooks().clock->AdvanceTo(start);
    auto got = drivers_[s][tenant]->DeleteBatch(sub[s]);
    shard_tracers_[s]->ClearClientOpContext();
    shard_tracers_[s]->ClearTenantContext();
    if (attr) attribution_->ChargeEnd(tenant, s);
    latest = std::max(latest, shards_[s]->Now());
    if (!got.ok()) {
      clock_.SetTime(latest);
      if (attr) {
        attribution_->RecordOp(tenant, latest - start, got.status().code(),
                               0);
      }
      fleet_->Poll();
      return got.status();
    }
    removed += got.value();
  }
  if (touched >= 2) ++cross_shard_batches_;
  clock_.SetTime(latest);
  if (attr) {
    attribution_->RecordOp(tenant, latest - start, StatusCode::kOk, 0);
  }
  fleet_->Poll();
  return removed;
}

Status KvCluster::DoFlush() {
  // Flush is fleet-wide maintenance, not tenant traffic: it stays untagged,
  // so its device work lands in the attribution plane's untagged residual.
  const sim::Nanoseconds start = clock_.Now();
  const std::uint64_t client_op = next_client_op_++;
  sim::Nanoseconds latest = start;
  Status first_error = Status::Ok();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    KvSsd& dev = *shards_[s];
    shard_tracers_[s]->SetClientOpContext(client_op);
    dev.Hooks().clock->AdvanceTo(start);
    const Status status = dev.Flush();
    shard_tracers_[s]->ClearClientOpContext();
    if (!status.ok() && first_error.ok()) first_error = status;
    latest = std::max(latest, dev.Now());
  }
  clock_.SetTime(latest);
  fleet_->Poll();
  return first_error;
}

// ---------------------------------------------------------------------------
// Default-tenant KvStore surface
// ---------------------------------------------------------------------------

Status KvCluster::Put(std::string_view key, ByteSpan value) {
  return DoPut(0, key, value);
}
Result<Bytes> KvCluster::Get(std::string_view key) { return DoGet(0, key); }
Status KvCluster::GetInto(std::string_view key, Bytes* value) {
  return DoGetInto(0, key, value);
}
Status KvCluster::Delete(std::string_view key) { return DoDelete(0, key); }
Status KvCluster::PutBatch(std::span<const KvPair> batch) {
  return DoPutBatch(0, batch);
}
Result<std::vector<KvCluster::BatchGetResult>> KvCluster::GetBatch(
    std::span<const std::string> keys) {
  return DoGetBatch(0, keys);
}
Result<std::uint32_t> KvCluster::DeleteBatch(
    std::span<const std::string> keys) {
  return DoDeleteBatch(0, keys);
}
Status KvCluster::Flush() { return DoFlush(); }

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

StoreSnapshot KvCluster::Inspect() const {
  StoreSnapshot store;
  InspectInto(&store);
  return store;
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
