#include "workload/runner.h"

#include <algorithm>
#include <functional>

#include "sim/event_engine.h"

namespace bandslim::workload {

KvSsdStats StatsDelta(const KvSsdStats& after, const KvSsdStats& before) {
  KvSsdStats d = after;
  d.elapsed_ns -= before.elapsed_ns;
  for (const auto counter : kStatsCounters) d.*counter -= before.*counter;
  return d;
}

namespace {

// Reusable PUT scratch holding Op's payload rule: refilled only when the
// fill byte changes or a larger value arrives; only the stamp bytes are
// rewritten per op.
class PayloadBuffer {
 public:
  ByteSpan For(const Op& op) {
    if (op.fill != fill_ || op.value_size > bytes_.size()) {
      fill_ = op.fill;
      bytes_.assign(std::max<std::size_t>(bytes_.size(), op.value_size),
                    op.fill);
    }
    for (std::size_t b = 0; b < 8 && b < op.value_size; ++b) {
      bytes_[b] = static_cast<std::uint8_t>(op.stamp >> (8 * b));
    }
    return ByteSpan(bytes_).subspan(0, op.value_size);
  }

 private:
  Bytes bytes_;
  int fill_ = -1;  // No fill yet.
};

// Issues one op on a KvStore, a shard KvSsd, or a queue-pair KvDriver.
template <typename Target>
Status Apply(Target& target, const Op& op, PayloadBuffer& payload, Bytes* got) {
  switch (op.kind) {
    case OpKind::kPut:
      return target.Put(op.key, payload.For(op));
    case OpKind::kGet:
      return target.GetInto(op.key, got);
    case OpKind::kDelete:
      return target.Delete(op.key);
  }
  return Status::InvalidArgument("unknown op kind");
}

// Starts fetching an op record the executor will issue next. A stream is
// larger than the cache and every device op sweeps the simulator's own
// working set in between, so without this each op's inline key is a cache
// miss on the hot path.
void Prefetch(const Op& op) {
  __builtin_prefetch(&op);
  __builtin_prefetch(reinterpret_cast<const char*>(&op) + sizeof(Op) - 1);
}

// Books a finished op under the outcome rules. Returns false (and records
// the status) when the op failed and the run must stop.
bool Book(RunResult& result, const Op& op, const Status& st,
          sim::Nanoseconds latency) {
  const bool miss = op.kind == OpKind::kGet && st.IsNotFound();
  if (!st.ok() && !miss && !st.IsBusy()) {
    result.status = st;
    return false;
  }
  if (op.tenant >= result.tenants.size()) result.tenants.resize(op.tenant + 1u);
  OpTally& t = result.tenants[op.tenant];
  ++t.ops;
  t.gets += op.kind == OpKind::kGet;
  t.deletes += op.kind == OpKind::kDelete;
  t.misses += miss;
  t.shed += st.IsBusy();
  if (op.kind == OpKind::kPut) t.requested_value_bytes += op.value_size;
  t.latency_ns.Record(latency);
  return true;
}

RunResult Failed(Status status) {
  RunResult result;
  result.status = std::move(status);
  return result;
}

// Sums the per-tenant tallies into the whole-run tally.
void Total(RunResult& result) {
  for (const OpTally& t : result.tenants) {
    result.ops += t.ops;
    result.gets += t.gets;
    result.deletes += t.deletes;
    result.misses += t.misses;
    result.shed += t.shed;
    result.requested_value_bytes += t.requested_value_bytes;
    result.latency_ns.Merge(t.latency_ns);
  }
}

// One lane of the multi-stream executor: a target, the clock it runs on,
// and the stream indices it issues, in order.
template <typename Target>
struct Lane {
  Target* target = nullptr;
  sim::VirtualClock* clock = nullptr;
  std::vector<std::size_t> ops;
};

// The multi-stream executor. Each lane is a closed loop in its own time
// frame: its next op issues when its previous op finished. The engine
// always runs the lane with the smallest local time (ties by schedule
// order), entering that lane's frame first — lanes sharing one device clock
// (queue pairs) each see their own time, a lane with a private clock (a
// shard) is already there. elapsed_ns is the latest lane finish - `start`.
template <typename Target>
RunResult RunLanes(std::vector<Lane<Target>>& lanes, const OpStream& stream,
                   sim::Nanoseconds start) {
  RunResult result;
  result.tenants.resize(1);  // Book grows it to the highest tenant seen.

  // One payload buffer per lane: a lane's buffer must stay intact while
  // other lanes interleave between its fragments' submissions.
  std::vector<PayloadBuffer> payloads(lanes.size());
  std::vector<Bytes> gots(lanes.size());
  sim::Nanoseconds latest_finish = start;

  sim::VirtualClock frame;
  sim::EventEngine engine(&frame);
  // At most one pending turn per lane: pre-size the heap and the callback
  // arena (plus slack for the drain buffer) so the loop never grows them.
  engine.Reserve(2u * lanes.size() + 4u);
  std::function<void(std::size_t, std::size_t)> turn = [&](std::size_t l,
                                                           std::size_t pos) {
    if (!result.ok()) return;
    Lane<Target>& lane = lanes[l];
    lane.clock->SetTime(frame.Now());
    const Op& op = stream[lane.ops[pos]];
    const Status st = Apply(*lane.target, op, payloads[l], &gots[l]);
    if (!Book(result, op, st, lane.clock->Now() - frame.Now())) return;
    latest_finish = std::max(latest_finish, lane.clock->Now());
    if (pos + 1 < lane.ops.size()) {
      Prefetch(stream[lane.ops[pos + 1]]);
      engine.Schedule(lane.clock->Now(), [&turn, l, pos] { turn(l, pos + 1); });
    }
  };
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    if (lanes[l].ops.empty()) continue;
    engine.Schedule(lanes[l].clock->Now(), [&turn, l] { turn(l, 0); });
  }
  engine.RunUntilIdle();

  result.elapsed_ns = latest_finish - start;
  Total(result);
  return result;
}

}  // namespace

RunResult RunSerial(std::span<KvStore* const> targets, const OpStream& stream) {
  if (targets.empty()) return Failed(Status::InvalidArgument("no targets"));
  RunResult result;
  result.tenants.resize(targets.size());
  KvStore& timeline = *targets[0];
  PayloadBuffer payload;
  Bytes got;

  const KvSsdStats before = timeline.GetStats();
  const sim::Nanoseconds start = timeline.Now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Op& op = stream[i];
    if (i + 1 < stream.size()) Prefetch(stream[i + 1]);
    if (op.tenant >= targets.size()) {
      result.status = Status::InvalidArgument("op tenant has no target");
      break;
    }
    KvStore& target = *targets[op.tenant];
    const sim::Nanoseconds op_start = target.Now();
    const Status st = Apply(target, op, payload, &got);
    if (!Book(result, op, st, target.Now() - op_start)) break;
  }
  result.elapsed_ns = timeline.Now() - start;
  result.delta = StatsDelta(timeline.GetStats(), before);
  Total(result);
  return result;
}

RunResult RunSerial(KvStore& store, const OpStream& stream) {
  KvStore* const target = &store;
  return RunSerial(std::span<KvStore* const>(&target, 1), stream);
}

RunResult RunParallel(KvSsd& ssd, const OpStream& stream,
                      std::uint16_t num_queues) {
  if (num_queues == 0) return Failed(Status::InvalidArgument("no queues"));
  const KvSsd::TestHooks hooks = ssd.Hooks();
  // Queue pair q runs ops q, q+Q, q+2Q, ...; queue 0 rides the device's
  // built-in driver.
  std::vector<Lane<driver::KvDriver>> lanes(num_queues);
  for (std::uint16_t q = 0; q < num_queues; ++q) {
    lanes[q].clock = hooks.clock;
    lanes[q].target = hooks.driver;
    if (q == 0) continue;
    auto d = ssd.CreateQueueDriver(q, ssd.options().driver);
    if (!d.ok()) return Failed(d.status());
    lanes[q].target = d.value();
  }
  for (Lane<driver::KvDriver>& lane : lanes) {
    lane.ops.reserve(stream.size() / num_queues + 1);
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    lanes[i % num_queues].ops.push_back(i);
  }

  const bool was_parallel = hooks.transport->parallel_arbitration();
  hooks.transport->SetParallelArbitration(true);
  const KvSsdStats before = ssd.GetStats();
  const sim::Nanoseconds start = hooks.clock->Now();
  RunResult result = RunLanes(lanes, stream, start);
  // Leave the clock at the run's end (the last turn may have been an
  // earlier-finishing lane's frame).
  hooks.clock->SetTime(std::max(hooks.clock->Now(), start + result.elapsed_ns));
  hooks.transport->SetParallelArbitration(was_parallel);
  result.delta = StatsDelta(ssd.GetStats(), before);
  return result;
}

RunResult RunParallel(cluster::KvCluster& cluster, const OpStream& stream) {
  std::vector<Lane<KvSsd>> lanes(cluster.num_shards());
  for (std::uint32_t s = 0; s < lanes.size(); ++s) {
    lanes[s].target = &cluster.shard(s);
    lanes[s].clock = cluster.shard(s).Hooks().clock;
  }
  for (std::size_t i = 0; i < stream.size(); ++i) {
    lanes[cluster.ShardOf(stream[i].key)].ops.push_back(i);
  }

  // Common dispatch barrier: every shard starts in the router's frame.
  const sim::Nanoseconds start = cluster.Now();
  for (const Lane<KvSsd>& lane : lanes) lane.clock->AdvanceTo(start);
  const KvSsdStats before = cluster.GetStats();
  RunResult result = RunLanes(lanes, stream, start);
  // Hand the router a consistent timeline: the run ends when the slowest
  // shard finishes.
  cluster.SyncClockToShards();
  result.delta = StatsDelta(cluster.GetStats(), before);
  result.delta.elapsed_ns = result.elapsed_ns;
  return result;
}

Status PreloadMixedKeys(KvStore& store, const MixedWorkloadSpec& spec) {
  BANDSLIM_RETURN_IF_ERROR(RunSerial(store, PreloadStream(spec)).status);
  return store.Flush();
}

Status PreloadTenantBlend(cluster::KvCluster& cluster,
                          const TenantBlendSpec& spec) {
  // Harness-driven direct shard traffic: the preload is NOT charged to any
  // tenant — it lands in the attribution plane's untagged residual, exactly
  // like any other background/setup work.
  BANDSLIM_RETURN_IF_ERROR(RunParallel(cluster, PreloadStream(spec)).status);
  return cluster.Flush();
}

}  // namespace bandslim::workload
