// The two cluster workloads: one stream, two observer settings.
//
// cluster_blend_4shard: a 4-shard KvCluster with two tenants on separate
//   queue pairs and every observer off. Tenant 0 ("frontend", unmetered)
//   issues Zipfian point GET/PUT of 64 B values; tenant 1 ("batch", metered)
//   issues cross-shard PutBatch/GetBatch of 8 x 128 B. One closed-loop
//   client issues the interleaved stream through Tenant(t).
// cluster_observed_4shard: the same stream with every observer on: per-shard
//   telemetry with the canned watchdog rules, the fleet aggregator, the
//   attribution plane with per-tenant SLOs, and sampled tracing. The timed
//   phase ends with Finalize and every export rendered to memory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "cluster/kv_cluster.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/export.h"
#include "telemetry/fleet.h"
#include "workload.h"

namespace perfbench {

using bandslim::ByteSpan;
using bandslim::Bytes;
using bandslim::KvStore;
using bandslim::MutByteSpan;
using bandslim::Status;
using bandslim::StatusCode;
using bandslim::cluster::ClusterConfig;
using bandslim::cluster::KvCluster;
namespace telemetry = bandslim::telemetry;

namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::uint64_t kDrainEvery = 4096;
// Admission credits per 100 us refill window on each shard for the batch
// tenant: far above what the blend issues, so the clean blend sheds nothing
// while every batch command still passes the metering path.
constexpr std::uint32_t kBatchCredits = 32;
// The observed workload runs the observers as the repository's own observer
// benches configure them: shard telemetry at the library's default cadence
// with bench/timeline_report's canned rules, the fleet grid at the 2 ms of
// bench/fleet_timeline and bench/tenant_slo_report with the union of their
// rules, and the attribution plane with tenant_slo_report's SLOs.
constexpr bandslim::sim::Nanoseconds kFleetInterval =
    2 * bandslim::sim::kMillisecond;
// Sampled tracing: one op in kTraceSampleEvery. The untimed rings are not
// drained, so each shard's default 32 Ki-record op ring must keep every
// sampled op of a repetition (the busiest shard takes about 24k ops, so
// about 6k records); RunRep checks that none drop.
constexpr std::uint64_t kTraceSampleEvery = 4;

ClusterConfig BlendConfig(bool observed, bool exact_trace) {
  ClusterConfig cc;
  cc.num_shards = kShards;
  cc.shard = BenchDeviceOptions();
  cc.tenants.resize(2);
  cc.tenants[0].name = "frontend";
  cc.tenants[0].queue_id = 0;
  cc.tenants[1].name = "batch";
  cc.tenants[1].queue_id = 1;
  cc.tenants[1].credits_per_window = kBatchCredits;
  if (observed) {
    cc.shard.telemetry.enabled = true;
    cc.shard.telemetry.rules = {
        telemetry::RetryStormRule(/*retries=*/1, /*n=*/1),
        telemetry::ZeroOpStallRule(/*n=*/10),
        telemetry::CompactionDebtRule(/*budget_bytes=*/2048, /*n=*/1),
        telemetry::L0PileupRule(/*tables=*/4, /*n=*/1),
        telemetry::MemtableStallRule(/*stalls=*/1, /*n=*/1),
    };
    cc.shard.trace.enabled = true;
    cc.shard.trace.sample_every = kTraceSampleEvery;
    cc.fleet.enabled = true;
    cc.fleet.sample_interval_ns = kFleetInterval;
    cc.fleet.rules = {
        telemetry::ShardImbalanceRule(/*ratio_milli=*/3000, /*n=*/3),
        telemetry::RingSkewRule(/*skew_permille=*/500, /*n=*/3),
        telemetry::StragglerShardRule(/*n=*/6),
        telemetry::attribution::TenantBurnRateFastRule(1),
        telemetry::attribution::TenantBurnRateSlowRule(1),
        telemetry::attribution::HotRangeRule(/*share_permille=*/300, /*n=*/2),
    };
    cc.attribution.enabled = true;
    cc.attribution.heat_fanout = 64;
    cc.attribution.slo.resize(2);
    cc.attribution.slo[0].latency_target_ns = 200 * bandslim::sim::kMicrosecond;
    cc.attribution.slo[0].availability_target_permille = 990;
    cc.attribution.slo[1].latency_target_ns = 0;
    cc.attribution.slo[1].availability_target_permille = 990;
  }
  if (exact_trace) {
    cc.shard.trace.enabled = true;
    cc.shard.trace.sample_every = 1;
  }
  return cc;
}

std::unique_ptr<KvCluster> OpenCluster(const ClusterConfig& cc) {
  auto opened = KvCluster::Open(cc);
  if (!opened.ok()) {
    std::fprintf(stderr, "KvCluster::Open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(opened).value();
}

// Writes every preload key directly on its owner shard (untagged: no tenant
// is charged for set-up), then syncs the router clock and flushes. A
// non-null `timer` is told of every key written.
Status Preload(KvCluster& c, const Stream& s, LiveBytesModel* model,
               SegmentTimer* timer = nullptr) {
  Bytes value(s.max_value_size);
  for (std::uint32_t k = 0; k < s.preload_sizes.size(); ++k) {
    const MutByteSpan span(value.data(), s.preload_sizes[k]);
    FillValue(span, kPreloadStamp + k);
    const std::string& key = s.keys[k];
    BANDSLIM_RETURN_IF_ERROR(c.shard(c.ShardOf(key)).Put(key, ByteSpan(span)));
    model->Write(k, static_cast<std::uint32_t>(key.size()), s.preload_sizes[k],
                 kPreloadStamp + k);
    if (timer != nullptr) timer->OpDone();
  }
  c.SyncClockToShards();
  return c.Flush();
}

// Per-op scratch for batch members, reused across ops.
struct BatchScratch {
  std::vector<KvStore::KvPair> pairs;
  std::vector<std::string> names;
};

// Issues op `index` of the stream on `store`, checks the answer against the
// model, and records writes in it. Returns the store's status.
Status IssueOp(KvStore& store, const Stream& s, std::size_t index,
               LiveBytesModel* model, BatchScratch* scratch, Bytes* value,
               Bytes* got, RepOutcome* out) {
  const Op& op = s.ops[index];
  const std::uint32_t* members = s.batch_keys.data() + op.key;
  switch (op.kind) {
    case OpKind::kPut: {
      const std::string& key = s.keys[op.key];
      const MutByteSpan span(value->data(), op.value_size);
      FillValue(span, OpStamp(index, 0));
      const Status st = store.Put(key, ByteSpan(span));
      out->value_bytes += op.value_size;
      if (st.ok()) {
        model->Write(op.key, static_cast<std::uint32_t>(key.size()),
                     op.value_size, OpStamp(index, 0));
      }
      return st;
    }
    case OpKind::kGet: {
      const Status st = store.GetInto(s.keys[op.key], got);
      if (st.ok() && !StampMatches(ByteSpan(*got), *model->Find(op.key))) {
        out->Fail("get returned a stale or foreign value");
      }
      return st;
    }
    case OpKind::kPutBatch: {
      scratch->pairs.resize(op.batch_len);
      for (std::uint16_t j = 0; j < op.batch_len; ++j) {
        KvStore::KvPair& kv = scratch->pairs[j];
        kv.key = s.keys[members[j]];
        kv.value.resize(op.value_size);
        FillValue(MutByteSpan(kv.value), OpStamp(index, j));
      }
      const Status st = store.PutBatch(
          std::span<const KvStore::KvPair>(scratch->pairs));
      out->value_bytes += static_cast<std::uint64_t>(op.value_size) *
                          op.batch_len;
      if (st.ok()) {
        for (std::uint16_t j = 0; j < op.batch_len; ++j) {
          model->Write(members[j],
                       static_cast<std::uint32_t>(s.keys[members[j]].size()),
                       op.value_size, OpStamp(index, j));
        }
      }
      return st;
    }
    case OpKind::kGetBatch: {
      scratch->names.resize(op.batch_len);
      for (std::uint16_t j = 0; j < op.batch_len; ++j) {
        scratch->names[j] = s.keys[members[j]];
      }
      auto res = store.GetBatch(std::span<const std::string>(scratch->names));
      if (!res.ok()) return res.status();
      for (std::uint16_t j = 0; j < op.batch_len; ++j) {
        const auto& r = res.value()[j];
        if (!r.found ||
            !StampMatches(ByteSpan(r.value), *model->Find(members[j]))) {
          out->Fail("get-batch returned a stale, foreign, or missing value");
          break;
        }
      }
      return Status::Ok();
    }
  }
  return Status::Ok();
}

// Shard-direct form of op `index`: the same keys and values sent to
// shard(ShardOf(key)) of `c`, batches pre-split by owner shard. The split is
// built by Prepare() outside the timed call.
class ShardDirect {
 public:
  explicit ShardDirect(KvCluster* c) : c_(c), groups_(kShards), names_(kShards) {}

  void Prepare(const Stream& s, std::size_t index) {
    const Op& op = s.ops[index];
    for (auto& g : groups_) g.clear();
    for (auto& n : names_) n.clear();
    if (op.kind == OpKind::kPut || op.kind == OpKind::kGet) {
      shard_ = c_->ShardOf(s.keys[op.key]);
      if (op.kind == OpKind::kPut) {
        value_.resize(op.value_size);
        FillValue(MutByteSpan(value_), OpStamp(index, 0));
      }
      return;
    }
    for (std::uint16_t j = 0; j < op.batch_len; ++j) {
      const std::string& key = s.keys[s.batch_keys[op.key + j]];
      const std::uint32_t sh = c_->ShardOf(key);
      if (op.kind == OpKind::kPutBatch) {
        KvStore::KvPair kv{key, Bytes(op.value_size)};
        FillValue(MutByteSpan(kv.value), OpStamp(index, j));
        groups_[sh].push_back(std::move(kv));
      } else {
        names_[sh].push_back(key);
      }
    }
  }

  Status Issue(const Stream& s, std::size_t index) {
    const Op& op = s.ops[index];
    switch (op.kind) {
      case OpKind::kPut:
        return c_->shard(shard_).Put(s.keys[op.key], ByteSpan(value_));
      case OpKind::kGet:
        return c_->shard(shard_).GetInto(s.keys[op.key], &got_);
      case OpKind::kPutBatch:
        for (std::uint32_t sh = 0; sh < kShards; ++sh) {
          if (groups_[sh].empty()) continue;
          BANDSLIM_RETURN_IF_ERROR(c_->shard(sh).PutBatch(
              std::span<const KvStore::KvPair>(groups_[sh])));
        }
        return Status::Ok();
      case OpKind::kGetBatch:
        for (std::uint32_t sh = 0; sh < kShards; ++sh) {
          if (names_[sh].empty()) continue;
          auto res = c_->shard(sh).GetBatch(
              std::span<const std::string>(names_[sh]));
          if (!res.ok()) return res.status();
        }
        return Status::Ok();
    }
    return Status::Ok();
  }

 private:
  KvCluster* c_;
  std::uint32_t shard_ = 0;
  Bytes value_, got_;
  std::vector<std::vector<KvStore::KvPair>> groups_;
  std::vector<std::vector<std::string>> names_;
};

class ClusterWorkload : public Workload {
 public:
  ClusterWorkload(std::uint64_t seed, bool observed)
      : Workload(MakeBlendStream(seed)), observed_(observed) {}

  RepOutcome Rep(bool exact_trace) override {
    return RunRep(observed_, exact_trace);
  }

  bool Setup(std::vector<double>* segments) override {
    LiveBytesModel model(stream_.keys.size());
    SegmentTimer timer(segments);
    timer.Start();
    std::unique_ptr<KvCluster> c = OpenCluster(BlendConfig(observed_, false));
    const Status preloaded = Preload(*c, stream_, &model, &timer);
    timer.Finish();
    return preloaded.ok();
  }

  // Observers must not change the simulated outcome: the observed run must
  // match an unobserved run of the same stream in every modeled number.
  std::string Check(const RepOutcome& first) override {
    if (!observed_) return "";
    const RepOutcome twin = RunRep(/*observed=*/false, /*exact_trace=*/false);
    if (twin.failed != 0) return "unobserved twin failed: " + twin.first_failure;
    if (ModelDigest(twin) != ModelDigest(first)) {
      return "observed run diverged from its unobserved twin";
    }
    return "";
  }

  // Observers: whole repetitions, unobserved and observed in turn, each on
  // its own store with nothing interleaved. telemetry = observed timed phase
  // (exports excluded) - unobserved, per op, median over adjacent pairs.
  // Router: twins, outermost first: unobserved cluster via Tenant(t), and
  // unobserved cluster with each op sent straight to shard(ShardOf(key));
  // cluster = facade - shard-direct. Ring lookups are timed on their own.
  std::string Peel(Metrics* out) override {
    if (observed_) {
      const std::string problem = MeasureObservers(out);
      if (!problem.empty()) return problem;
    }
    const Stream& s = stream_;
    std::vector<std::unique_ptr<KvCluster>> twins;
    twins.push_back(OpenCluster(BlendConfig(false, false)));
    twins.push_back(OpenCluster(BlendConfig(false, false)));
    const std::size_t levels = twins.size();
    std::vector<LiveBytesModel> models(levels, LiveBytesModel(s.keys.size()));
    for (std::size_t l = 0; l < levels; ++l) {
      if (!Preload(*twins[l], s, &models[l]).ok()) return "peel: preload failed";
    }
    ShardDirect direct(twins.back().get());
    std::vector<BatchScratch> scratch(levels - 1);
    std::vector<Bytes> values(levels - 1, Bytes(s.max_value_size));
    Bytes got;
    RepOutcome checks;  // Value mismatches seen by the facade twins.
    PeelLedger ledger(levels);
    std::vector<double> ns(levels);
    std::uint64_t errors = 0;
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      const std::size_t tenant = s.ops[i].tenant;
      direct.Prepare(s, i);
      // Outermost level first on even ops, innermost first on odd ones, so
      // no level always runs on the caches another just warmed.
      for (std::size_t k = 0; k < levels; ++k) {
        const std::size_t l = i % 2 == 0 ? k : levels - 1 - k;
        const auto t0 = WallClock::now();
        const Status st =
            l + 1 == levels
                ? direct.Issue(s, i)
                : IssueOp(twins[l]->Tenant(tenant), s, i, &models[l],
                          &scratch[l], &values[l], &got, &checks);
        ns[l] = NsBetween(t0, WallClock::now());
        errors += st.ok() ? 0 : 1;
      }
      ledger.Add(ns.data());
    }
    (*out)["cluster.host_ns_per_op"] = ledger.SelfNsPerOp(0);
    (*out)["cluster.ring_host_ns"] = RingLookupNs(*twins[0]);
    if (errors != 0) return "peel: twin ops failed";
    if (checks.failed != 0) return "peel: " + checks.first_failure;
    return "";
  }

 private:
  static constexpr int kObserverPairs = 3;

  std::string MeasureObservers(Metrics* out) {
    std::vector<double> unobserved_ns, observer_ns;
    double samples = 0.0;
    for (int p = 0; p < kObserverPairs; ++p) {
      const RepOutcome bare = RunRep(/*observed=*/false, /*exact_trace=*/false);
      const RepOutcome seen = RunRep(/*observed=*/true, /*exact_trace=*/false);
      if (bare.failed != 0 || seen.failed != 0) {
        return "observer pairs: " +
               (bare.failed != 0 ? bare.first_failure : seen.first_failure);
      }
      const double ops = static_cast<double>(seen.ops);
      const double bare_ns = bare.run_s * 1e9 / ops;
      unobserved_ns.push_back(bare_ns);
      observer_ns.push_back((seen.run_s * 1e9 - seen.export_ms * 1e6) / ops -
                            bare_ns);
      samples = static_cast<double>(seen.shard_samples + seen.fleet_samples);
    }
    const double per_op = Median(observer_ns);
    (*out)["telemetry.host_ns_per_op"] = per_op;
    (*out)["telemetry.host_us_per_sample"] =
        per_op * static_cast<double>(stream_.ops.size()) / 1e3 / samples;
    (*out)["telemetry.unobserved_ns_per_op"] = Median(unobserved_ns);
    return "";
  }
  // Host ns per HashRing owner lookup over every key the stream routes.
  double RingLookupNs(const KvCluster& c) const {
    const Stream& s = stream_;
    std::vector<const std::string*> routed;
    for (const Op& op : s.ops) {
      if (op.batch_len == 0) {
        routed.push_back(&s.keys[op.key]);
      } else {
        for (std::uint16_t j = 0; j < op.batch_len; ++j) {
          routed.push_back(&s.keys[s.batch_keys[op.key + j]]);
        }
      }
    }
    constexpr int kPasses = 8;
    std::uint64_t owners = 0;
    const auto t0 = WallClock::now();
    for (int p = 0; p < kPasses; ++p) {
      for (const std::string* key : routed) owners += c.ShardOf(*key);
    }
    const double ns = NsBetween(t0, WallClock::now());
    // The owner sum keeps the lookups observable; it is never zero for a
    // stream that touches every shard.
    if (owners == 0) return 0.0;
    return ns / static_cast<double>(routed.size() * kPasses);
  }

  RepOutcome RunRep(bool observed, bool exact_trace) {
    const Stream& s = stream_;
    RepOutcome out;
    LiveBytesModel model(s.keys.size());
    const auto t0 = WallClock::now();
    std::unique_ptr<KvCluster> c = OpenCluster(BlendConfig(observed, exact_trace));
    const Status preloaded = Preload(*c, s, &model);
    out.setup_s = SecondsBetween(t0, WallClock::now());
    if (!preloaded.ok()) {
      out.Fail("preload: " + preloaded.ToString());
      return out;
    }

    std::vector<bandslim::trace::Tracer*> tracers;
    if (exact_trace) {
      for (std::uint32_t sh = 0; sh < kShards; ++sh) {
        tracers.push_back(c->shard(sh).Hooks().tracer);
        tracers.back()->Clear();  // Drop the untagged preload records.
      }
    }
    KvStore* facades[2] = {&c->Tenant(0), &c->Tenant(1)};
    BatchScratch scratch;
    Bytes value(s.max_value_size), got;
    out.lat_ns.reserve(s.ops.size());
    const bandslim::StoreSnapshot snap0 = c->Inspect();
    const std::uint64_t vstart = c->Now();

    SegmentTimer timer(&out.segment_s);
    timer.Start();
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      const std::uint64_t v0 = c->Now();
      const Status st = IssueOp(*facades[s.ops[i].tenant], s, i, &model,
                                &scratch, &value, &got, &out);
      out.lat_ns.push_back(c->Now() - v0);
      if (st.code() == StatusCode::kBusy) {
        out.Fail("admission shed (kBusy) in the clean blend");
      } else if (!st.ok()) {
        out.Fail("op: " + st.ToString());
      }
      if (!tracers.empty() && (i + 1) % kDrainEvery == 0) DrainAll(tracers, &out);
      timer.OpDone();
    }
    const Status flushed = c->Flush();
    if (observed) {
      for (std::uint32_t sh = 0; sh < kShards; ++sh) {
        if (c->shard(sh).Hooks().tracer->dropped_ops() != 0) {
          out.Fail("sampled tracer dropped ops");
        }
      }
      const auto e0 = WallClock::now();
      for (std::uint32_t sh = 0; sh < kShards; ++sh) {
        c->shard(sh).Hooks().sampler->Finalize();
      }
      c->fleet().Finalize();
      std::uint64_t bytes = 0;
      for (std::uint32_t sh = 0; sh < kShards; ++sh) {
        bytes += telemetry::ToPrometheusText(c->shard(sh).telemetry()).size();
        bytes += telemetry::ToJsonl(c->shard(sh).telemetry()).size();
      }
      bytes += c->fleet().ToPrometheusText().size();
      bytes += c->fleet().ToJsonl().size();
      bytes += c->fleet().ShardsJsonl().size();
      bytes += c->attribution().SloJsonl().size();
      out.export_bytes = bytes;
      out.export_ms = NsBetween(e0, WallClock::now()) / 1e6;
    }
    out.run_s = timer.Finish();
    if (!flushed.ok()) out.Fail("flush: " + flushed.ToString());
    if (!tracers.empty()) DrainAll(tracers, &out);

    out.ops = s.ops.size();
    out.attempted += out.ops;
    out.elapsed_ns = static_cast<std::int64_t>(c->Now() - vstart);
    const bandslim::StoreSnapshot snap = c->Inspect();
    out.delta = StatsDelta(snap.stats, snap0.stats);
    for (const auto& shard : snap.shards) {
      out.mapped_pages += shard.ftl_mapped_pages;
      out.shard_samples += shard.telemetry_samples;
      out.shard_events += shard.telemetry_events;
    }
    out.cross_shard_batches = snap.cross_shard_batches - snap0.cross_shard_batches;
    out.batch_subops = snap.batch_subops - snap0.batch_subops;
    out.qos_refill_windows = snap.qos_refill_windows - snap0.qos_refill_windows;
    out.fleet_samples = snap.fleet_samples;
    out.live_bytes = model.live_bytes();
    ReadBack(*c, s, model, &out);
    return out;
  }

  static void DrainAll(const std::vector<bandslim::trace::Tracer*>& tracers,
                       RepOutcome* out) {
    for (bandslim::trace::Tracer* t : tracers) {
      if (DrainTracer(t, &out->vt_ns) < 0) out->Fail("tracer dropped ops");
    }
  }

  bool observed_;
};

}  // namespace

std::unique_ptr<Workload> MakeCluster(std::uint64_t seed, bool observed) {
  return std::make_unique<ClusterWorkload>(seed, observed);
}

}  // namespace perfbench
