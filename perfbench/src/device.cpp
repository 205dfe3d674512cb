// The two bare-device workloads.
//
// fill_mixgraph_1q: PUT-only mixgraph (paper workload M) on a fresh KvSsd,
//   one synchronous client through the KvStore API.
// read_zipf_4q: a preloaded KvSsd takes 90% GET / 10% PUT over four queue
//   pairs. Stream s takes ops s, s+4, ...; stream 0 goes through the KvSsd
//   facade, streams 1-3 through CreateQueueDriver drivers, and the
//   benchmark's own EventEngine loop interleaves them by virtual time with
//   parallel arbitration on.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "sim/event_engine.h"
#include "workload.h"

namespace perfbench {

using bandslim::ByteSpan;
using bandslim::Bytes;
using bandslim::KvSsd;
using bandslim::KvSsdOptions;
using bandslim::MutByteSpan;
using bandslim::Status;

namespace {

constexpr std::uint16_t kReadStreams = 4;
// Exact-trace repetitions fold the tracer's op ring into stage sums every
// this many ops, well inside the ring's 32 Ki-op capacity.
constexpr std::uint64_t kDrainEvery = 4096;

std::unique_ptr<KvSsd> OpenDevice(const KvSsdOptions& options) {
  auto opened = KvSsd::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "KvSsd::Open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(opened).value();
}

KvSsdOptions DeviceOptions(bool exact_trace, std::uint16_t queues) {
  KvSsdOptions o = BenchDeviceOptions();
  o.num_queues = queues;
  o.trace.enabled = exact_trace;
  return o;
}

// Writes every preload key once through the device facade, then flushes.
// A non-null `timer` is told of every key written.
Status Preload(KvSsd& ssd, const Stream& s, LiveBytesModel* model,
               SegmentTimer* timer = nullptr) {
  Bytes value(s.max_value_size);
  for (std::uint32_t k = 0; k < s.preload_sizes.size(); ++k) {
    const MutByteSpan span(value.data(), s.preload_sizes[k]);
    FillValue(span, kPreloadStamp + k);
    BANDSLIM_RETURN_IF_ERROR(ssd.Put(s.keys[k], ByteSpan(span)));
    model->Write(k, static_cast<std::uint32_t>(s.keys[k].size()),
                 s.preload_sizes[k], kPreloadStamp + k);
    if (timer != nullptr) timer->OpDone();
  }
  return ssd.Flush();
}

void Finish(KvSsd& ssd, const Stream& s, const LiveBytesModel& model,
            const bandslim::KvSsdStats& before, std::uint64_t vstart,
            RepOutcome* out) {
  out->delta = StatsDelta(ssd.GetStats(), before);
  out->elapsed_ns = static_cast<std::int64_t>(ssd.Now() - vstart);
  out->mapped_pages = ssd.InspectDevice().ftl_mapped_pages;
  out->live_bytes = model.live_bytes();
  out->attempted += out->ops;
  ReadBack(ssd, s, model, out);
}

void DrainOrFail(bandslim::trace::Tracer* tracer, RepOutcome* out) {
  if (DrainTracer(tracer, &out->vt_ns) < 0) out->Fail("tracer dropped ops");
}

// --- fill_mixgraph_1q ------------------------------------------------------

class FillWorkload : public Workload {
 public:
  explicit FillWorkload(std::uint64_t seed) : Workload(MakeFillStream(seed)) {}

  RepOutcome Rep(bool exact_trace) override {
    const Stream& s = stream_;
    RepOutcome out;
    const auto t0 = WallClock::now();
    std::unique_ptr<KvSsd> ssd = OpenDevice(DeviceOptions(exact_trace, 1));
    out.setup_s = SecondsBetween(t0, WallClock::now());

    LiveBytesModel model(s.keys.size());
    bandslim::trace::Tracer* tracer =
        exact_trace ? ssd->Hooks().tracer : nullptr;
    Bytes value(s.max_value_size);
    out.lat_ns.reserve(s.ops.size());
    const bandslim::KvSsdStats before = ssd->GetStats();
    const std::uint64_t vstart = ssd->Now();

    SegmentTimer timer(&out.segment_s);
    timer.Start();
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      const Op& op = s.ops[i];
      const MutByteSpan span(value.data(), op.value_size);
      FillValue(span, OpStamp(i, 0));
      const std::uint64_t v0 = ssd->Now();
      const Status st = ssd->Put(s.keys[op.key], ByteSpan(span));
      out.lat_ns.push_back(ssd->Now() - v0);
      out.value_bytes += op.value_size;
      if (st.ok()) {
        model.Write(op.key, static_cast<std::uint32_t>(s.keys[op.key].size()),
                    op.value_size, OpStamp(i, 0));
      } else {
        out.Fail("put: " + st.ToString());
      }
      if (tracer != nullptr && (i + 1) % kDrainEvery == 0) {
        DrainOrFail(tracer, &out);
      }
      timer.OpDone();
    }
    const Status flushed = ssd->Flush();
    out.run_s = timer.Finish();
    if (!flushed.ok()) out.Fail("flush: " + flushed.ToString());
    if (tracer != nullptr) DrainOrFail(tracer, &out);

    out.ops = s.ops.size();
    Finish(*ssd, s, model, before, vstart, &out);
    return out;
  }

  // The fill starts empty: set-up is the open alone, one segment.
  bool Setup(std::vector<double>* segments) override {
    SegmentTimer timer(segments);
    timer.Start();
    std::unique_ptr<KvSsd> ssd = OpenDevice(DeviceOptions(false, 1));
    timer.Finish();
    return true;
  }

  // Twins: A takes each PUT through the KvSsd facade, B through its
  // Hooks().driver. core = A - B, driver = B.
  std::string Peel(Metrics* out) override {
    const Stream& s = stream_;
    std::unique_ptr<KvSsd> a = OpenDevice(DeviceOptions(false, 1));
    std::unique_ptr<KvSsd> b = OpenDevice(DeviceOptions(false, 1));
    bandslim::driver::KvDriver* b_driver = b->Hooks().driver;
    Bytes value(s.max_value_size);
    PeelLedger ledger(2);
    std::uint64_t errors = 0;
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      const Op& op = s.ops[i];
      const MutByteSpan span(value.data(), op.value_size);
      FillValue(span, OpStamp(i, 0));
      const std::string& key = s.keys[op.key];
      // Alternate which twin goes first so neither always runs on the
      // caches and predictors the other just warmed.
      double ns[2];
      for (int k = 0; k < 2; ++k) {
        const bool facade = (k == 0) == (i % 2 == 0);
        const auto t0 = WallClock::now();
        const Status st = facade ? a->Put(key, ByteSpan(span))
                                 : b_driver->Put(key, ByteSpan(span));
        ns[facade ? 0 : 1] = NsBetween(t0, WallClock::now());
        errors += st.ok() ? 0 : 1;
      }
      ledger.Add(ns);
    }
    (*out)["core.host_ns_per_op"] = ledger.SelfNsPerOp(0);
    (*out)["driver.host_ns_per_op"] = ledger.SelfNsPerOp(1);
    if (errors != 0) return "peel: twin PUTs failed";
    if (a->Now() != b->Now()) return "peel: facade and driver twins diverged";
    return "";
  }
};

// --- read_zipf_4q ----------------------------------------------------------

class ReadWorkload : public Workload {
 public:
  explicit ReadWorkload(std::uint64_t seed) : Workload(MakeReadStream(seed)) {}

  RepOutcome Rep(bool exact_trace) override {
    const Stream& s = stream_;
    RepOutcome out;
    LiveBytesModel model(s.keys.size());
    const auto t0 = WallClock::now();
    std::unique_ptr<KvSsd> ssd =
        OpenDevice(DeviceOptions(exact_trace, kReadStreams));
    const Status preloaded = Preload(*ssd, s, &model);
    out.setup_s = SecondsBetween(t0, WallClock::now());
    if (!preloaded.ok()) {
      out.Fail("preload: " + preloaded.ToString());
      return out;
    }

    KvSsd::TestHooks hooks = ssd->Hooks();
    // Only the timed phase is folded into stage sums.
    if (exact_trace) hooks.tracer->Clear();
    std::array<bandslim::driver::KvDriver*, kReadStreams> drivers{};
    for (std::uint16_t q = 1; q < kReadStreams; ++q) {
      drivers[q] = ssd->CreateQueueDriver(q, ssd->options().driver).value();
    }
    bandslim::trace::Tracer* tracer = exact_trace ? hooks.tracer : nullptr;
    bandslim::sim::VirtualClock& clock = *hooks.clock;
    hooks.transport->SetParallelArbitration(true);

    std::array<Bytes, kReadStreams> values;
    std::array<Bytes, kReadStreams> gots;
    for (auto& v : values) v.resize(s.max_value_size);
    out.lat_ns.reserve(s.ops.size());
    const bandslim::KvSsdStats before = ssd->GetStats();
    const std::uint64_t vstart = clock.Now();
    std::uint64_t latest = vstart;
    std::uint64_t executed = 0;
    SegmentTimer timer(&out.segment_s);

    bandslim::sim::EventEngine engine(&clock);
    engine.Reserve(2u * kReadStreams + 4u);
    std::function<void(std::uint16_t, std::size_t)> run_op =
        [&](std::uint16_t q, std::size_t index) {
          const Op& op = s.ops[index];
          const std::string& key = s.keys[op.key];
          const std::uint64_t v0 = clock.Now();
          if (op.kind == OpKind::kPut) {
            const MutByteSpan span(values[q].data(), op.value_size);
            FillValue(span, OpStamp(index, 0));
            const Status st = q == 0 ? ssd->Put(key, ByteSpan(span))
                                     : drivers[q]->Put(key, ByteSpan(span));
            out.value_bytes += op.value_size;
            if (st.ok()) {
              model.Write(op.key, static_cast<std::uint32_t>(key.size()),
                          op.value_size, OpStamp(index, 0));
            } else {
              out.Fail("put: " + st.ToString());
            }
          } else {
            const Status st = q == 0 ? ssd->GetInto(key, &gots[q])
                                     : drivers[q]->GetInto(key, &gots[q]);
            if (!st.ok()) {
              out.Fail("get: " + st.ToString());
            } else if (!StampMatches(ByteSpan(gots[q]), *model.Find(op.key))) {
              out.Fail("get returned a stale or foreign value");
            }
          }
          out.lat_ns.push_back(clock.Now() - v0);
          latest = std::max(latest, clock.Now());
          if (tracer != nullptr && ++executed % kDrainEvery == 0) {
            DrainOrFail(tracer, &out);
          }
          timer.OpDone();
          const std::size_t next = index + kReadStreams;
          if (next < s.ops.size()) {
            engine.Schedule(clock.Now(),
                            [&run_op, q, next] { run_op(q, next); });
          }
        };

    timer.Start();
    for (std::uint16_t q = 0; q < kReadStreams && q < s.ops.size(); ++q) {
      engine.Schedule(vstart, [&run_op, q] { run_op(q, q); });
    }
    engine.RunUntilIdle();
    clock.SetTime(std::max(clock.Now(), latest));
    const Status flushed = ssd->Flush();
    out.run_s = timer.Finish();
    hooks.transport->SetParallelArbitration(false);
    if (!flushed.ok()) out.Fail("flush: " + flushed.ToString());
    if (tracer != nullptr) DrainOrFail(tracer, &out);

    out.ops = s.ops.size();
    Finish(*ssd, s, model, before, vstart, &out);
    return out;
  }

  bool Setup(std::vector<double>* segments) override {
    LiveBytesModel model(stream_.keys.size());
    SegmentTimer timer(segments);
    timer.Start();
    std::unique_ptr<KvSsd> ssd =
        OpenDevice(DeviceOptions(false, kReadStreams));
    const Status preloaded = Preload(*ssd, stream_, &model, &timer);
    timer.Finish();
    return preloaded.ok();
  }

  // Twins A and B follow the same event loop: A takes stream 0 through the
  // KvSsd facade and streams 1-3 through queue drivers, B takes every
  // stream through drivers (Hooks().driver for stream 0) in A's time frame.
  // core = A - B over stream-0 ops; driver = B per op; sim = loop wall time
  // outside the callback bodies (pop, dispatch, and Schedule) per event.
  std::string Peel(Metrics* out) override {
    const Stream& s = stream_;
    std::unique_ptr<KvSsd> a = OpenDevice(DeviceOptions(false, kReadStreams));
    std::unique_ptr<KvSsd> b = OpenDevice(DeviceOptions(false, kReadStreams));
    LiveBytesModel model_a(s.keys.size()), model_b(s.keys.size());
    if (!Preload(*a, s, &model_a).ok() || !Preload(*b, s, &model_b).ok()) {
      return "peel: preload failed";
    }
    // da[0] stays null: twin A's stream 0 goes through the KvSsd facade.
    std::array<bandslim::driver::KvDriver*, kReadStreams> da{}, db{};
    db[0] = b->Hooks().driver;
    for (std::uint16_t q = 1; q < kReadStreams; ++q) {
      da[q] = a->CreateQueueDriver(q, a->options().driver).value();
      db[q] = b->CreateQueueDriver(q, b->options().driver).value();
    }
    bandslim::sim::VirtualClock& clock_a = *a->Hooks().clock;
    bandslim::sim::VirtualClock& clock_b = *b->Hooks().clock;
    a->Hooks().transport->SetParallelArbitration(true);
    b->Hooks().transport->SetParallelArbitration(true);

    Bytes value(s.max_value_size), got_a, got_b;
    PeelLedger core(2);
    double driver_ns = 0.0, body_ns = 0.0;
    std::uint64_t errors = 0, diverged = 0;
    bandslim::sim::EventEngine engine(&clock_a);
    engine.Reserve(2u * kReadStreams + 4u);
    std::function<void(std::uint16_t, std::size_t)> run_op =
        [&](std::uint16_t q, std::size_t index) {
          const auto c0 = WallClock::now();
          const Op& op = s.ops[index];
          const std::string& key = s.keys[op.key];
          const std::uint64_t frame = clock_a.Now();
          const MutByteSpan span(value.data(), op.value_size);
          if (op.kind == OpKind::kPut) FillValue(span, OpStamp(index, 0));
          // Twin A, then B in the same time frame; every other op of a
          // stream B first.
          const bool a_first = (index / kReadStreams) % 2 == 0;
          double ns[2];
          for (int k = 0; k < 2; ++k) {
            const bool on_a = (k == 0) == a_first;
            KvSsd& dev = on_a ? *a : *b;
            bandslim::driver::KvDriver* d = on_a ? da[q] : db[q];
            if (!on_a) clock_b.SetTime(frame);
            const auto t0 = WallClock::now();
            Status st;
            if (op.kind == OpKind::kPut) {
              st = d == nullptr ? dev.Put(key, ByteSpan(span))
                                : d->Put(key, ByteSpan(span));
            } else {
              Bytes* got = on_a ? &got_a : &got_b;
              st = d == nullptr ? dev.GetInto(key, got) : d->GetInto(key, got);
            }
            ns[on_a ? 0 : 1] = NsBetween(t0, WallClock::now());
            errors += st.ok() ? 0 : 1;
          }
          diverged += clock_a.Now() != clock_b.Now() ? 1 : 0;
          driver_ns += ns[1];
          if (q == 0) core.Add(ns);
          const std::size_t next = index + kReadStreams;
          body_ns += NsBetween(c0, WallClock::now());
          if (next < s.ops.size()) {
            engine.Schedule(clock_a.Now(),
                            [&run_op, q, next] { run_op(q, next); });
          }
        };
    const std::uint64_t vstart = clock_a.Now();
    for (std::uint16_t q = 0; q < kReadStreams && q < s.ops.size(); ++q) {
      engine.Schedule(vstart, [&run_op, q] { run_op(q, q); });
    }
    const auto w0 = WallClock::now();
    engine.RunUntilIdle();
    const double loop_ns = NsBetween(w0, WallClock::now());
    const double events = static_cast<double>(engine.events_run());

    (*out)["core.host_ns_per_op"] = core.SelfNsPerOp(0);
    (*out)["driver.host_ns_per_op"] =
        driver_ns / static_cast<double>(s.ops.size());
    (*out)["sim.host_ns_per_event"] =
        events > 0 ? (loop_ns - body_ns) / events : 0.0;
    if (errors != 0) return "peel: twin ops failed";
    if (diverged != 0) return "peel: facade and driver twins diverged";
    return "";
  }
};

}  // namespace

std::unique_ptr<Workload> MakeFill(std::uint64_t seed) {
  return std::make_unique<FillWorkload>(seed);
}

std::unique_ptr<Workload> MakeRead(std::uint64_t seed) {
  return std::make_unique<ReadWorkload>(seed);
}

}  // namespace perfbench
