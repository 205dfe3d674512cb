// The one timeline engine behind every observability plane (DESIGN.md 2.4):
// a deterministic, virtual-time interval grid with its sample ring, series
// table, event log, watchdog, exports and snapshot publication. A plane is a
// *source*: a Timeline subclass whose Collect() reads its inputs into the
// sample being built, plus optional extra Prometheus families, healthz
// fields and routes. The device Sampler (telemetry.h) and the fleet
// aggregator (fleet.h) are the two sources; the tenant attribution plane
// folds into the fleet's Collect().
//
// Determinism contract:
//  * Sampling is driven by Poll() calls at deterministic points (end of each
//    device command / host op); no wall clock, no threads. Samples are
//    stamped at interval boundaries of the virtual clock; a long operation
//    that crosses several boundaries yields ONE sample stamped at the last
//    crossed boundary whose rates divide by the true elapsed interval.
//  * All derived series are integer / fixed-point; exports are
//    byte-identical across runs and platforms. The JSONL export may render
//    on worker threads, each writing its own byte range of a document sized
//    up front; its bytes do not depend on the thread count.
//  * A timeline never advances the clock or touches simulated state:
//    enabling it changes no simulated outcome, and a disabled timeline is a
//    single branch per Poll().
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "stats/metrics.h"
#include "telemetry/event_log.h"
#include "telemetry/sample.h"
#include "telemetry/watchdog.h"

namespace bandslim::telemetry {

struct TimelineConfig {
  bool enabled = false;
  // Virtual time between samples. 1 ms of simulated time resolves the
  // paper's second-scale runs into ~thousands of points.
  sim::Nanoseconds sample_interval_ns = sim::kMillisecond;
  // Declarative alert rules evaluated on every sample (telemetry/watchdog.h).
  std::vector<WatchdogRule> rules;
};

// Ring capacities; the oldest record is dropped (and counted) on overflow.
inline constexpr std::size_t kSampleCapacity = 1u << 16;
inline constexpr std::size_t kEventCapacity = 1u << 14;
// ToJsonl renders on at most this many threads (and no more than the host
// has), each range at least kMinRenderRangeBytes: a smaller document, or a
// one-core host, renders on the calling thread alone.
inline constexpr std::size_t kMaxRenderRanges = 4;
inline constexpr std::size_t kMinRenderRangeBytes = std::size_t{1} << 20;
// With a SnapshotSink attached, publish a rendered snapshot every Nth sample
// (and always at Finalize). Rendering the timeline is O(samples), so
// publishing every sample would make a run quadratic in its length; a live
// scraper polls at wall-clock timescales and never notices the gap.
inline constexpr std::uint64_t kPublishEvery = 64;

// One document a snapshot serves, e.g. {"/metrics", "text/plain; ...", ...}.
struct Route {
  std::string path;
  std::string content_type;
  std::string body;
};

// One fully-rendered observation of the run, published at sample
// boundaries. Immutable after construction, so a snapshot can be handed to
// another thread (the HTTP exporter) as a shared_ptr<const> with no further
// synchronization.
struct PublishedSnapshot {
  std::uint64_t sample_seq = 0;  // Seq of the sample that triggered publish.
  sim::Nanoseconds t_ns = 0;     // That sample's virtual timestamp.
  std::vector<Route> routes;

  // The route serving `path`; null when unmapped (the exporter's 404).
  const Route* Find(std::string_view path) const;
};

// Consumer of published snapshots. Publish() is called on the simulation
// thread; implementations must not block (the HTTP exporter just swaps a
// shared_ptr under a mutex).
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  virtual void Publish(std::shared_ptr<const PublishedSnapshot> snapshot) = 0;
};

// Observer of finalized samples, called synchronously from inside
// TakeSample after the watchdog has evaluated (so alert edges for this
// interval are visible) and before snapshot publication. The closed-loop
// controller implements this: ticking on the sample grid means control
// decisions always see completed interval deltas, never a torn mid-interval
// view. Unlike the timeline itself, an observer MAY mutate device state
// (actuate knobs) — the interval has already been captured.
class SampleObserver {
 public:
  virtual ~SampleObserver() = default;
  virtual void OnSample(const Sample& sample) = 0;
};

// Integer rate helpers. Deltas are bounded by bytes-per-interval (<= GB)
// and intervals by the run length, so the largest intermediate
// (delta * 1e12) stays under 2^63 for any workload the benches run.
inline std::uint64_t PerSecond(std::uint64_t delta,
                               sim::Nanoseconds interval_ns) {
  return interval_ns == 0 ? 0 : delta * sim::kSecond / interval_ns;
}
inline std::uint64_t PerSecondMilli(std::uint64_t delta,
                                    sim::Nanoseconds interval_ns) {
  if (interval_ns == 0) return 0;
  return delta * sim::kSecond / interval_ns * kMilliScale +
         delta * sim::kSecond % interval_ns * kMilliScale / interval_ns;
}
inline std::uint64_t RatioMilli(std::uint64_t numer, std::uint64_t denom) {
  return denom == 0 ? 0 : numer * kMilliScale / denom;
}

// Recordings of one histogram over one interval; an empty interval yields
// zeros.
struct IntervalQuantiles {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
};
// Interval quantiles of the recordings in `live` — summed bucket-wise when
// there are several; log buckets share boundaries, so this is exact for
// merged shards — since `*last`, which then advances to their cumulative
// state. Counts are monotone, so when neither count nor sum moved the
// interval is empty: the bucket diff and the quantile walk are skipped.
// Otherwise the diff covers the buckets between the live histograms' min
// and max, writes back only the buckets that moved, and p50/p95/p99 come
// from one cumulative walk over it.
IntervalQuantiles AdvanceQuantiles(
    std::span<const stats::Histogram* const> live,
    stats::HistogramBuckets* last);

// A series name resolved to its id on first emission. A source's plan keeps
// one slot per series, so each name is built once and interned at the call
// point that first emits it: ids stay in first-appearance order, and every
// later emission is one branch. A slot belongs to the timeline that first
// resolved it.
struct SeriesSlot {
  static constexpr std::uint32_t kUnresolved = ~0u;
  SeriesSlot() = default;
  explicit SeriesSlot(std::string series_name) : name(std::move(series_name)) {}
  std::string name;
  std::uint32_t id = kUnresolved;
};

// The interval series SampleBuilder::Histogram emits for one histogram,
// named after its <base>: the name drops a ".latency_ns" or "_ns" suffix
// ("trace.op.put.latency_ns" -> "trace.op.put").
struct HistogramSeries {
  // `lifetime` adds lifetime.<base>.p50/.p95/.p99 over the cumulative
  // buckets (the fleet's merged percentiles).
  HistogramSeries(const std::string& hist_name, bool lifetime);

  std::string hist_name;
  SeriesSlot count, delta_count, delta_sum, p50, p95, p99;
  bool lifetime;
  SeriesSlot lifetime_p50, lifetime_p95, lifetime_p99;
  // Lifetime quantiles with the cumulative count and sum they were taken
  // at; recomputed when either moves (~0 = not yet taken).
  IntervalQuantiles lifetime_q{~0ULL, ~0ULL};
  // Index of this histogram's cumulative state in the timeline.
  std::uint32_t state = SeriesSlot::kUnresolved;
};

class Timeline;

// Write access to the sample under construction, handed to Collect(). A
// source sets each series at most once per sample (a second Set
// overwrites). The row is written in place against the latest sample's
// layout: a series that layout carries goes straight to its position, any
// other to a short side list that TakeSample folds into a new layout.
class SampleBuilder {
 public:
  sim::Nanoseconds interval_ns() const { return sample_->interval_ns; }

  void Set(SeriesSlot& slot, std::uint64_t value) {
    Put(Resolve(slot), value);
  }
  // Records a cumulative series and returns its delta since the previous
  // sample (whose value reads 0 before the first one).
  std::uint64_t Cumulative(SeriesSlot& slot, std::uint64_t value) {
    const std::uint32_t id = Resolve(slot);
    Put(id, value);
    return value - PreviousOf(id);
  }
  // Value the slot's series had in the previous sample (0 when absent).
  // Looks the name up without interning it.
  std::uint64_t Previous(SeriesSlot& slot) const;
  // Interval series of the histogram `live` sums (one per registry that
  // carries it): hist.<base>.count, delta.<base>.count/.sum and
  // <base>.p50/.p95/.p99 against the state this timeline kept for it at its
  // previous call, plus the lifetime series when asked for. A histogram
  // that has never recorded a value emits nothing.
  IntervalQuantiles Histogram(HistogramSeries& series,
                              std::span<const stats::Histogram* const> live);

 private:
  friend class Timeline;
  // `sample->row` is sized to the latest layout; `previous` (null before
  // the first sample) is the latest sample, which carries that layout.
  SampleBuilder(Timeline* timeline, Sample* sample, const Sample* previous);
  std::uint32_t Resolve(SeriesSlot& slot) {
    if (slot.id == SeriesSlot::kUnresolved) slot.id = Intern(slot.name);
    return slot.id;
  }
  // Interns `name` and sizes the position map to the grown table.
  std::uint32_t Intern(const std::string& name);
  void Put(std::uint32_t id, std::uint64_t value) {
    const std::uint32_t pos = position_[id];
    if (pos == kNoPosition) {
      PutUnplaced(id, value);
      return;
    }
    written_ += written_at_[pos] != stamp_;
    written_at_[pos] = stamp_;
    row_[pos] = value;
  }
  void PutUnplaced(std::uint32_t id, std::uint64_t value);
  std::uint64_t PreviousOf(std::uint32_t id) const {
    const std::uint32_t pos = position_[id];
    return pos == kNoPosition ? 0 : previous_row_[pos];
  }

  static constexpr std::uint32_t kNoPosition = ~0u;

  Timeline* timeline_;
  const Sample* sample_;
  // Timeline::position_, refreshed whenever the series table grows.
  const std::uint32_t* position_;
  std::uint64_t* row_;
  const std::uint64_t* previous_row_;
  std::uint64_t* written_at_;
  std::uint64_t stamp_;
  // Positions of the latest layout written so far: TakeSample reuses that
  // layout when every one was and the side list is empty.
  std::size_t written_ = 0;
};

// Registry counters a source derives series from beyond the verbatim
// mirror: the delta.* and rate.* series and the fleet's reconciliation
// totals.
enum class CounterRole : std::uint8_t {
  kNone,
  kOps,              // nvme.commands_submitted
  kValueBytes,       // controller.value_bytes_written
  kPagesProgrammed,  // nand.pages_programmed
  kPcieH2dBytes,     // pcie.<class>.h2d_bytes, summed over the classes
  kTimeouts,         // nvme.timeouts
  kRetries,          // nvme.retries
  kProgramFailures,  // nand.program_failures
  kEccCorrections,   // nand.ecc_corrections
  kMemtableStalls,   // lsm.memtable_stalls
  kCompactions,      // lsm.compactions
  kCompactionBytes,  // lsm.compaction_bytes_written
  kCount,
};

// Cumulative values and interval deltas of the role counters of one sample.
struct RoleTotals {
  std::array<std::uint64_t, static_cast<std::size_t>(CounterRole::kCount)>
      cum{}, delta{};
  std::uint64_t Cum(CounterRole role) const {
    return cum[static_cast<std::size_t>(role)];
  }
  std::uint64_t Delta(CounterRole role) const {
    return delta[static_cast<std::size_t>(role)];
  }
};

// The counters and histograms of one or more metrics registries — a device,
// or every shard of a fleet — resolved to series once (DESIGN.md 2.4): the
// union of their names in name order, each entry holding its series slots,
// its role and the live objects that carry it. Sync() rebuilds the entries
// only when a registry grew or the set was re-bound; every other sample
// reads the live values in place.
class RegistryPlan {
 public:
  struct CounterEntry {
    SeriesSlot series;
    CounterRole role = CounterRole::kNone;
    std::vector<const stats::Counter*> live;
  };
  struct HistogramEntry {
    HistogramSeries series;
    std::vector<const stats::Histogram*> live;
  };

  // `lifetime`: histogram entries also emit their lifetime quantiles.
  explicit RegistryPlan(bool lifetime) : lifetime_(lifetime) {}

  // Rebuilds the entries when `registries` (null entries allowed) differs
  // from the set they were built from or one of them grew; true when it
  // did.
  bool Sync(std::span<const stats::MetricsRegistry* const> registries);
  // Emits every counter verbatim as a cumulative series (summed over the
  // registries that carry it) and totals the role counters.
  RoleTotals EmitCounters(SampleBuilder& b);
  std::vector<HistogramEntry>& histograms() { return histograms_; }

 private:
  bool lifetime_;
  std::vector<const stats::MetricsRegistry*> bound_;
  // (counters, histograms) of each bound registry when the entries were
  // built: registries only grow, so equal sizes mean equal names.
  std::vector<std::pair<std::size_t, std::size_t>> sizes_;
  std::vector<CounterEntry> counters_;
  std::vector<HistogramEntry> histograms_;
};

// Element `i` of `v`, appending make(index) for every missing index first:
// per-queue, per-channel and per-level series grow on first use.
template <typename T, typename Make>
T& GrowTo(std::vector<T>& v, std::size_t i, Make make) {
  while (v.size() <= i) v.push_back(make(v.size()));
  return v[i];
}

class Timeline {
 public:
  // `samples_metric`/`samples_help` name the leading samples-emitted counter
  // of the Prometheus exposition.
  Timeline(const sim::VirtualClock* clock, const TimelineConfig& config,
           const char* samples_metric, const char* samples_help);
  virtual ~Timeline() = default;

  bool enabled() const { return config_.enabled; }
  const TimelineConfig& config() const { return config_; }

  // Emits one sample if at least one interval boundary has passed since the
  // last emission. A disabled (or not yet bound) timeline returns after one
  // branch.
  void Poll();
  // Emits a closing sample stamped at the current virtual time (regardless
  // of boundary alignment), so the last sample's cumulative series equal
  // the final counters exactly, and publishes it. Idempotent at a given
  // time.
  void Finalize();

  const std::deque<Sample>& samples() const { return samples_; }
  const SeriesTable& series() const { return series_; }
  std::uint64_t samples_emitted() const { return next_seq_; }
  std::uint64_t dropped_samples() const { return dropped_samples_; }
  EventLog& event_log() { return event_log_; }
  const EventLog& event_log() const { return event_log_; }
  Watchdog& watchdog() { return watchdog_; }
  const Watchdog& watchdog() const { return watchdog_; }

  // Value of `name` in the latest sample (0 when absent or no samples yet).
  std::uint64_t Latest(const std::string& name) const;

  // Prometheus text exposition 0.0.4: the samples counter, the latest
  // sample's series as `bandslim_<sanitized>` gauges with millisecond
  // timestamps, `bandslim_watchdog_alerts_total{rule=...}` counters, then
  // any source-specific families.
  std::string ToPrometheusText() const;
  // One JSON object per line, samples and events merged by timestamp:
  //   {"kind":"sample","t_ns":..,"seq":..,"interval_ns":..,"values":{..}}
  //   {"kind":"event","t_ns":..,"seq":..,"type":"gc_start","a":..,"b":..}
  // Alert events additionally carry "rule":"<name>". The document is
  // sized exactly, line by line, and then rendered from each line's offset
  // on up to kMaxRenderRanges threads; its bytes do not depend on how many.
  std::string ToJsonl() const;

  // Installs (or clears, with nullptr) the snapshot consumer. While set,
  // every kPublishEvery-th sample (and the Finalize closing sample) renders
  // the routes and calls sink->Publish(); the simulated outcome is
  // unchanged either way.
  void SetSink(SnapshotSink* sink) { sink_ = sink; }
  // Installs (or clears) the per-sample observer. Exactly one observer is
  // supported — the control loop; a list would cost an iteration per sample.
  void SetObserver(SampleObserver* observer) { observer_ = observer; }

 protected:
  // Anchors the interval grid at the clock's current time; later calls are
  // no-ops. Sources call this from their Bind().
  void Anchor();

  // Reads the source's inputs into the sample being built.
  virtual void Collect(SampleBuilder& b) = 0;
  // Source-specific extras for the exposition (called only once a sample
  // exists; `ts_ms` is its timestamp), the healthz document (appended as
  // `,"key":value` members) and the published routes.
  virtual void AppendPrometheus(std::string* /*out*/,
                                std::uint64_t /*ts_ms*/) const {}
  virtual void AppendHealthz(std::string* /*doc*/) const {}
  virtual void AppendRoutes(std::vector<Route>* /*routes*/) const {}

 private:
  friend class SampleBuilder;
  friend struct JsonlRenderProbe;  // Test access to RenderJsonl.

  void TakeSample(sim::Nanoseconds stamp);
  // Gives `s`, whose row was written against the latest layout, the
  // id-sorted layout of the series set in it: the written positions of the
  // latest layout and the side list. Repoints the position map at it.
  void Relayout(Sample* s, const Sample* previous, std::uint64_t stamp);
  // ToJsonl over exactly `ranges` byte-balanced ranges of lines, each on
  // its own thread, the first on the calling thread; 0 takes the count
  // from the host and the document's size. A range boundary is the first
  // line starting at or after size * r / ranges.
  std::string RenderJsonl(std::size_t ranges) const;
  // Renders the routes and hands them to the sink. No-op when no sink is
  // set or the latest sample was already published, so Finalize can call
  // it unconditionally.
  void PublishSnapshot();

  const sim::VirtualClock* clock_;
  TimelineConfig config_;
  const char* samples_metric_;
  const char* samples_help_;
  EventLog event_log_;
  Watchdog watchdog_;
  SeriesTable series_;
  std::deque<Sample> samples_;
  // By series id, its position in the latest sample's layout
  // (SampleBuilder::kNoPosition when absent), and by position, 1 + the seq
  // of the sample that last wrote it (0 = none since the layout was made).
  std::vector<std::uint32_t> position_;
  std::vector<std::uint64_t> written_at_;
  // (id, value) of the series set in the sample under construction that
  // the latest layout does not carry, one entry per id (a second Set
  // overwrites), in Set order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> unplaced_;

  // Cumulative buckets of every histogram at its previous Histogram() call,
  // indexed by the histogram's id in hist_names_. Kept by name, so a
  // rebuilt plan or a re-bound source picks its state back up.
  SeriesTable hist_names_;
  std::vector<stats::HistogramBuckets> last_hist_;

  SnapshotSink* sink_ = nullptr;
  SampleObserver* observer_ = nullptr;
  std::uint64_t last_published_seq_ = ~0ULL;
  bool anchored_ = false;
  sim::Nanoseconds anchor_ns_ = 0;  // Interval grid origin.
  sim::Nanoseconds next_boundary_ns_ = 0;
  sim::Nanoseconds last_sample_ns_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_samples_ = 0;
};

}  // namespace bandslim::telemetry
