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
//    byte-identical across runs and platforms.
//  * A timeline never advances the clock or touches simulated state:
//    enabling it changes no simulated outcome, and a disabled timeline is a
//    single branch per Poll().
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
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

// Quantiles of the recordings between two cumulative snapshots of one
// histogram. Log buckets share boundaries, so this is exact for merged
// (summed) buckets too; an empty interval yields zeros.
struct IntervalQuantiles {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
};
IntervalQuantiles QuantilesSince(const stats::HistogramBuckets& cur,
                                 const stats::HistogramBuckets& last);

class Timeline;

// Write access to the sample under construction, handed to Collect().
class SampleBuilder {
 public:
  sim::Nanoseconds interval_ns() const { return sample_->interval_ns; }

  void Set(const std::string& name, std::uint64_t value);
  // Records a cumulative series and returns its delta since the previous
  // sample (whose value reads 0 before the first one).
  std::uint64_t Cumulative(const std::string& name, std::uint64_t value);
  std::uint64_t Cumulative(std::uint32_t id, std::uint64_t value);
  // Value `name` had in the previous sample (0 when absent).
  std::uint64_t Previous(const std::string& name) const;
  // Interval series of a cumulative histogram: hist.<base>.count,
  // delta.<base>.count/.sum and <base>.p50/.p95/.p99 against the state this
  // timeline saw at its previous call for `hist_name`. <base> drops a
  // ".latency_ns" or "_ns" suffix ("trace.op.put.latency_ns" ->
  // "trace.op.put").
  IntervalQuantiles Histogram(const std::string& hist_name,
                              const stats::HistogramBuckets& cur);
  // The <base> Histogram() names its series after.
  static std::string PercentileBase(const std::string& hist_name);

 private:
  friend class Timeline;
  SampleBuilder(Timeline* timeline, Sample* sample, const Sample* prev)
      : timeline_(timeline), sample_(sample), prev_(prev) {}
  std::uint64_t PreviousOf(std::uint32_t id) const {
    return prev_ == nullptr ? 0 : prev_->Value(id);
  }

  Timeline* timeline_;
  Sample* sample_;
  const Sample* prev_;
};

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
  // Alert events additionally carry "rule":"<name>".
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
  // Histograms Histogram() has seen, by name; ids are dense.
  const SeriesTable& histogram_names() const { return hist_names_; }

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

  void TakeSample(sim::Nanoseconds stamp);
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

  // Cumulative buckets of every histogram at its previous Histogram() call,
  // indexed by the histogram's id in hist_names_.
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
