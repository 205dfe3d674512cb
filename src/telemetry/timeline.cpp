#include "telemetry/timeline.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

namespace bandslim::telemetry {

const Route* PublishedSnapshot::Find(std::string_view path) const {
  for (const Route& route : routes) {
    if (route.path == path) return &route;
  }
  return nullptr;
}

namespace {

// "a.b-c" -> "a_b_c": Prometheus metric names admit [a-zA-Z0-9_:] only.
std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

}  // namespace

IntervalQuantiles QuantilesSince(const stats::HistogramBuckets& cur,
                                 const stats::HistogramBuckets& last) {
  stats::Histogram::BucketArray delta{};
  for (std::size_t b = 0; b < delta.size(); ++b) {
    delta[b] = cur.buckets[b] - last.buckets[b];
  }
  IntervalQuantiles q;
  q.count = cur.count - last.count;
  q.sum = cur.sum - last.sum;
  q.p50 = stats::Histogram::QuantileFromBuckets(delta, q.count, 500);
  q.p95 = stats::Histogram::QuantileFromBuckets(delta, q.count, 950);
  q.p99 = stats::Histogram::QuantileFromBuckets(delta, q.count, 990);
  return q;
}

// --- SampleBuilder -----------------------------------------------------------

void SampleBuilder::Set(const std::string& name, std::uint64_t value) {
  sample_->Set(timeline_->series_.Intern(name), value);
}

std::uint64_t SampleBuilder::Cumulative(const std::string& name,
                                        std::uint64_t value) {
  return Cumulative(timeline_->series_.Intern(name), value);
}

std::uint64_t SampleBuilder::Cumulative(std::uint32_t id,
                                        std::uint64_t value) {
  sample_->Set(id, value);
  return value - PreviousOf(id);
}

std::uint64_t SampleBuilder::Previous(const std::string& name) const {
  const std::int64_t id = timeline_->series_.Find(name);
  return id < 0 ? 0 : PreviousOf(static_cast<std::uint32_t>(id));
}

std::string SampleBuilder::PercentileBase(const std::string& hist_name) {
  for (const std::string_view suffix : {".latency_ns", "_ns"}) {
    if (hist_name.size() > suffix.size() &&
        hist_name.compare(hist_name.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
      return hist_name.substr(0, hist_name.size() - suffix.size());
    }
  }
  return hist_name;
}

IntervalQuantiles SampleBuilder::Histogram(const std::string& hist_name,
                                           const stats::HistogramBuckets& cur) {
  const std::uint32_t slot = timeline_->hist_names_.Intern(hist_name);
  std::vector<stats::HistogramBuckets>& last = timeline_->last_hist_;
  if (slot >= last.size()) last.resize(slot + 1);
  const IntervalQuantiles q = QuantilesSince(cur, last[slot]);
  last[slot] = cur;
  const std::string base = PercentileBase(hist_name);
  Set("hist." + base + ".count", cur.count);
  Set("delta." + base + ".count", q.count);
  Set("delta." + base + ".sum", q.sum);
  Set(base + ".p50", q.p50);
  Set(base + ".p95", q.p95);
  Set(base + ".p99", q.p99);
  return q;
}

// --- Timeline: grid ----------------------------------------------------------

Timeline::Timeline(const sim::VirtualClock* clock, const TimelineConfig& config,
                   const char* samples_metric, const char* samples_help)
    : clock_(clock),
      config_(config),
      samples_metric_(samples_metric),
      samples_help_(samples_help),
      event_log_(clock, kEventCapacity),
      watchdog_(config.rules) {}

void Timeline::Anchor() {
  if (anchored_) return;
  anchored_ = true;
  anchor_ns_ = clock_->Now();
  last_sample_ns_ = anchor_ns_;
  next_boundary_ns_ = anchor_ns_ + config_.sample_interval_ns;
}

void Timeline::Poll() {
  if (!config_.enabled || !anchored_) return;
  const sim::Nanoseconds now = clock_->Now();
  if (now < next_boundary_ns_) return;
  // Stamp at the last boundary the clock has passed; everything since the
  // previous sample is attributed to the single interval ending there.
  const sim::Nanoseconds stamp =
      anchor_ns_ +
      (now - anchor_ns_) / config_.sample_interval_ns *
          config_.sample_interval_ns;
  TakeSample(stamp);
  next_boundary_ns_ = stamp + config_.sample_interval_ns;
}

void Timeline::Finalize() {
  if (!config_.enabled || !anchored_) return;
  const sim::Nanoseconds now = clock_->Now();
  // Idempotent: a repeated Finalize with no clock progress — or one landing
  // on a stamp Poll() already emitted — is a no-op, never a duplicate
  // closing sample. (Only the very first sample may be stamped at the
  // anchor itself, hence the next_seq_ guard.)
  if (now <= last_sample_ns_ && next_seq_ > 0) {
    // Still guarantee the final state is live: the last Poll() sample may
    // have fallen between publish cadence points.
    PublishSnapshot();
    return;
  }
  TakeSample(now);
  PublishSnapshot();
  if (next_boundary_ns_ <= now) {
    next_boundary_ns_ =
        anchor_ns_ +
        ((now - anchor_ns_) / config_.sample_interval_ns + 1) *
            config_.sample_interval_ns;
  }
}

std::uint64_t Timeline::Latest(const std::string& name) const {
  if (samples_.empty()) return 0;
  const std::int64_t id = series_.Find(name);
  if (id < 0) return 0;
  return samples_.back().Value(static_cast<std::uint32_t>(id));
}

void Timeline::TakeSample(sim::Nanoseconds stamp) {
  Sample s;
  s.t_ns = stamp;
  s.interval_ns = stamp - last_sample_ns_;
  s.seq = next_seq_++;
  SampleBuilder builder(this, &s,
                        samples_.empty() ? nullptr : &samples_.back());
  Collect(builder);

  // Series ids are assigned in first-appearance order; a series created
  // mid-run lands mid-snapshot with a high id, so restore id order for
  // Sample::Value()'s binary search.
  std::sort(s.values.begin(), s.values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Events emitted from here on (watchdog alerts) belong *after* this
  // sample in the timeline; the exporters use this to break timestamp ties.
  s.events_before = event_log_.total_emitted();

  last_sample_ns_ = stamp;
  if (samples_.size() == kSampleCapacity) {
    samples_.pop_front();
    ++dropped_samples_;
  }
  samples_.push_back(std::move(s));
  watchdog_.Evaluate(samples_.back(), series_, &event_log_);

  // Control tick: the observer sees the finalized sample plus this
  // interval's watchdog edges, and may actuate device knobs. Any clock time
  // it spends is charged to the op whose Poll() crossed the boundary.
  if (observer_ != nullptr) observer_->OnSample(samples_.back());

  // Rendering is O(samples), so publish on a sample-count cadence only;
  // Finalize publishes the closing sample regardless.
  if (samples_.back().seq % kPublishEvery == 0) PublishSnapshot();
}

// --- Timeline: exports and publication ---------------------------------------

std::string Timeline::ToPrometheusText() const {
  std::ostringstream os;
  os << "# HELP " << samples_metric_ << " " << samples_help_ << "\n";
  os << "# TYPE " << samples_metric_ << " counter\n";
  os << samples_metric_ << " " << next_seq_ << "\n";
  if (!samples_.empty()) {
    const Sample& last = samples_.back();
    const std::uint64_t ts_ms = last.t_ns / sim::kMillisecond;
    // Stable order: sort the latest sample's series by name.
    std::map<std::string, std::uint64_t> by_name;
    for (const auto& [id, value] : last.values) {
      by_name.emplace(SanitizeMetricName(series_.NameOf(id)), value);
    }
    for (const auto& [name, value] : by_name) {
      os << "# TYPE bandslim_" << name << " gauge\n";
      os << "bandslim_" << name << " " << value << " " << ts_ms << "\n";
    }
  }
  for (std::size_t i = 0; i < watchdog_.rules().size(); ++i) {
    if (i == 0) {
      os << "# HELP bandslim_watchdog_alerts_total Edge-triggered watchdog "
            "rule fires.\n";
      os << "# TYPE bandslim_watchdog_alerts_total counter\n";
    }
    os << "bandslim_watchdog_alerts_total{rule=\""
       << SanitizeMetricName(watchdog_.rules()[i].name) << "\"} "
       << watchdog_.states()[i].fired << "\n";
  }
  std::string out = os.str();
  if (!samples_.empty()) {
    AppendPrometheus(&out, samples_.back().t_ns / sim::kMillisecond);
  }
  return out;
}

std::string Timeline::ToJsonl() const {
  std::ostringstream os;
  const auto& events = event_log_.records();
  const auto& rules = watchdog_.rules();

  const auto emit_event = [&](const EventRecord& e) {
    os << "{\"kind\":\"event\",\"t_ns\":" << e.t_ns << ",\"seq\":" << e.seq
       << ",\"type\":\"" << EventTypeName(e.type) << "\"";
    if (e.type == EventType::kAlert && e.a < rules.size()) {
      os << ",\"rule\":\"" << rules[static_cast<std::size_t>(e.a)].name
         << "\"";
    }
    os << ",\"a\":" << e.a << ",\"b\":" << e.b
       << ",\"tenant\":" << e.tenant << "}\n";
  };
  const auto emit_sample = [&](const Sample& s) {
    os << "{\"kind\":\"sample\",\"t_ns\":" << s.t_ns << ",\"seq\":" << s.seq
       << ",\"interval_ns\":" << s.interval_ns << ",\"values\":{";
    bool first = true;
    for (const auto& [id, value] : s.values) {
      if (!first) os << ",";
      first = false;
      os << "\"" << series_.NameOf(id) << "\":" << value;
    }
    os << "}}\n";
  };

  // Merge by timestamp. An event at t belongs to the interval that a sample
  // stamped >= t closes, so events sort before an equal-stamped sample —
  // except events the sample itself emitted (watchdog alerts, recognized by
  // seq >= events_before), which sort after it.
  std::size_t si = 0, ei = 0;
  while (si < samples_.size() || ei < events.size()) {
    const bool take_event =
        ei < events.size() &&
        (si >= samples_.size() || events[ei].t_ns < samples_[si].t_ns ||
         (events[ei].t_ns == samples_[si].t_ns &&
          events[ei].seq < samples_[si].events_before));
    if (take_event) {
      emit_event(events[ei++]);
    } else {
      emit_sample(samples_[si++]);
    }
  }
  return os.str();
}

void Timeline::PublishSnapshot() {
  if (sink_ == nullptr || samples_.empty() ||
      samples_.back().seq == last_published_seq_) {
    return;
  }
  auto snap = std::make_shared<PublishedSnapshot>();
  snap->sample_seq = samples_.back().seq;
  snap->t_ns = samples_.back().t_ns;
  std::string health = "{\"status\":\"ok\",\"sample_seq\":" +
                       std::to_string(snap->sample_seq) +
                       ",\"t_ns\":" + std::to_string(snap->t_ns) +
                       ",\"samples\":" + std::to_string(next_seq_) +
                       ",\"events\":" +
                       std::to_string(event_log_.total_emitted()) +
                       ",\"alerts_fired\":" +
                       std::to_string(watchdog_.total_fired());
  AppendHealthz(&health);
  health += "}\n";
  snap->routes.push_back({"/metrics",
                          "text/plain; version=0.0.4; charset=utf-8",
                          ToPrometheusText()});
  snap->routes.push_back(
      {"/timeline.jsonl", "application/x-ndjson", ToJsonl()});
  snap->routes.push_back({"/healthz", "application/json", std::move(health)});
  AppendRoutes(&snap->routes);
  last_published_seq_ = snap->sample_seq;
  sink_->Publish(std::move(snap));
}

}  // namespace bandslim::telemetry
