#include "telemetry/timeline.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "telemetry/text_out.h"

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

// q->p50/.p95/.p99 of the q->count recordings in `buckets`, in one walk.
void TakeQuantiles(const stats::Histogram::BucketArray& buckets,
                   IntervalQuantiles* q) {
  static constexpr std::uint32_t kPermilles[] = {500, 950, 990};
  std::uint64_t p[3];
  stats::Histogram::QuantilesFromBuckets(buckets, q->count, kPermilles, p);
  q->p50 = p[0];
  q->p95 = p[1];
  q->p99 = p[2];
}

}  // namespace

IntervalQuantiles AdvanceQuantiles(
    std::span<const stats::Histogram* const> live,
    stats::HistogramBuckets* last) {
  std::uint64_t count = 0, sum = 0;
  for (const stats::Histogram* h : live) {
    count += h->count();
    sum += h->sum();
  }
  IntervalQuantiles q;
  if (count == last->count && sum == last->sum) return q;
  // Only buckets between a live histogram's min and max bucket have ever
  // held a recording, so only they can have moved.
  stats::Histogram::BucketArray delta{};
  std::size_t first = delta.size(), end = 0;
  for (const stats::Histogram* h : live) {
    if (h->count() == 0) continue;
    first = std::min<std::size_t>(
        first, stats::Histogram::BucketFor(h->min()));
    end = std::max<std::size_t>(
        end, stats::Histogram::BucketFor(h->max()) + 1);
  }
  for (std::size_t b = first; b < end; ++b) {
    std::uint64_t cur = 0;
    for (const stats::Histogram* h : live) cur += h->bucket_counts()[b];
    delta[b] = cur - last->buckets[b];
    if (delta[b] != 0) last->buckets[b] = cur;
  }
  q.count = count - last->count;
  q.sum = sum - last->sum;
  last->count = count;
  last->sum = sum;
  TakeQuantiles(delta, &q);
  return q;
}

// --- Series slots and plans --------------------------------------------------

namespace {

std::string PercentileBase(const std::string& hist_name) {
  for (const std::string_view suffix : {".latency_ns", "_ns"}) {
    if (hist_name.size() > suffix.size() && hist_name.ends_with(suffix)) {
      return hist_name.substr(0, hist_name.size() - suffix.size());
    }
  }
  return hist_name;
}

CounterRole RoleOf(std::string_view name) {
  static constexpr std::pair<std::string_view, CounterRole> kRoles[] = {
      {"nvme.commands_submitted", CounterRole::kOps},
      {"controller.value_bytes_written", CounterRole::kValueBytes},
      {"nand.pages_programmed", CounterRole::kPagesProgrammed},
      {"nvme.timeouts", CounterRole::kTimeouts},
      {"nvme.retries", CounterRole::kRetries},
      {"nand.program_failures", CounterRole::kProgramFailures},
      {"nand.ecc_corrections", CounterRole::kEccCorrections},
      {"lsm.memtable_stalls", CounterRole::kMemtableStalls},
      {"lsm.compactions", CounterRole::kCompactions},
      {"lsm.compaction_bytes_written", CounterRole::kCompactionBytes},
  };
  for (const auto& [role_name, role] : kRoles) {
    if (name == role_name) return role;
  }
  // The registry mirrors PCIe bytes as one counter per traffic class
  // ("pcie.mmio.h2d_bytes" ... "pcie.completion.h2d_bytes"); their sum is
  // the link's host-to-device byte total, as KvSsd::GetStats computes it.
  constexpr std::string_view kPrefix = "pcie.", kSuffix = ".h2d_bytes";
  if (name.size() > kPrefix.size() + kSuffix.size() &&
      name.starts_with(kPrefix) && name.ends_with(kSuffix)) {
    return CounterRole::kPcieH2dBytes;
  }
  return CounterRole::kNone;
}

}  // namespace

HistogramSeries::HistogramSeries(const std::string& name, bool with_lifetime)
    : hist_name(name), lifetime(with_lifetime) {
  const std::string base = PercentileBase(name);
  count = SeriesSlot("hist." + base + ".count");
  delta_count = SeriesSlot("delta." + base + ".count");
  delta_sum = SeriesSlot("delta." + base + ".sum");
  p50 = SeriesSlot(base + ".p50");
  p95 = SeriesSlot(base + ".p95");
  p99 = SeriesSlot(base + ".p99");
  if (lifetime) {
    lifetime_p50 = SeriesSlot("lifetime." + base + ".p50");
    lifetime_p95 = SeriesSlot("lifetime." + base + ".p95");
    lifetime_p99 = SeriesSlot("lifetime." + base + ".p99");
  }
}

bool RegistryPlan::Sync(
    std::span<const stats::MetricsRegistry* const> registries) {
  bool same = registries.size() == bound_.size();
  for (std::size_t i = 0; same && i < registries.size(); ++i) {
    const stats::MetricsRegistry* r = registries[i];
    same = r == bound_[i] &&
           (r == nullptr ||
            (r->counters().size() == sizes_[i].first &&
             r->histograms().size() == sizes_[i].second));
  }
  if (same) return false;

  bound_.assign(registries.begin(), registries.end());
  sizes_.clear();
  std::map<std::string_view, std::vector<const stats::Counter*>> counters;
  std::map<std::string_view, std::vector<const stats::Histogram*>> histograms;
  for (const stats::MetricsRegistry* r : bound_) {
    if (r == nullptr) {
      sizes_.emplace_back(0, 0);
      continue;
    }
    sizes_.emplace_back(r->counters().size(), r->histograms().size());
    for (const auto& [name, c] : r->counters()) counters[name].push_back(&c);
    for (const auto& [name, h] : r->histograms()) {
      histograms[name].push_back(&h);
    }
  }
  counters_.clear();
  for (auto& [name, live] : counters) {
    counters_.push_back(
        {SeriesSlot(std::string(name)), RoleOf(name), std::move(live)});
  }
  histograms_.clear();
  for (auto& [name, live] : histograms) {
    histograms_.push_back(
        {HistogramSeries(std::string(name), lifetime_), std::move(live)});
  }
  return true;
}

RoleTotals RegistryPlan::EmitCounters(SampleBuilder& b) {
  RoleTotals totals;
  for (CounterEntry& e : counters_) {
    std::uint64_t value = 0;
    for (const stats::Counter* c : e.live) value += c->value();
    const std::uint64_t delta = b.Cumulative(e.series, value);
    const auto role = static_cast<std::size_t>(e.role);
    totals.cum[role] += value;
    totals.delta[role] += delta;
  }
  return totals;
}

// --- SampleBuilder -----------------------------------------------------------

std::uint32_t SampleBuilder::Intern(const std::string& name) {
  const std::uint32_t id = timeline_->series_.Intern(name);
  const std::size_t n = timeline_->series_.size();
  for (DenseValues* d : {&timeline_->building_, &timeline_->previous_}) {
    d->value.resize(n, 0);
    d->stamp.resize(n, 0);
  }
  return id;
}

std::uint64_t SampleBuilder::Previous(SeriesSlot& slot) const {
  if (slot.id == SeriesSlot::kUnresolved) {
    const std::int64_t id = timeline_->series_.Find(slot.name);
    if (id < 0) return 0;
    slot.id = static_cast<std::uint32_t>(id);
  }
  return PreviousOf(slot.id);
}

IntervalQuantiles SampleBuilder::Histogram(
    HistogramSeries& h, std::span<const stats::Histogram* const> live) {
  std::uint64_t count = 0;
  for (const stats::Histogram* hist : live) count += hist->count();
  if (count == 0) return {};
  if (h.state == SeriesSlot::kUnresolved) {
    h.state = timeline_->hist_names_.Intern(h.hist_name);
    if (h.state >= timeline_->last_hist_.size()) {
      timeline_->last_hist_.resize(h.state + 1);
    }
  }
  stats::HistogramBuckets& state = timeline_->last_hist_[h.state];
  const IntervalQuantiles q = AdvanceQuantiles(live, &state);
  Set(h.count, state.count);
  Set(h.delta_count, q.count);
  Set(h.delta_sum, q.sum);
  Set(h.p50, q.p50);
  Set(h.p95, q.p95);
  Set(h.p99, q.p99);
  if (h.lifetime) {
    IntervalQuantiles& life = h.lifetime_q;
    if (life.count != state.count || life.sum != state.sum) {
      life.count = state.count;
      life.sum = state.sum;
      TakeQuantiles(state.buckets, &life);
    }
    Set(h.lifetime_p50, life.p50);
    Set(h.lifetime_p95, life.p95);
    Set(h.lifetime_p99, life.p99);
  }
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
  const Sample* prev = samples_.empty() ? nullptr : &samples_.back();
  SampleBuilder builder(this, &s, &building_,
                        prev == nullptr ? nullptr : &previous_);
  Collect(builder);

  // Sources emit the same series sample after sample, so the row is
  // usually gathered against the previous sample's layout: as many distinct
  // series, each of them set now, means the same set. A new layout gathers
  // the set series in id order (Sample::Value()'s binary search relies on
  // it).
  const std::uint64_t stamp_now = s.seq + 1;
  const auto append = [&](std::uint32_t id) {
    s.row.push_back(building_.value[id]);
    s.row_digits += DecimalDigits(s.row.back());
  };
  s.row.reserve(builder.distinct_);
  if (prev != nullptr && builder.distinct_ == prev->row.size()) {
    for (const std::uint32_t id : prev->ids()) {
      if (building_.stamp[id] != stamp_now) break;
      append(id);
    }
    if (s.row.size() == builder.distinct_) s.layout = prev->layout;
  }
  if (s.layout == nullptr) {
    auto layout = std::make_shared<SeriesLayout>();
    layout->reserve(builder.distinct_);
    s.row.clear();
    s.row_digits = 0;
    for (std::uint32_t id = 0; id < building_.stamp.size(); ++id) {
      if (building_.stamp[id] == stamp_now) {
        layout->push_back(id);
        append(id);
      }
    }
    s.layout = std::move(layout);
  }
  std::swap(building_, previous_);

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
  std::string out;
  TextOut os(&out);
  os << "# HELP " << samples_metric_ << " " << samples_help_ << "\n";
  os << "# TYPE " << samples_metric_ << " counter\n";
  os << samples_metric_ << " " << next_seq_ << "\n";
  if (!samples_.empty()) {
    const Sample& last = samples_.back();
    const std::uint64_t ts_ms = last.t_ns / sim::kMillisecond;
    // Stable order: the latest sample's series sorted by sanitized name; of
    // two series that sanitize alike, the lower id is kept.
    std::vector<std::pair<std::string, std::uint64_t>> by_name;
    by_name.reserve(last.row.size());
    const std::span<const std::uint32_t> ids = last.ids();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      by_name.emplace_back(SanitizeMetricName(series_.NameOf(ids[i])),
                           last.row[i]);
    }
    std::stable_sort(by_name.begin(), by_name.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    by_name.erase(std::unique(by_name.begin(), by_name.end(),
                              [](const auto& a, const auto& b) {
                                return a.first == b.first;
                              }),
                  by_name.end());
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
  if (!samples_.empty()) {
    AppendPrometheus(&out, samples_.back().t_ns / sim::kMillisecond);
  }
  return out;
}

std::string Timeline::ToJsonl() const {
  const auto& events = event_log_.records();
  const auto& rules = watchdog_.rules();

  // One pre-quoted `,"name":` key per series id (the first value of a
  // sample skips the comma).
  std::vector<std::string> keys;
  keys.reserve(series_.size());
  for (std::uint32_t id = 0; id < series_.size(); ++id) {
    keys.push_back(",\"" + series_.NameOf(id) + "\":");
  }

  // Event lines are few: render them up front, each ending at its offset.
  std::string event_lines;
  std::vector<std::size_t> event_end;
  event_end.reserve(events.size());
  {
    TextOut os(&event_lines);
    for (const EventRecord& e : events) {
      os << "{\"kind\":\"event\",\"t_ns\":" << e.t_ns << ",\"seq\":" << e.seq
         << ",\"type\":\"" << EventTypeName(e.type) << "\"";
      if (e.type == EventType::kAlert && e.a < rules.size()) {
        os << ",\"rule\":\"" << rules[static_cast<std::size_t>(e.a)].name
           << "\"";
      }
      os << ",\"a\":" << e.a << ",\"b\":" << e.b
         << ",\"tenant\":" << e.tenant << "}\n";
      event_end.push_back(event_lines.size());
    }
  }

  // Size the document exactly before rendering it: the event lines, and
  // per sample its fixed text, its numbers' digits (the row's counted when
  // it was gathered) and its layout's keys (counted once per run of samples
  // sharing the layout). A buffer sized to the byte is reused from the heap
  // rather than mapped afresh.
  static constexpr std::string_view kSampleHead =
      "{\"kind\":\"sample\",\"t_ns\":";
  static constexpr std::string_view kSeq = ",\"seq\":";
  static constexpr std::string_view kInterval = ",\"interval_ns\":";
  static constexpr std::string_view kValues = ",\"values\":{";
  static constexpr std::string_view kSampleTail = "}}\n";
  constexpr std::size_t kSampleText = kSampleHead.size() + kSeq.size() +
                                      kInterval.size() + kValues.size() +
                                      kSampleTail.size();
  std::size_t size = event_lines.size();
  const SeriesLayout* sized_layout = nullptr;
  std::size_t layout_key_bytes = 0;
  for (const Sample& s : samples_) {
    if (s.layout.get() != sized_layout) {
      sized_layout = s.layout.get();
      layout_key_bytes = 0;
      for (const std::uint32_t id : s.ids()) {
        layout_key_bytes += keys[id].size();
      }
      if (layout_key_bytes > 0) --layout_key_bytes;  // The first comma.
    }
    size += kSampleText + layout_key_bytes + s.row_digits +
            DecimalDigits(s.t_ns) + DecimalDigits(s.seq) +
            DecimalDigits(s.interval_ns);
  }
  // Rendered through one write pointer into the string sized to the byte.
  std::string out(size, '\0');
  RawTextOut os(out.data(), out.data() + out.size());

  const auto emit_sample = [&](const Sample& s) {
    os << kSampleHead << s.t_ns << kSeq << s.seq << kInterval << s.interval_ns
       << kValues;
    const std::span<const std::uint32_t> ids = s.ids();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      os << std::string_view(keys[ids[i]]).substr(i == 0 ? 1 : 0) << s.row[i];
    }
    os << kSampleTail;
  };
  const auto emit_event = [&](std::size_t i) {
    const std::size_t begin = i == 0 ? 0 : event_end[i - 1];
    os << std::string_view(event_lines).substr(begin, event_end[i] - begin);
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
      emit_event(ei++);
    } else {
      emit_sample(samples_[si++]);
    }
  }
  assert(os.at() == out.data() + size &&
         "ToJsonl sizing pass disagrees with render");
  return out;
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
