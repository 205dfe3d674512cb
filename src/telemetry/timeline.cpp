#include "telemetry/timeline.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <system_error>
#include <thread>
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

SampleBuilder::SampleBuilder(Timeline* timeline, Sample* sample,
                             const Sample* previous)
    : timeline_(timeline),
      sample_(sample),
      position_(timeline->position_.data()),
      row_(sample->row.data()),
      previous_row_(previous == nullptr ? nullptr : previous->row.data()),
      written_at_(timeline->written_at_.data()),
      stamp_(sample->seq + 1) {}

std::uint32_t SampleBuilder::Intern(const std::string& name) {
  const std::uint32_t id = timeline_->series_.Intern(name);
  timeline_->position_.resize(timeline_->series_.size(), kNoPosition);
  position_ = timeline_->position_.data();
  return id;
}

void SampleBuilder::PutUnplaced(std::uint32_t id, std::uint64_t value) {
  for (auto& [unplaced_id, unplaced_value] : timeline_->unplaced_) {
    if (unplaced_id == id) {
      unplaced_value = value;
      return;
    }
  }
  timeline_->unplaced_.emplace_back(id, value);
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
  // Sources emit the same series sample after sample, so the row is written
  // in place against the latest layout, and that layout is shared when
  // every position of it was written and no other series was set.
  s.row.resize(prev == nullptr ? 0 : prev->row.size());
  SampleBuilder builder(this, &s, prev);
  Collect(builder);
  if (prev != nullptr && builder.written_ == s.row.size() &&
      unplaced_.empty()) {
    s.layout = prev->layout;
  } else {
    Relayout(&s, prev, builder.stamp_);
  }

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

void Timeline::Relayout(Sample* s, const Sample* previous,
                        std::uint64_t stamp) {
  std::sort(unplaced_.begin(), unplaced_.end());  // Ids are unique.
  const std::span<const std::uint32_t> old =
      previous == nullptr ? std::span<const std::uint32_t>() : previous->ids();
  auto layout = std::make_shared<SeriesLayout>();
  std::vector<std::uint64_t> row;
  layout->reserve(old.size() + unplaced_.size());
  row.reserve(old.size() + unplaced_.size());
  // Merge the written positions (in id order already) with the side list;
  // no id is in both.
  std::size_t p = 0, u = 0;
  for (;;) {
    while (p < old.size() && written_at_[p] != stamp) ++p;
    if (p == old.size() && u == unplaced_.size()) break;
    if (u == unplaced_.size() ||
        (p < old.size() && old[p] < unplaced_[u].first)) {
      layout->push_back(old[p]);
      row.push_back(s->row[p++]);
    } else {
      layout->push_back(unplaced_[u].first);
      row.push_back(unplaced_[u++].second);
    }
  }
  for (const std::uint32_t id : old) position_[id] = SampleBuilder::kNoPosition;
  for (std::uint32_t i = 0; i < layout->size(); ++i) {
    position_[(*layout)[i]] = i;
  }
  written_at_.assign(layout->size(), 0);
  unplaced_.clear();
  s->row = std::move(row);
  s->layout = std::move(layout);
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

namespace {

// Render threads the host offers ToJsonl: its hardware threads, at most
// kMaxRenderRanges, at least 1 when it cannot tell.
std::size_t HostRenderRanges() {
  static const std::size_t ranges = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kMaxRenderRanges);
  return ranges;
}

// Ranges for a document of about `bytes`.
std::size_t RangesFor(std::size_t bytes) {
  return std::clamp<std::size_t>(bytes / kMinRenderRangeBytes, 1,
                                 HostRenderRanges());
}

// Runs body(r) for every r in [0, ranges): range 0 on the calling thread,
// the others on worker threads started before it. A range whose thread
// cannot be started runs on the calling thread instead.
template <typename Body>
void ForEachRange(std::size_t ranges, const Body& body) {
  std::vector<std::thread> workers;
  workers.reserve(ranges - 1);
  for (std::size_t r = 1; r < ranges; ++r) {
    try {
      workers.emplace_back(std::cref(body), r);
    } catch (const std::system_error&) {
      body(r);
    }
  }
  body(0);
  for (std::thread& worker : workers) worker.join();
}

}  // namespace

std::string Timeline::ToJsonl() const { return RenderJsonl(0); }

std::string Timeline::RenderJsonl(std::size_t ranges) const {
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
  const auto event_line = [&](std::size_t i) {
    const std::size_t begin = i == 0 ? 0 : event_end[i - 1];
    return std::string_view(event_lines).substr(begin, event_end[i] - begin);
  };

  // Size every sample line exactly, over ranges of samples: its fixed text,
  // its numbers' digits and its layout's keys (counted once per run of
  // samples sharing the layout). A value renders as at least `"x":0`,
  // which bounds the document from below for the range count.
  static constexpr std::string_view kSampleHead =
      "{\"kind\":\"sample\",\"t_ns\":";
  static constexpr std::string_view kSeq = ",\"seq\":";
  static constexpr std::string_view kInterval = ",\"interval_ns\":";
  static constexpr std::string_view kValues = ",\"values\":{";
  static constexpr std::string_view kSampleTail = "}}\n";
  constexpr std::size_t kSampleText = kSampleHead.size() + kSeq.size() +
                                      kInterval.size() + kValues.size() +
                                      kSampleTail.size();
  constexpr std::size_t kMinValueBytes = 5;
  const std::size_t n = samples_.size();
  std::size_t values = 0;
  for (const Sample& s : samples_) values += s.row.size();
  const std::size_t sizing_ranges =
      ranges != 0 ? ranges : RangesFor(values * kMinValueBytes);
  std::vector<std::size_t> sample_at(n);  // Sizes, then offsets.
  ForEachRange(sizing_ranges, [&](std::size_t r) {
    const std::size_t begin = n * r / sizing_ranges;
    const std::size_t end = n * (r + 1) / sizing_ranges;
    const SeriesLayout* sized_layout = nullptr;
    std::size_t layout_key_bytes = 0;
    auto it = samples_.begin() + static_cast<std::ptrdiff_t>(begin);
    for (std::size_t i = begin; i < end; ++i, ++it) {
      const Sample& s = *it;
      if (s.layout.get() != sized_layout) {
        sized_layout = s.layout.get();
        layout_key_bytes = 0;
        for (const std::uint32_t id : s.ids()) {
          layout_key_bytes += keys[id].size();
        }
        if (layout_key_bytes > 0) --layout_key_bytes;  // The first comma.
      }
      std::size_t digits = 0;
      for (const std::uint64_t v : s.row) digits += DecimalDigits(v);
      sample_at[i] = kSampleText + layout_key_bytes + digits +
                     DecimalDigits(s.t_ns) + DecimalDigits(s.seq) +
                     DecimalDigits(s.interval_ns);
    }
  });

  // Merge by timestamp. An event at t belongs to the interval that a sample
  // stamped >= t closes, so events sort before an equal-stamped sample —
  // except events the sample itself emitted (watchdog alerts, recognized by
  // seq >= events_before), which sort after it.
  const auto event_first = [&](std::size_t si, std::size_t ei) {
    return ei < events.size() &&
           (si >= n || events[ei].t_ns < samples_[si].t_ns ||
            (events[ei].t_ns == samples_[si].t_ns &&
             events[ei].seq < samples_[si].events_before));
  };
  // Every line's offset, in that order.
  std::vector<std::size_t> event_at(events.size());
  std::size_t size = 0;
  for (std::size_t si = 0, ei = 0; si < n || ei < events.size();) {
    if (event_first(si, ei)) {
      event_at[ei] = size;
      size += event_line(ei++).size();
    } else {
      const std::size_t line = sample_at[si];
      sample_at[si++] = size;
      size += line;
    }
  }

  // Byte-balanced ranges of lines: range r starts at the first line at or
  // after size * r / ranges, with the samples and events before it done.
  struct Cut {
    std::size_t at, sample, event;
  };
  const std::size_t render_ranges = ranges != 0 ? ranges : RangesFor(size);
  std::vector<Cut> cuts(render_ranges + 1);  // The first starts at 0.
  cuts.back() = {size, n, events.size()};
  for (std::size_t r = 1; r < render_ranges; ++r) {
    const std::size_t target = size * r / render_ranges;
    Cut& cut = cuts[r];
    cut.sample = static_cast<std::size_t>(
        std::lower_bound(sample_at.begin(), sample_at.end(), target) -
        sample_at.begin());
    cut.event = static_cast<std::size_t>(
        std::lower_bound(event_at.begin(), event_at.end(), target) -
        event_at.begin());
    cut.at = std::min(cut.sample < n ? sample_at[cut.sample] : size,
                      cut.event < events.size() ? event_at[cut.event] : size);
  }

  // Each range renders through its own write pointer into the string sized
  // to the byte.
  std::string out(size, '\0');
  ForEachRange(render_ranges, [&](std::size_t r) {
    const Cut& from = cuts[r];
    const Cut& to = cuts[r + 1];
    RawTextOut os(out.data() + from.at, out.data() + to.at);
    std::size_t si = from.sample, ei = from.event;
    while (si < to.sample || ei < to.event) {
      if (event_first(si, ei)) {
        os << event_line(ei++);
        continue;
      }
      const Sample& s = samples_[si++];
      os << kSampleHead << s.t_ns << kSeq << s.seq << kInterval
         << s.interval_ns << kValues;
      const std::span<const std::uint32_t> ids = s.ids();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        os << std::string_view(keys[ids[i]]).substr(i == 0 ? 1 : 0)
           << s.row[i];
      }
      os << kSampleTail;
    }
    assert(os.at() == out.data() + to.at &&
           "ToJsonl sizing pass disagrees with render");
  });
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
