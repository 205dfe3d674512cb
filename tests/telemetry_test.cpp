// Telemetry tests: timeline boundary stamping and delta/rate arithmetic
// against hand-computed values (device and fleet sources alike), watchdog
// edge-trigger semantics, full-device reconciliation (telescoping deltas == final counters), byte-identical
// exports across runs (and across JSONL render thread counts), alert behavior
// under fault storms vs clean runs, and the disabled-telemetry invariance
// guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/kvssd.h"
#include "telemetry/export.h"
#include "telemetry/fleet.h"
#include "telemetry/telemetry.h"
#include "telemetry/text_out.h"
#include "workload/value_gen.h"

namespace bandslim::telemetry {

// Renders a timeline's JSONL over exactly `ranges` threads.
struct JsonlRenderProbe {
  static std::string Render(const Timeline& t, std::size_t ranges) {
    return t.RenderJsonl(ranges);
  }
};

namespace {

// --- Timeline unit tests (no device, hand-driven clock) --------------------
// The grid, Finalize, publish cadence and export ordering live once in
// Timeline. Every test drives both of its sources in lockstep — the device
// Sampler and a fleet aggregator over the same one-shard registry — and
// asserts the same numbers on each.

class SamplerUnitTest : public ::testing::Test {
 protected:
  void Make(TimelineConfig cfg = {}) {
    cfg.enabled = true;
    cfg.sample_interval_ns = sim::kMillisecond;
    sampler_ = std::make_unique<Sampler>(&clock_, cfg);
    Sampler::Sources src;
    src.metrics = &metrics_;
    sampler_->Bind(src);
    fleet_ = std::make_unique<FleetAggregator>(&clock_, cfg);
    fleet_->Bind({{&metrics_, &clock_}}, nullptr, {});
    planes_ = {sampler_.get(), fleet_.get()};
  }
  void Poll() {
    for (Timeline* t : planes_) t->Poll();
  }
  void Finalize() {
    for (Timeline* t : planes_) t->Finalize();
  }
  const char* Name(const Timeline* t) const {
    return t == sampler_.get() ? "device" : "fleet";
  }

  sim::VirtualClock clock_;
  stats::MetricsRegistry metrics_;
  std::unique_ptr<Sampler> sampler_;
  std::unique_ptr<FleetAggregator> fleet_;
  std::vector<Timeline*> planes_;
};

TEST_F(SamplerUnitTest, StampsAtIntervalBoundaries) {
  Make();
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  // Inside the first interval: no boundary crossed, no sample.
  clock_.Advance(500'000);
  Poll();
  for (Timeline* t : planes_) EXPECT_TRUE(t->samples().empty()) << Name(t);

  // Crossing 1 ms: one sample stamped exactly at the boundary.
  ops->Add(3);
  clock_.Advance(1'000'000);  // now = 1.5 ms
  Poll();
  for (Timeline* t : planes_) {
    SCOPED_TRACE(Name(t));
    ASSERT_EQ(t->samples().size(), 1u);
    EXPECT_EQ(t->samples().back().t_ns, 1'000'000u);
    EXPECT_EQ(t->samples().back().interval_ns, 1'000'000u);
    EXPECT_EQ(t->Latest("delta.ops"), 3u);
    // 3 ops over exactly 1 ms = 3000 ops/s = 3'000'000 milli-ops/s.
    EXPECT_EQ(t->Latest("rate.ops_per_sec_milli"), 3'000'000u);
  }

  // A burst crossing three boundaries yields ONE sample stamped at the last
  // crossed boundary, with rates divided by the true 3 ms span.
  ops->Add(10);
  clock_.Advance(3'200'000);  // now = 4.7 ms
  Poll();
  for (Timeline* t : planes_) {
    SCOPED_TRACE(Name(t));
    ASSERT_EQ(t->samples().size(), 2u);
    EXPECT_EQ(t->samples().back().t_ns, 4'000'000u);
    EXPECT_EQ(t->samples().back().interval_ns, 3'000'000u);
    EXPECT_EQ(t->Latest("delta.ops"), 10u);
    // floor(10e9/3e6)*1000 + (10e9 mod 3e6)*1000/3e6 = 3'333'333.
    EXPECT_EQ(t->Latest("rate.ops_per_sec_milli"), 3'333'333u);
  }

  // No boundary since the last sample: Poll is a no-op.
  Poll();
  for (Timeline* t : planes_) EXPECT_EQ(t->samples().size(), 2u) << Name(t);
}

TEST_F(SamplerUnitTest, FinalizeClosesAtExactNowAndIsIdempotent) {
  Make();
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  ops->Add(4);
  clock_.Advance(1'100'000);
  Poll();
  for (Timeline* t : planes_) ASSERT_EQ(t->samples().size(), 1u) << Name(t);

  // Finalize stamps off-grid at the current time so the closing sample's
  // cumulative series match the final counters.
  ops->Add(1);
  clock_.Advance(600'000);  // now = 1.7 ms, 0.7 ms past the 1 ms stamp
  Finalize();
  for (Timeline* t : planes_) {
    SCOPED_TRACE(Name(t));
    ASSERT_EQ(t->samples().size(), 2u);
    EXPECT_EQ(t->samples().back().t_ns, 1'700'000u);
    EXPECT_EQ(t->samples().back().interval_ns, 700'000u);
    EXPECT_EQ(t->Latest("delta.ops"), 1u);
    // floor(1e9/7e5)*1000 + (1e9 mod 7e5)*1000/7e5 = 1'428'571.
    EXPECT_EQ(t->Latest("rate.ops_per_sec_milli"), 1'428'571u);
    EXPECT_EQ(t->Latest("nvme.commands_submitted"), 5u);
  }

  // Same time, nothing new: no duplicate closing sample.
  Finalize();
  for (Timeline* t : planes_) {
    SCOPED_TRACE(Name(t));
    EXPECT_EQ(t->samples().size(), 2u);
    EXPECT_EQ(t->samples_emitted(), 2u);
    EXPECT_EQ(t->dropped_samples(), 0u);
  }
}

TEST_F(SamplerUnitTest, WatchdogEdgeTriggersAndRearms) {
  TimelineConfig cfg;
  cfg.rules = {ZeroOpStallRule(/*n=*/2)};
  Make(cfg);
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  const auto step = [&](std::uint64_t add_ops) {
    ops->Add(add_ops);
    clock_.Advance(sim::kMillisecond);
    Poll();
  };
  const auto fired = [&](const Timeline* t) {
    return t->watchdog().states()[0].fired;
  };
  const auto active = [&](const Timeline* t) {
    return t->watchdog().states()[0].active;
  };

  step(0);  // holding = 1: below for_intervals, silent.
  for (Timeline* t : planes_) EXPECT_EQ(fired(t), 0u) << Name(t);
  step(0);  // holding = 2: FIRES.
  for (Timeline* t : planes_) {
    EXPECT_EQ(fired(t), 1u) << Name(t);
    EXPECT_TRUE(active(t)) << Name(t);
  }
  step(0);  // Still holding: stays active, no re-fire.
  for (Timeline* t : planes_) EXPECT_EQ(fired(t), 1u) << Name(t);
  step(5);  // Condition breaks: re-arms.
  for (Timeline* t : planes_) EXPECT_FALSE(active(t)) << Name(t);
  step(0);
  step(0);  // Held twice again: second fire.
  for (Timeline* t : planes_) {
    SCOPED_TRACE(Name(t));
    EXPECT_EQ(fired(t), 2u);
    EXPECT_EQ(t->watchdog().total_fired(), 2u);
    // Each fire appended one alert record carrying the rule index.
    EXPECT_EQ(t->event_log().count(EventType::kAlert), 2u);
    EXPECT_EQ(t->event_log().records().back().a, 0u);
  }
}

// --- Full-device tests ------------------------------------------------------

KvSsdOptions TelemetryOptions() {
  KvSsdOptions o;
  o.telemetry.enabled = true;
  // Short interval so a few-hundred-op run resolves into many samples.
  o.telemetry.sample_interval_ns = 20 * sim::kMicrosecond;
  return o;
}

void RunSmallWorkload(KvSsd& ssd, int ops) {
  for (int i = 0; i < ops; ++i) {
    // Mix of single-command and multi-fragment piggyback sizes.
    const std::size_t size = (i % 3 == 0) ? 300 : 48;
    Bytes value = workload::MakeValue(size, 1, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd.Put("key" + std::to_string(i), ByteSpan(value)).ok());
  }
  ASSERT_TRUE(ssd.Flush().ok());
}

TEST(TelemetryDeviceTest, DeltasTelescopeToFinalCounters) {
  auto ssd = KvSsd::Open(TelemetryOptions()).value();
  RunSmallWorkload(*ssd, 300);
  ssd->Hooks().sampler->Finalize();

  const Sampler& t = ssd->telemetry();
  EXPECT_GT(t.samples().size(), 5u);
  EXPECT_EQ(t.dropped_samples(), 0u);

  // Per-interval deltas must telescope exactly to the run's final counters:
  // the closing sample is stamped at `now`, so nothing falls off the end.
  const KvSsdStats stats = ssd->GetStats();
  EXPECT_EQ(SumSeries(t, "delta.ops"), stats.commands_submitted);
  EXPECT_EQ(SumSeries(t, "delta.pcie.h2d_bytes"), stats.pcie_h2d_bytes);
  EXPECT_EQ(SumSeries(t, "delta.pcie.d2h_bytes"), stats.pcie_d2h_bytes);
  EXPECT_EQ(SumSeries(t, "delta.nand.pages_programmed"),
            stats.nand_pages_programmed);
  EXPECT_EQ(SumSeries(t, "delta.value_bytes"), stats.value_bytes_written);

  // The last sample's cumulative series equal the final counters verbatim.
  EXPECT_EQ(t.Latest("nvme.commands_submitted"), stats.commands_submitted);
  EXPECT_EQ(t.Latest("pcie.h2d_bytes"), stats.pcie_h2d_bytes);
  EXPECT_EQ(t.Latest("nand.pages_programmed"), stats.nand_pages_programmed);

  // Snapshot surfaces the stream sizes.
  const DeviceSnapshot snap = ssd->InspectDevice();
  EXPECT_EQ(snap.telemetry_samples, t.samples().size());
}

TEST(TelemetryDeviceTest, ExportsAreByteIdenticalAcrossRuns) {
  const std::vector<std::string> csv_series = {
      "delta.ops", "rate.ops_per_sec_milli", "rate.pcie.h2d_bytes_per_sec",
      "rate.taf_milli", "rate.waf_milli"};
  std::string prom[2], jsonl[2], csv[2];
  std::size_t sample_count = 0;
  for (int run = 0; run < 2; ++run) {
    KvSsdOptions o = TelemetryOptions();
    o.telemetry.rules = {RetryStormRule(1, 1)};
    auto ssd = KvSsd::Open(o).value();
    RunSmallWorkload(*ssd, 200);
    ssd->Hooks().sampler->Finalize();
    prom[run] = ToPrometheusText(ssd->telemetry());
    jsonl[run] = ToJsonl(ssd->telemetry());
    csv[run] = ToTimeSeriesCsv(ssd->telemetry(), csv_series);
    sample_count = ssd->telemetry().samples().size();
  }
  EXPECT_EQ(prom[0], prom[1]);
  EXPECT_EQ(jsonl[0], jsonl[1]);
  EXPECT_EQ(csv[0], csv[1]);

  // Shape: Prometheus exposition carries the sample counter, per-series
  // gauges, and one alert-total per configured rule.
  EXPECT_NE(prom[0].find("# TYPE bandslim_telemetry_samples_total counter"),
            std::string::npos);
  EXPECT_NE(prom[0].find("# TYPE bandslim_delta_ops gauge"),
            std::string::npos);
  EXPECT_NE(
      prom[0].find("bandslim_watchdog_alerts_total{rule=\"retry_storm\"} 0"),
      std::string::npos);
  // CSV: header plus one row per sample.
  const auto rows = std::count(csv[0].begin(), csv[0].end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(rows), 1u + sample_count);
  EXPECT_EQ(csv[0].rfind("t_ns,interval_ns,delta.ops,", 0), 0u);
}

TEST(TelemetryDeviceTest, WatchdogFiresUnderFaultStormOnly) {
  // Clean run: the retry-storm rule must stay silent.
  KvSsdOptions clean = TelemetryOptions();
  clean.telemetry.rules = {RetryStormRule(1, 1)};
  auto clean_ssd = KvSsd::Open(clean).value();
  RunSmallWorkload(*clean_ssd, 150);
  clean_ssd->Hooks().sampler->Finalize();
  const DeviceSnapshot clean_snap = clean_ssd->InspectDevice();
  ASSERT_EQ(clean_snap.alerts.size(), 1u);
  EXPECT_EQ(clean_snap.alerts[0].rule, "retry_storm");
  EXPECT_EQ(clean_snap.alerts[0].fired, 0u);
  EXPECT_EQ(clean_ssd->telemetry().event_log().count(EventType::kTimeout), 0u);

  // Fault storm: dropped commands force retries; the rule must fire and the
  // event log must carry the timeout/backoff records behind the alert.
  KvSsdOptions faulty = clean;
  faulty.fault.command_drop_rate = 0.2;
  auto faulty_ssd = KvSsd::Open(faulty).value();
  RunSmallWorkload(*faulty_ssd, 150);
  faulty_ssd->Hooks().sampler->Finalize();
  const DeviceSnapshot snap = faulty_ssd->InspectDevice();
  ASSERT_EQ(snap.alerts.size(), 1u);
  EXPECT_GE(snap.alerts[0].fired, 1u);
  EXPECT_GT(snap.alerts[0].last_fire_ns, 0u);
  const EventLog& log = faulty_ssd->telemetry().event_log();
  EXPECT_GE(log.count(EventType::kTimeout), 1u);
  EXPECT_GE(log.count(EventType::kRetryBackoff), 1u);
  EXPECT_GE(log.count(EventType::kAlert), 1u);
  // The alert is attributed to its rule in the JSONL stream.
  EXPECT_NE(ToJsonl(faulty_ssd->telemetry()).find("\"rule\":\"retry_storm\""),
            std::string::npos);
}

TEST(TelemetryDeviceTest, DisabledTelemetryChangesNoSimulatedOutcome) {
  KvSsdOptions off;  // Default: telemetry disabled.
  auto off_ssd = KvSsd::Open(off).value();
  RunSmallWorkload(*off_ssd, 200);

  KvSsdOptions on = TelemetryOptions();
  on.telemetry.rules = {RetryStormRule(1, 1), ZeroOpStallRule(50)};
  auto on_ssd = KvSsd::Open(on).value();
  RunSmallWorkload(*on_ssd, 200);
  on_ssd->Hooks().sampler->Finalize();

  // Identical simulated outcomes, to the nanosecond and byte.
  const KvSsdStats a = off_ssd->GetStats();
  const KvSsdStats b = on_ssd->GetStats();
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.commands_submitted, b.commands_submitted);
  EXPECT_EQ(a.pcie_h2d_bytes, b.pcie_h2d_bytes);
  EXPECT_EQ(a.pcie_d2h_bytes, b.pcie_d2h_bytes);
  EXPECT_EQ(a.nand_pages_programmed, b.nand_pages_programmed);
  EXPECT_EQ(a.value_bytes_written, b.value_bytes_written);

  // The disabled sampler records nothing.
  const DeviceSnapshot snap = off_ssd->InspectDevice();
  EXPECT_EQ(snap.telemetry_samples, 0u);
  EXPECT_EQ(snap.telemetry_events, 0u);
  EXPECT_FALSE(off_ssd->telemetry().enabled());
}

TEST(TelemetryDeviceTest, PowerCycleEmitsEventAndSamplingContinues) {
  auto ssd = KvSsd::Open(TelemetryOptions()).value();
  RunSmallWorkload(*ssd, 100);
  const std::uint64_t before = ssd->telemetry().samples_emitted();
  ASSERT_TRUE(ssd->PowerCycle().ok());
  RunSmallWorkload(*ssd, 100);
  ssd->Hooks().sampler->Finalize();

  const EventLog& log = ssd->telemetry().event_log();
  EXPECT_EQ(log.count(EventType::kPowerCycle), 1u);
  // The sampler keeps running across the rebuilt device (rebound sources).
  EXPECT_GT(ssd->telemetry().samples_emitted(), before);
  EXPECT_NE(ToJsonl(ssd->telemetry()).find("\"type\":\"power_cycle\""),
            std::string::npos);
}

// --------------------- Percentile pipeline (timeline) -----------------------

TEST_F(SamplerUnitTest, PercentileSeriesFromHistogramDeltas) {
  Make();
  stats::Histogram* h = metrics_.GetHistogram("trace.op.put.latency_ns");

  // Interval 1: three values of 100 ns, all in bucket [64,128).
  for (int i = 0; i < 3; ++i) h->Record(100);
  clock_.Advance(sim::kMillisecond);
  Poll();
  for (Timeline* t : planes_) {
    SCOPED_TRACE(Name(t));
    // p50: rank ceil(3*0.5) = 2, position 2 of 3 -> 64 + 64*1/3 = 85.
    EXPECT_EQ(t->Latest("trace.op.put.p50"), 85u);
    // p95/p99: rank 3, position 3 of 3 -> 64 + 64*2/3 = 106.
    EXPECT_EQ(t->Latest("trace.op.put.p95"), 106u);
    EXPECT_EQ(t->Latest("trace.op.put.p99"), 106u);
    EXPECT_EQ(t->Latest("delta.trace.op.put.count"), 3u);
    EXPECT_EQ(t->Latest("delta.trace.op.put.sum"), 300u);
    EXPECT_EQ(t->Latest("hist.trace.op.put.count"), 3u);
  }

  // Interval 2: no records. Empty-interval percentiles are 0, never NaN or
  // a stale carry-over; the cumulative count holds.
  clock_.Advance(sim::kMillisecond);
  Poll();
  for (Timeline* t : planes_) {
    SCOPED_TRACE(Name(t));
    EXPECT_EQ(t->Latest("trace.op.put.p50"), 0u);
    EXPECT_EQ(t->Latest("trace.op.put.p99"), 0u);
    EXPECT_EQ(t->Latest("delta.trace.op.put.count"), 0u);
    EXPECT_EQ(t->Latest("delta.trace.op.put.sum"), 0u);
    EXPECT_EQ(t->Latest("hist.trace.op.put.count"), 3u);
  }

  // Interval 3: one value of 7 ns (bucket [4,8)) — the interval quantile
  // reflects only this interval, not the lifetime distribution.
  h->Record(7);
  clock_.Advance(sim::kMillisecond);
  Poll();
  for (Timeline* t : planes_) {
    SCOPED_TRACE(Name(t));
    EXPECT_EQ(t->Latest("trace.op.put.p50"), 4u);
    EXPECT_EQ(t->Latest("trace.op.put.p99"), 4u);
    EXPECT_EQ(t->Latest("delta.trace.op.put.sum"), 7u);
    EXPECT_EQ(t->Latest("hist.trace.op.put.count"), 4u);

    // Telescoping: interval delta counts/sums add up to the lifetime.
    ASSERT_GE(t->series().Find("delta.trace.op.put.count"), 0);
    ASSERT_GE(t->series().Find("delta.trace.op.put.sum"), 0);
    EXPECT_EQ(SumSeries(*t, "delta.trace.op.put.count"), h->count());
    EXPECT_EQ(SumSeries(*t, "delta.trace.op.put.sum"), h->sum());
  }
}

TEST_F(SamplerUnitTest, HistogramWithNoRecordsEmitsNoSeries) {
  Make();
  metrics_.GetHistogram("trace.op.get.latency_ns");  // Never recorded into.
  clock_.Advance(sim::kMillisecond);
  Poll();
  for (Timeline* t : planes_) {
    EXPECT_LT(t->series().Find("trace.op.get.p50"), 0) << Name(t);
    EXPECT_LT(t->series().Find("hist.trace.op.get.count"), 0) << Name(t);
  }
}

// Series names of each sample line of `jsonl`, in rendered order.
std::vector<std::vector<std::string>> SampleKeys(const std::string& jsonl) {
  std::vector<std::vector<std::string>> lines;
  constexpr std::string_view kValues = "\"values\":{";
  for (std::size_t pos = jsonl.find(kValues); pos != std::string::npos;
       pos = jsonl.find(kValues, pos)) {
    pos += kValues.size();
    const std::size_t end = jsonl.find('}', pos);
    std::vector<std::string> keys;
    while (pos < end) {
      const std::size_t open = jsonl.find('"', pos);
      if (open > end) break;
      const std::size_t close = jsonl.find('"', open + 1);
      keys.push_back(jsonl.substr(open + 1, close - open - 1));
      pos = close + 1;
    }
    lines.push_back(std::move(keys));
  }
  return lines;
}

std::vector<std::string> Concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// The golden runs never grow a registry mid-run, so this is the coverage of
// the plan-rebuild path. A series that first appears mid-run takes the next
// id when it first appears and keeps its place in every later sample line;
// a re-Bind onto a second registry keeps every id, and each histogram's
// interval state carries over by name.
TEST_F(SamplerUnitTest, SeriesAddedMidRunKeepFirstAppearanceOrder) {
  Make();
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");
  stats::Histogram* put = metrics_.GetHistogram("trace.op.put.latency_ns");
  const auto step = [&] {
    clock_.Advance(sim::kMillisecond);
    Poll();
  };
  const auto next_ids = [&] {
    std::vector<std::int64_t> ids;
    for (Timeline* t : planes_) {
      ids.push_back(static_cast<std::int64_t>(t->series().size()));
    }
    return ids;
  };

  ops->Add(2);
  step();  // Sample 1.
  ops->Add(1);
  step();  // Sample 2.

  // A counter created after sample 2 is interned at sample 3.
  std::vector<std::int64_t> next = next_ids();
  metrics_.GetCounter("controller.value_bytes_written")->Add(100);
  step();
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    const Timeline* t = planes_[p];
    SCOPED_TRACE(Name(t));
    EXPECT_EQ(t->series().Find("controller.value_bytes_written"), next[p]);
    EXPECT_EQ(t->series().size(), static_cast<std::size_t>(next[p] + 1));
    EXPECT_EQ(t->Latest("controller.value_bytes_written"), 100u);
    EXPECT_EQ(t->Latest("delta.value_bytes"), 100u);
    EXPECT_EQ(t->Latest("delta.ops"), 0u);
  }

  // A histogram registered up front that first records at sample 4.
  next = next_ids();
  put->Record(100);
  step();
  const std::vector<std::string> hist_keys = {
      "hist.trace.op.put.count", "delta.trace.op.put.count",
      "delta.trace.op.put.sum",  "trace.op.put.p50",
      "trace.op.put.p95",        "trace.op.put.p99"};
  const std::vector<std::string> lifetime_keys = {
      "lifetime.trace.op.put.p50", "lifetime.trace.op.put.p95",
      "lifetime.trace.op.put.p99"};
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    const Timeline* t = planes_[p];
    SCOPED_TRACE(Name(t));
    for (std::size_t k = 0; k < hist_keys.size(); ++k) {
      EXPECT_EQ(t->series().Find(hist_keys[k]),
                next[p] + static_cast<std::int64_t>(k));
    }
    EXPECT_EQ(t->Latest("hist.trace.op.put.count"), 1u);
    EXPECT_EQ(t->Latest("delta.trace.op.put.sum"), 100u);
  }
  EXPECT_EQ(fleet_->series().Find("lifetime.trace.op.put.p50"),
            next[1] + static_cast<std::int64_t>(hist_keys.size()));

  // Re-bind both planes onto a second registry: one new counter that sorts
  // first, one shared counter, the histogram with two more recordings, and
  // no controller.value_bytes_written.
  stats::MetricsRegistry other;
  other.GetCounter("aaa.first")->Add(7);
  other.GetCounter("nvme.commands_submitted")->Add(50);
  stats::Histogram* other_put = other.GetHistogram("trace.op.put.latency_ns");
  for (int i = 0; i < 3; ++i) other_put->Record(100);
  Sampler::Sources src;
  src.metrics = &other;
  sampler_->Bind(src);
  fleet_->Bind({{&other, &clock_}}, nullptr, {});
  next = next_ids();
  step();
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    const Timeline* t = planes_[p];
    SCOPED_TRACE(Name(t));
    EXPECT_EQ(t->series().Find("aaa.first"), next[p]);
    EXPECT_EQ(t->Latest("aaa.first"), 7u);
    EXPECT_EQ(t->Latest("nvme.commands_submitted"), 50u);
    EXPECT_EQ(t->Latest("delta.ops"), 47u);
    EXPECT_EQ(t->Latest("controller.value_bytes_written"), 0u);
    EXPECT_EQ(t->Latest("hist.trace.op.put.count"), 3u);
    EXPECT_EQ(t->Latest("delta.trace.op.put.count"), 2u);
  }

  // Exact key order of every sample line: ids in first-appearance order.
  const std::vector<std::string> device_first = {
      "nvme.commands_submitted",
      "delta.ops",
      "delta.pcie.h2d_bytes",
      "delta.pcie.d2h_bytes",
      "delta.value_bytes",
      "delta.nand.pages_programmed",
      "delta.nvme.timeouts",
      "delta.nvme.retries",
      "delta.nand.program_failures",
      "delta.nand.ecc_corrections",
      "delta.lsm.memtable_stalls",
      "delta.lsm.compactions",
      "delta.lsm.compaction_bytes_written",
      "rate.ops_per_sec_milli",
      "rate.pcie.h2d_bytes_per_sec",
      "rate.pcie.d2h_bytes_per_sec",
      "rate.taf_milli",
      "rate.waf_milli",
      "total.taf_milli",
      "total.waf_milli"};
  const std::vector<std::string> fleet_first = {
      "nvme.commands_submitted",
      "shard0.ops",
      "shard0.delta.ops",
      "shard0.routed_keys",
      "shard0.p99_ns",
      "fleet.shards",
      "delta.ops",
      "delta.value_bytes",
      "delta.pcie.h2d_bytes",
      "delta.nand.pages_programmed",
      "rate.ops_per_sec_milli",
      "rate.taf_milli",
      "total.taf_milli",
      "fleet.imbalance.ops_max_over_mean_milli",
      "fleet.skew.p99_max_over_fleet_milli",
      "fleet.ring.skew_permille",
      "fleet.straggler.stalled_shards"};
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    const Timeline* t = planes_[p];
    SCOPED_TRACE(Name(t));
    const std::vector<std::string>& first = p == 0 ? device_first : fleet_first;
    const std::vector<std::string> with_vb =
        Concat(first, {"controller.value_bytes_written"});
    const std::vector<std::string> with_hist =
        Concat(Concat(with_vb, hist_keys),
               p == 0 ? std::vector<std::string>{} : lifetime_keys);
    const std::vector<std::string> rebound =
        Concat(Concat(Concat(first, hist_keys),
                      p == 0 ? std::vector<std::string>{} : lifetime_keys),
               {"aaa.first"});
    const auto lines = SampleKeys(ToJsonl(*t));
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(lines[0], first);
    EXPECT_EQ(lines[1], first);
    EXPECT_EQ(lines[2], with_vb);
    EXPECT_EQ(lines[3], with_hist);
    EXPECT_EQ(lines[4], rebound);
  }
}

// ------------------- Export ordering and snapshot publishing ----------------

// A timeline whose one source sets a fixed list of series.
class FixedTimeline : public Timeline {
 public:
  FixedTimeline(const sim::VirtualClock* clock, const TimelineConfig& config,
                const std::vector<std::pair<std::string, std::uint64_t>>& set)
      : Timeline(clock, config, "test_samples_total", "Samples.") {
    for (const auto& [name, value] : set) {
      slots_.emplace_back(name);
      values_.push_back(value);
    }
    Anchor();
  }

 private:
  void Collect(SampleBuilder& b) override {
    for (std::size_t i = 0; i < slots_.size(); ++i) b.Set(slots_[i], values_[i]);
  }

  std::vector<SeriesSlot> slots_;
  std::vector<std::uint64_t> values_;
};

// Exact export bytes of a hand-built timeline: extreme values, names the
// Prometheus sanitizer rewrites (and two that sanitize alike: the lower id
// wins), an alert event naming its rule, one whose rule index is out of
// range (no "rule" member), and a device event stamped at the sample's
// boundary (sorts before the sample) next to the alert the sample raised
// (sorts after it).
TEST(TimelineRenderTest, ExactJsonlAndPrometheusBytes) {
  sim::VirtualClock clock;
  TimelineConfig cfg;
  cfg.enabled = true;
  cfg.sample_interval_ns = sim::kMillisecond;
  cfg.rules = {WatchdogRule{"zero_is_zero", "zero",
                            WatchdogRule::Cmp::kEqual, 0, 1}};
  FixedTimeline t(&clock, cfg,
                  {{"zero", 0},
                   {"max-value.x", ~0ULL},
                   {"1st", 42},
                   {"dup.name", 1},
                   {"dup_name", 2}});
  clock.Advance(500'000);
  t.event_log().Emit(EventType::kAlert, /*a=*/99, /*b=*/5);
  clock.Advance(500'000);
  t.event_log().Emit(EventType::kTimeout, /*a=*/7, /*b=*/1, /*tenant=*/2);
  t.Poll();

  EXPECT_EQ(
      t.ToJsonl(),
      "{\"kind\":\"event\",\"t_ns\":500000,\"seq\":0,\"type\":\"alert\","
      "\"a\":99,\"b\":5,\"tenant\":0}\n"
      "{\"kind\":\"event\",\"t_ns\":1000000,\"seq\":1,\"type\":\"timeout\","
      "\"a\":7,\"b\":1,\"tenant\":2}\n"
      "{\"kind\":\"sample\",\"t_ns\":1000000,\"seq\":0,\"interval_ns\":1000000,"
      "\"values\":{\"zero\":0,\"max-value.x\":18446744073709551615,\"1st\":42,"
      "\"dup.name\":1,\"dup_name\":2}}\n"
      "{\"kind\":\"event\",\"t_ns\":1000000,\"seq\":2,\"type\":\"alert\","
      "\"rule\":\"zero_is_zero\",\"a\":0,\"b\":0,\"tenant\":0}\n");
  EXPECT_EQ(t.ToPrometheusText(),
            "# HELP test_samples_total Samples.\n"
            "# TYPE test_samples_total counter\n"
            "test_samples_total 1\n"
            "# TYPE bandslim__1st gauge\n"
            "bandslim__1st 42 1\n"
            "# TYPE bandslim_dup_name gauge\n"
            "bandslim_dup_name 1 1\n"
            "# TYPE bandslim_max_value_x gauge\n"
            "bandslim_max_value_x 18446744073709551615 1\n"
            "# TYPE bandslim_zero gauge\n"
            "bandslim_zero 0 1\n"
            "# HELP bandslim_watchdog_alerts_total Edge-triggered watchdog "
            "rule fires.\n"
            "# TYPE bandslim_watchdog_alerts_total counter\n"
            "bandslim_watchdog_alerts_total{rule=\"zero_is_zero\"} 1\n");
}

// ------------------- Sample rows and their shared layouts -------------------

// A timeline whose source runs a script per sample: script(b, n) sets the
// series sample n carries.
class ScriptedTimeline : public Timeline {
 public:
  using Script = std::function<void(SampleBuilder&, std::uint64_t)>;
  ScriptedTimeline(const sim::VirtualClock* clock, Script script,
                   std::vector<WatchdogRule> rules = {})
      : Timeline(clock, {true, sim::kMillisecond, std::move(rules)},
                 "test_samples_total", "Samples."),
        script_(std::move(script)) {
    Anchor();
  }

 private:
  void Collect(SampleBuilder& b) override { script_(b, collected_++); }

  Script script_;
  std::uint64_t collected_ = 0;
};

void Step(sim::VirtualClock* clock, Timeline* t, int samples) {
  for (int i = 0; i < samples; ++i) {
    clock->Advance(sim::kMillisecond);
    t->Poll();
  }
}

TEST(SampleLayoutTest, SeriesFirstSetMidRunIsAbsentBeforeAndPresentAfter) {
  sim::VirtualClock clock;
  // "early" gives way to "late" at sample 2: the same number of series,
  // another set.
  SeriesSlot a("a"), early("early"), late("late"), once("once");
  ScriptedTimeline t(&clock, [&](SampleBuilder& b, std::uint64_t n) {
    b.Set(a, n);
    if (n < 2) b.Set(early, 5);
    if (n >= 2) b.Set(late, 100 + n);
    if (n == 3) b.Set(once, 7);
  });
  Step(&clock, &t, 5);
  const auto& samples = t.samples();
  ASSERT_EQ(samples.size(), 5u);
  const std::int64_t a_id = t.series().Find("a");
  const std::int64_t early_id = t.series().Find("early");
  const std::int64_t late_id = t.series().Find("late");
  const std::int64_t once_id = t.series().Find("once");
  ASSERT_GE(a_id, 0);
  ASSERT_GE(early_id, 0);
  ASSERT_GE(late_id, 0);
  ASSERT_GE(once_id, 0);
  for (std::uint64_t n = 0; n < samples.size(); ++n) {
    SCOPED_TRACE(n);
    const Sample& s = samples[n];
    EXPECT_EQ(s.row.size(), s.ids().size());
    EXPECT_EQ(s.Value(static_cast<std::uint32_t>(a_id), 777), n);
    EXPECT_EQ(s.Value(static_cast<std::uint32_t>(early_id), 777),
              n < 2 ? 5u : 777u);
    EXPECT_EQ(s.Value(static_cast<std::uint32_t>(late_id), 777),
              n >= 2 ? 100 + n : 777);
    EXPECT_EQ(s.Value(static_cast<std::uint32_t>(once_id), 777),
              n == 3 ? 7u : 777u);
  }
  // A layout is shared while the set of series holds, and rebuilt when it
  // changes, grows or shrinks.
  EXPECT_EQ(samples[0].layout, samples[1].layout);
  EXPECT_NE(samples[1].layout, samples[2].layout);
  EXPECT_NE(samples[2].layout, samples[3].layout);
  EXPECT_NE(samples[3].layout, samples[4].layout);
  EXPECT_EQ(*samples[4].layout, *samples[2].layout);

  const std::vector<std::vector<std::string>> keys = {
      {"a", "early"}, {"a", "early"}, {"a", "late"}, {"a", "late", "once"},
      {"a", "late"}};
  EXPECT_EQ(SampleKeys(t.ToJsonl()), keys);
}

TEST(SampleLayoutTest, SettingASlotTwiceCountsOnce) {
  sim::VirtualClock clock;
  SeriesSlot a("a"), b_slot("b");
  ScriptedTimeline t(&clock, [&](SampleBuilder& b, std::uint64_t n) {
    b.Set(a, n);
    b.Set(b_slot, 10 + n);
    if (n == 1) b.Set(a, 50);  // Overwrites; still one series.
  });
  Step(&clock, &t, 3);
  const auto& samples = t.samples();
  ASSERT_EQ(samples.size(), 3u);
  // Two distinct series each time, so every sample reuses the first layout.
  EXPECT_EQ(samples[1].layout, samples[0].layout);
  EXPECT_EQ(samples[2].layout, samples[0].layout);
  EXPECT_EQ(samples[1].row, (std::vector<std::uint64_t>{50, 11}));
  EXPECT_EQ(t.ToJsonl(),
            "{\"kind\":\"sample\",\"t_ns\":1000000,\"seq\":0,"
            "\"interval_ns\":1000000,\"values\":{\"a\":0,\"b\":10}}\n"
            "{\"kind\":\"sample\",\"t_ns\":2000000,\"seq\":1,"
            "\"interval_ns\":1000000,\"values\":{\"a\":50,\"b\":11}}\n"
            "{\"kind\":\"sample\",\"t_ns\":3000000,\"seq\":2,"
            "\"interval_ns\":1000000,\"values\":{\"a\":2,\"b\":12}}\n");
}

// The CSV and the reductions agree with a reference kept by the source
// itself: what it set in each sample, by name.
TEST(SampleLayoutTest, CsvAndReductionsMatchAReferenceOfWhatWasSet) {
  sim::VirtualClock clock;
  std::vector<SeriesSlot> slots = {SeriesSlot("steady"), SeriesSlot("late"),
                                   SeriesSlot("gappy"), SeriesSlot("big")};
  std::vector<std::map<std::string, std::uint64_t>> set;
  ScriptedTimeline t(&clock, [&](SampleBuilder& b, std::uint64_t n) {
    std::map<std::string, std::uint64_t>& now = set.emplace_back();
    const auto put = [&](SeriesSlot& slot, std::uint64_t value) {
      b.Set(slot, value);
      now[slot.name] = value;
    };
    put(slots[0], n * 3);
    if (n >= 4) put(slots[1], 1000 - n);
    if (n % 3 == 1) put(slots[2], n * n);
    if (n == 6) put(slots[3], ~0ULL - 1);
  });
  Step(&clock, &t, 9);
  ASSERT_EQ(set.size(), t.samples().size());

  const std::vector<std::string> names = {"steady", "late", "gappy", "big",
                                          "never.set"};
  std::string csv = "t_ns,interval_ns";
  for (const std::string& name : names) csv += "," + name;
  csv += "\n";
  for (std::size_t n = 0; n < set.size(); ++n) {
    csv += std::to_string((n + 1) * sim::kMillisecond) + "," +
           std::to_string(sim::kMillisecond);
    for (const std::string& name : names) {
      const auto it = set[n].find(name);
      csv += "," + std::to_string(it == set[n].end() ? 0 : it->second);
    }
    csv += "\n";
  }
  EXPECT_EQ(ToTimeSeriesCsv(t, names), csv);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    std::uint64_t sum = 0, max = 0;
    for (const auto& now : set) {
      const auto it = now.find(name);
      const std::uint64_t v = it == now.end() ? 0 : it->second;
      sum += v;
      max = std::max(max, v);
    }
    EXPECT_EQ(SumSeries(t, name), sum);
    EXPECT_EQ(MaxSeries(t, name), max);
  }
}

// Rows are written in place against the latest layout, and series outside
// it go to a side list: check every value and every Cumulative delta
// against a reference the script keeps of what it set, across a histogram
// whose first record comes mid-run, a series missing from one sample and
// series set twice in one sample (before and after they have a position).
TEST(SampleLayoutTest, RowsWrittenInPlaceMatchWhatWasSet) {
  sim::VirtualClock clock;
  stats::Histogram latency;
  const stats::Histogram* live[] = {&latency};
  HistogramSeries hist("op.latency_ns", /*lifetime=*/false);
  SeriesSlot cum("cum"), gappy("gappy"), twice("twice"), steady("steady");
  std::vector<std::map<std::string, std::uint64_t>> set;
  std::vector<std::uint64_t> deltas;  // Of "cum" and "gappy", per sample.
  ScriptedTimeline t(&clock, [&](SampleBuilder& b, std::uint64_t n) {
    std::map<std::string, std::uint64_t>& now = set.emplace_back();
    const auto put = [&](SeriesSlot& slot, std::uint64_t value) {
      b.Set(slot, value);
      now[slot.name] = value;
    };
    const auto cumulative = [&](SeriesSlot& slot, std::uint64_t value) {
      deltas.push_back(b.Cumulative(slot, value));
      now[slot.name] = value;
    };
    put(steady, 7 * n);
    if (n == 0 || n == 4) put(twice, 1000 + n);  // Overwritten just below.
    put(twice, 2000 + n);
    cumulative(cum, n * n + 3);
    if (n != 5) cumulative(gappy, 10 * n + 1);
    if (n >= 3) {
      latency.Record(100 * (n + 1));
      latency.Record(50);
    }
    const IntervalQuantiles q = b.Histogram(hist, live);
    if (latency.count() > 0) {
      now["hist.op.count"] = 2 * (n - 2);
      now["delta.op.count"] = 2;
      now["delta.op.sum"] = 100 * (n + 1) + 50;
      now["op.p50"] = q.p50;
      now["op.p95"] = q.p95;
      now["op.p99"] = q.p99;
    }
  });
  Step(&clock, &t, 9);
  const auto& samples = t.samples();
  ASSERT_EQ(samples.size(), set.size());

  // Cumulative deltas against the previous sample's value, 0 when absent.
  std::size_t d = 0;
  for (std::size_t n = 0; n < set.size(); ++n) {
    SCOPED_TRACE(n);
    for (const char* name : {"cum", "gappy"}) {
      if (set[n].count(name) == 0) continue;
      const std::uint64_t before =
          n > 0 && set[n - 1].count(name) ? set[n - 1].at(name) : 0;
      ASSERT_LT(d, deltas.size());
      EXPECT_EQ(deltas[d++], set[n].at(name) - before) << name;
    }
  }
  EXPECT_EQ(d, deltas.size());

  // Every series of every sample reads back what was set, and nothing else
  // is present.
  constexpr std::uint64_t kAbsent = 0xabcdef;
  for (std::size_t n = 0; n < set.size(); ++n) {
    SCOPED_TRACE(n);
    const Sample& s = samples[n];
    EXPECT_EQ(s.row.size(), set[n].size());
    EXPECT_TRUE(std::is_sorted(s.ids().begin(), s.ids().end()));
    for (std::uint32_t id = 0; id < t.series().size(); ++id) {
      const std::string& name = t.series().NameOf(id);
      const auto it = set[n].find(name);
      EXPECT_EQ(s.Value(id, kAbsent), it == set[n].end() ? kAbsent : it->second)
          << name;
    }
  }
  // The histogram's series join at sample 3, "gappy" leaves at 5 and comes
  // back at 6: a new layout each time, shared in between.
  EXPECT_EQ(samples[1].layout, samples[0].layout);
  EXPECT_NE(samples[3].layout, samples[2].layout);
  EXPECT_EQ(samples[4].layout, samples[3].layout);
  EXPECT_NE(samples[5].layout, samples[4].layout);
  EXPECT_NE(samples[6].layout, samples[5].layout);
  EXPECT_EQ(*samples[6].layout, *samples[4].layout);
  EXPECT_EQ(samples[8].layout, samples[6].layout);
}

// A JSONL document rendered on 1, 2, 3, 4 and 7 threads is the same bytes.
// The timeline is several MiB with a layout change mid-run, events inside
// intervals and on their boundaries (sorting before the sample), and
// watchdog alerts stamped equal to the sample that raised them (sorting
// after it); events follow nearly every sample line, so range boundaries
// land on event lines.
TEST(TimelineRenderTest, ParallelRenderIsByteIdenticalAtEveryThreadCount) {
  sim::VirtualClock clock;
  std::vector<SeriesSlot> wide;
  for (int i = 0; i < 160; ++i) {
    wide.emplace_back("wide.series." + std::to_string(i) + ".value");
  }
  SeriesSlot flip("flip"), late("late.series");
  constexpr std::uint64_t kSamples = 1400, kLayoutChange = 700;
  ScriptedTimeline t(
      &clock,
      [&](SampleBuilder& b, std::uint64_t n) {
        for (std::size_t i = 0; i < wide.size(); ++i) {
          if (n >= kLayoutChange && i == 3) continue;
          b.Set(wide[i], (n * 2654435761ULL + i * 40503ULL) >> (i % 48));
        }
        b.Set(flip, n % 5 == 0 ? 1 : 0);
        if (n >= kLayoutChange) b.Set(late, n);
      },
      {WatchdogRule{"flip_set", "flip", WatchdogRule::Cmp::kEqual, 1, 1}});
  for (std::uint64_t n = 0; n < kSamples; ++n) {
    clock.Advance(sim::kMillisecond / 2);
    t.event_log().Emit(EventType::kTimeout, n, 1);
    clock.Advance(sim::kMillisecond / 2);
    if (n % 3 == 0) t.event_log().Emit(EventType::kRetryBackoff, n, 2);
    t.Poll();
  }
  ASSERT_EQ(t.samples().size(), kSamples);
  ASSERT_EQ(t.watchdog().total_fired(), kSamples / 5);

  const std::string one = JsonlRenderProbe::Render(t, 1);
  ASSERT_GT(one.size(), std::size_t{4} << 20);
  EXPECT_TRUE(t.ToJsonl() == one);
  std::vector<std::size_t> line_starts = {0};
  for (std::size_t i = 0; i + 1 < one.size(); ++i) {
    if (one[i] == '\n') line_starts.push_back(i + 1);
  }
  EXPECT_EQ(line_starts.size(),
            kSamples + t.event_log().records().size());

  int event_cuts = 0;
  for (const std::size_t ranges : {2, 3, 4, 7}) {
    SCOPED_TRACE(ranges);
    const std::string many = JsonlRenderProbe::Render(t, ranges);
    ASSERT_EQ(many.size(), one.size());
    const auto diff = std::mismatch(one.begin(), one.end(), many.begin());
    EXPECT_TRUE(diff.first == one.end())
        << "first difference at byte " << (diff.first - one.begin());
    // Range r starts at the first line at or after size * r / ranges.
    for (std::size_t r = 1; r < ranges; ++r) {
      const auto start = std::lower_bound(line_starts.begin(),
                                          line_starts.end(),
                                          one.size() * r / ranges);
      ASSERT_NE(start, line_starts.end());
      event_cuts += std::string_view(one).substr(*start).starts_with(
          "{\"kind\":\"event\"");
    }
  }
  EXPECT_GT(event_cuts, 0);
}

// The exact-size export counts digits with DecimalDigits; it must agree
// with the renderer's std::to_chars at every power-of-ten edge.
TEST(SampleLayoutTest, DecimalDigitsMatchesToChars) {
  std::vector<std::uint64_t> values = {0, ~0ULL};
  for (std::uint64_t p = 1; p <= 10'000'000'000'000'000'000ULL / 10; p *= 10) {
    values.insert(values.end(), {p - 1, p, p + 1, p * 10 - 1});
  }
  values.push_back(10'000'000'000'000'000'000ULL);
  for (int bit = 0; bit < 64; ++bit) {
    values.insert(values.end(), {1ULL << bit, (1ULL << bit) - 1});
  }
  for (const std::uint64_t v : values) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    EXPECT_EQ(DecimalDigits(v), static_cast<std::size_t>(end - buf)) << v;
  }
}

TEST_F(SamplerUnitTest, EventAtSampleBoundaryOrdersBeforeSampleAlertAfter) {
  TimelineConfig cfg;
  cfg.rules = {ZeroOpStallRule(/*n=*/1)};  // Fires on the first 0-op sample.
  Make(cfg);
  metrics_.GetCounter("nvme.commands_submitted");  // delta.ops = 0.

  // An event emitted at exactly the boundary timestamp, before the sample
  // is taken, must serialize BEFORE the sample line; the watchdog alert the
  // sample raises (same timestamp again) must serialize AFTER it.
  clock_.Advance(sim::kMillisecond);
  for (Timeline* t : planes_) t->event_log().Emit(EventType::kTimeout, 7, 0);
  Poll();
  for (Timeline* t : planes_) {
    SCOPED_TRACE(Name(t));
    ASSERT_EQ(t->samples().size(), 1u);
    ASSERT_EQ(t->event_log().records().size(), 2u);  // timeout + alert.
    EXPECT_EQ(t->samples().back().events_before, 1u);

    const std::string jsonl = ToJsonl(*t);
    const std::size_t timeout_at = jsonl.find("\"type\":\"timeout\"");
    const std::size_t sample_at = jsonl.find("\"kind\":\"sample\"");
    const std::size_t alert_at = jsonl.find("\"type\":\"alert\"");
    ASSERT_NE(timeout_at, std::string::npos);
    ASSERT_NE(sample_at, std::string::npos);
    ASSERT_NE(alert_at, std::string::npos);
    EXPECT_LT(timeout_at, sample_at);
    EXPECT_LT(sample_at, alert_at);
  }
}

class RecordingSink : public SnapshotSink {
 public:
  void Publish(std::shared_ptr<const PublishedSnapshot> snapshot) override {
    published.push_back(std::move(snapshot));
  }
  std::vector<std::shared_ptr<const PublishedSnapshot>> published;
};

// Body of route `path` in `snap` ("" when unmapped).
std::string Body(const PublishedSnapshot& snap, const char* path) {
  const Route* route = snap.Find(path);
  return route == nullptr ? "" : route->body;
}

TEST_F(SamplerUnitTest, PublishCadenceAndFinalizeAlwaysPublish) {
  Make();
  RecordingSink sinks[2];
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    planes_[p]->SetSink(&sinks[p]);
  }
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  const std::uint64_t samples = 2 * kPublishEvery + 1;
  for (std::uint64_t i = 0; i < samples; ++i) {
    ops->Add(1);
    clock_.Advance(sim::kMillisecond);
    Poll();
  }
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    SCOPED_TRACE(Name(planes_[p]));
    const RecordingSink& sink = sinks[p];
    // Samples seq 0..2N; cadence N publishes seq 0, N, 2N.
    ASSERT_EQ(sink.published.size(), 3u);
    EXPECT_EQ(sink.published[0]->sample_seq, 0u);
    EXPECT_EQ(sink.published[1]->sample_seq, kPublishEvery);
    EXPECT_EQ(sink.published[2]->sample_seq, 2 * kPublishEvery);
  }

  // Finalize publishes its off-cadence closing sample exactly once, and the
  // published bytes equal the exports rendered at the same point.
  ops->Add(1);
  clock_.Advance(sim::kMillisecond / 2);
  Finalize();
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    SCOPED_TRACE(Name(planes_[p]));
    const RecordingSink& sink = sinks[p];
    ASSERT_EQ(sink.published.size(), 4u);
    EXPECT_EQ(sink.published.back()->sample_seq, samples);
    const PublishedSnapshot& last = *sink.published.back();
    EXPECT_EQ(Body(last, "/metrics"), ToPrometheusText(*planes_[p]));
    EXPECT_EQ(Body(last, "/timeline.jsonl"), ToJsonl(*planes_[p]));
    EXPECT_NE(Body(last, "/healthz").find("\"status\":\"ok\""),
              std::string::npos);
  }

  // Repeated Finalize: no duplicate closing sample AND no duplicate publish.
  Finalize();
  for (std::size_t p = 0; p < planes_.size(); ++p) {
    EXPECT_EQ(planes_[p]->samples().size(), samples + 1);
    EXPECT_EQ(sinks[p].published.size(), 4u);
  }
}

// --------------------- LSM series and compaction alerts ---------------------

TEST(TelemetryDeviceTest, LsmGaugesMatchIntrospection) {
  KvSsdOptions o = TelemetryOptions();
  o.trace.enabled = true;
  auto ssd = KvSsd::Open(o).value();
  RunSmallWorkload(*ssd, 250);
  ssd->Hooks().sampler->Finalize();

  // The closing sample's LSM gauges are the same numbers Inspect() reports.
  const Sampler& t = ssd->telemetry();
  const DeviceSnapshot snap = ssd->InspectDevice();
  EXPECT_EQ(t.Latest("gauge.lsm.memtable_bytes"), snap.lsm_memtable_bytes);
  EXPECT_EQ(t.Latest("gauge.lsm.memtable_entries"),
            snap.lsm_memtable_entries);
  EXPECT_EQ(t.Latest("gauge.lsm.compaction_debt_bytes"),
            snap.lsm_compaction_debt_bytes);
  EXPECT_EQ(t.Latest("gauge.lsm.pending_trim_tables"),
            snap.lsm_pending_trim_tables);
  ASSERT_FALSE(snap.lsm_levels.empty());
  EXPECT_EQ(t.Latest("gauge.lsm.l0.tables"), snap.lsm_levels[0].tables);
  EXPECT_EQ(t.Latest("gauge.lsm.l0.bytes"), snap.lsm_levels[0].bytes);
  // In-flight gauges are 0 between ops (flush/compaction are synchronous).
  EXPECT_EQ(t.Latest("gauge.lsm.flush_in_progress"), 0u);
  EXPECT_EQ(t.Latest("gauge.lsm.compaction_in_progress"), 0u);

  // The device-level percentile series reconcile with the lifetime
  // histogram the tracer recorded.
  const auto hists = ssd->metrics().SnapshotHistograms();
  const auto put = hists.find("trace.op.put.latency_ns");
  ASSERT_NE(put, hists.end());
  EXPECT_EQ(t.Latest("hist.trace.op.put.count"), put->second.count);
  EXPECT_EQ(SumSeries(t, "delta.trace.op.put.count"), put->second.count);
  EXPECT_EQ(SumSeries(t, "delta.trace.op.put.sum"), put->second.sum);
}

KvSsdOptions CompactionStormOptions() {
  KvSsdOptions o = TelemetryOptions();
  // An LSM sized far below the workload: tiny MemTable, L0 trigger past 100
  // runs, 128-byte output tables — one L0 flood exceeds the 64-pass
  // MaybeCompact budget, leaving debt standing at sample points.
  o.lsm.memtable_limit_bytes = 512;
  o.lsm.l0_compaction_trigger = 128;
  o.lsm.level_base_bytes = 1024;
  o.lsm.sstable_target_bytes = 128;
  o.lsm.max_levels = 3;
  o.telemetry.rules = {CompactionDebtRule(/*budget_bytes=*/2048, /*n=*/1),
                       L0PileupRule(/*tables=*/4, /*n=*/1),
                       MemtableStallRule(/*stalls=*/1, /*n=*/1)};
  return o;
}

TEST(TelemetryDeviceTest, CompactionStormFiresLsmRulesCleanRunSilent) {
  // Clean run: same rules, normally-sized LSM — all three stay silent.
  KvSsdOptions clean = TelemetryOptions();
  clean.telemetry.rules = CompactionStormOptions().telemetry.rules;
  auto clean_ssd = KvSsd::Open(clean).value();
  RunSmallWorkload(*clean_ssd, 200);
  clean_ssd->Hooks().sampler->Finalize();
  for (const auto& alert : clean_ssd->InspectDevice().alerts) {
    EXPECT_EQ(alert.fired, 0u) << alert.rule;
  }
  EXPECT_EQ(
      clean_ssd->telemetry().event_log().count(EventType::kMemtableStall),
      0u);

  // Storm: the undersized LSM must fire all three rules and log the
  // compaction/stall events that explain them.
  auto ssd = KvSsd::Open(CompactionStormOptions()).value();
  for (int i = 0; i < 800; ++i) {
    Bytes value = workload::MakeValue(64, 2, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put("storm" + std::to_string(i), ByteSpan(value)).ok());
  }
  ASSERT_TRUE(ssd->Flush().ok());
  ssd->Hooks().sampler->Finalize();

  const DeviceSnapshot snap = ssd->InspectDevice();
  ASSERT_EQ(snap.alerts.size(), 3u);
  for (const auto& alert : snap.alerts) {
    EXPECT_GE(alert.fired, 1u) << alert.rule;
  }
  const EventLog& log = ssd->telemetry().event_log();
  EXPECT_GE(log.count(EventType::kCompactionStart), 1u);
  EXPECT_GE(log.count(EventType::kCompactionEnd), 1u);
  EXPECT_GE(log.count(EventType::kMemtableStall), 1u);
  // Start/end pair up (synchronous compactions).
  EXPECT_EQ(log.count(EventType::kCompactionStart),
            log.count(EventType::kCompactionEnd));
  // The new event types serialize with their names.
  const std::string jsonl = ToJsonl(ssd->telemetry());
  EXPECT_NE(jsonl.find("\"type\":\"compaction_start\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"memtable_stall\""), std::string::npos);
}

}  // namespace
}  // namespace bandslim::telemetry
