// Closed-loop control tests: watchdog deassert hysteresis (deadband, streak
// reset, retry-storm re-fire fix), the null-policy zero-overhead guarantee
// (byte-identical exports), deterministic actuation logs across double runs,
// threshold-knob breach/recover hysteresis, crash-mid-actuation recovery
// (settings re-derived from the policy base, never persisted stale), and
// kBusy admission-shed propagation through the host API.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/control_loop.h"
#include "core/kvssd.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "workload/value_gen.h"

namespace bandslim::control {
namespace {

// --- Watchdog deassert hysteresis (unit, hand-driven clock) -----------------

class WatchdogHysteresisTest : public ::testing::Test {
 protected:
  telemetry::Sampler MakeSampler(telemetry::TimelineConfig cfg) {
    cfg.enabled = true;
    cfg.sample_interval_ns = sim::kMillisecond;
    telemetry::Sampler sampler(&clock_, cfg);
    telemetry::Sampler::Sources src;
    src.metrics = &metrics_;
    sampler.Bind(src);
    return sampler;
  }

  sim::VirtualClock clock_;
  stats::MetricsRegistry metrics_;
};

TEST_F(WatchdogHysteresisTest, DeadbandClearRequiresConsecutiveQuiet) {
  // Fire above 2000 ops/interval; clear only after 2 consecutive samples at
  // or below 1500 — values inside the 1500..2000 deadband neither re-fire
  // nor make recovery progress.
  telemetry::WatchdogRule rule{"ops_surge", "delta.ops",
                               telemetry::WatchdogRule::Cmp::kAbove, 2000, 1};
  rule.clear_threshold = 1500;
  rule.clear_for_intervals = 2;
  telemetry::TimelineConfig cfg;
  cfg.rules = {rule};
  telemetry::Sampler sampler = MakeSampler(cfg);
  stats::Counter* ops = metrics_.GetCounter("nvme.commands_submitted");

  const auto step = [&](std::uint64_t add_ops) {
    ops->Add(add_ops);
    clock_.Advance(sim::kMillisecond);
    sampler.Poll();
  };
  const auto& state = [&]() -> const telemetry::AlertState& {
    return sampler.watchdog().states()[0];
  };

  step(2500);  // Above threshold: fires immediately (for_intervals = 1).
  EXPECT_EQ(state().fired, 1u);
  EXPECT_TRUE(state().active);

  step(1800);  // Deadband: stays active, no recovery progress.
  EXPECT_TRUE(state().active);
  EXPECT_EQ(state().recovering, 0u);

  step(1000);  // Below clear line: recovering = 1, still active.
  EXPECT_TRUE(state().active);
  EXPECT_EQ(state().recovering, 1u);

  step(1600);  // Back into the deadband: the quiet streak resets.
  EXPECT_TRUE(state().active);
  EXPECT_EQ(state().recovering, 0u);

  step(1200);  // Quiet again: recovering = 1.
  step(1100);  // Second consecutive quiet sample: CLEARS.
  EXPECT_FALSE(state().active);
  EXPECT_EQ(state().cleared, 1u);
  EXPECT_EQ(sampler.watchdog().total_cleared(), 1u);
  EXPECT_EQ(sampler.event_log().count(telemetry::EventType::kAlertCleared),
            1u);

  step(3000);  // Re-fires after a genuine clear.
  EXPECT_EQ(state().fired, 2u);
  EXPECT_TRUE(state().active);
}

TEST_F(WatchdogHysteresisTest, RetryStormHoldsThroughBurstGaps) {
  // The historical bug: with clear-on-first-break, a bursty drop storm
  // (retries, quiet, retries, quiet ...) re-fired the alert every burst.
  // With deassert hysteresis of 4 the alert stays active across the gaps
  // and fires once per storm, not once per burst.
  telemetry::TimelineConfig cfg;
  cfg.rules = {telemetry::RetryStormRule(/*retries=*/1, /*n=*/1,
                                         /*clear_n=*/4)};
  telemetry::Sampler sampler = MakeSampler(cfg);
  metrics_.GetCounter("nvme.commands_submitted");
  stats::Counter* retries = metrics_.GetCounter("nvme.retries");

  const auto step = [&](std::uint64_t add_retries) {
    retries->Add(add_retries);
    clock_.Advance(sim::kMillisecond);
    sampler.Poll();
  };

  for (int burst = 0; burst < 5; ++burst) {
    step(3);  // Burst interval.
    step(0);  // Gap: quiet streak 1 of 4 — must NOT clear.
    step(0);  // Gap: quiet streak 2 of 4.
  }
  EXPECT_EQ(sampler.watchdog().states()[0].fired, 1u);
  EXPECT_TRUE(sampler.watchdog().states()[0].active);

  step(0);
  step(0);  // 4 consecutive quiet intervals since the last burst: clears.
  EXPECT_FALSE(sampler.watchdog().states()[0].active);
  EXPECT_EQ(sampler.watchdog().states()[0].cleared, 1u);

  step(2);  // The next storm is a fresh edge.
  EXPECT_EQ(sampler.watchdog().states()[0].fired, 2u);
}

// --- Full-device control tests ----------------------------------------------

KvSsdOptions ControlOptions() {
  KvSsdOptions o;
  o.telemetry.enabled = true;
  o.telemetry.sample_interval_ns = 20 * sim::kMicrosecond;
  return o;
}

void RunSmallWorkload(KvSsd& ssd, int ops) {
  for (int i = 0; i < ops; ++i) {
    const std::size_t size = (i % 3 == 0) ? 300 : 48;
    Bytes value = workload::MakeValue(size, 1, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd.Put("key" + std::to_string(i), ByteSpan(value)).ok());
  }
  ASSERT_TRUE(ssd.Flush().ok());
}

struct Exports {
  std::string prom, jsonl;
};

Exports RunAndExport(const KvSsdOptions& o) {
  auto ssd = KvSsd::Open(o).value();
  RunSmallWorkload(*ssd, 200);
  ssd->Hooks().sampler->Finalize();
  return {telemetry::ToPrometheusText(ssd->telemetry()),
          telemetry::ToJsonl(ssd->telemetry())};
}

TEST(ControlDeviceTest, NullPolicyIsBitIdentical) {
  // Three flavors of "control off" must be indistinguishable, byte for byte:
  // no control at all, the master switch on with every knob off (controller
  // built and ticked), and knobs configured under a disabled master switch.
  const Exports off = RunAndExport(ControlOptions());

  KvSsdOptions null_policy = ControlOptions();
  null_policy.control.enabled = true;
  const Exports nul = RunAndExport(null_policy);

  KvSsdOptions disabled_master = ControlOptions();
  disabled_master.control.gc.enabled = true;
  disabled_master.control.flush.enabled = true;  // Master stays off.
  const Exports dis = RunAndExport(disabled_master);

  EXPECT_EQ(off.prom, nul.prom);
  EXPECT_EQ(off.jsonl, nul.jsonl);
  EXPECT_EQ(off.prom, dis.prom);
  EXPECT_EQ(off.jsonl, dis.jsonl);
}

TEST(ControlDeviceTest, NullPolicyBuildsNoController) {
  auto off = KvSsd::Open(ControlOptions()).value();
  EXPECT_EQ(off->control(), nullptr);

  KvSsdOptions on = ControlOptions();
  on.control.enabled = true;
  auto dev = KvSsd::Open(on).value();
  ASSERT_NE(dev->control(), nullptr);
  RunSmallWorkload(*dev, 50);
  EXPECT_EQ(dev->control()->actuation_count(), 0u);  // No knob, no actuation.
}

// A storm-shaped LSM (tiny memtable, hair-trigger L0) with the flush knob on
// actuates every few ticks — the workhorse config for determinism tests.
KvSsdOptions StormOptions() {
  KvSsdOptions o = ControlOptions();
  o.lsm.memtable_limit_bytes = 512;
  o.lsm.l0_compaction_trigger = 2;
  o.lsm.level_base_bytes = 1024;
  o.lsm.sstable_target_bytes = 128;
  o.lsm.max_levels = 3;
  o.control.enabled = true;
  o.control.flush.enabled = true;
  o.control.flush.l0_pace_runs = 1;
  o.control.gc.enabled = true;
  return o;
}

TEST(ControlDeviceTest, ActuationLogIsDeterministicAcrossRuns) {
  std::string csv[2];
  for (int pass = 0; pass < 2; ++pass) {
    auto ssd = KvSsd::Open(StormOptions()).value();
    RunSmallWorkload(*ssd, 300);
    ssd->Hooks().sampler->Finalize();
    ASSERT_NE(ssd->control(), nullptr);
    csv[pass] = ssd->control()->ActuationsCsv();
    EXPECT_GE(ssd->control()->actuation_count(), 1u);
    // Every actuation is mirrored into the event log as a kControl record.
    EXPECT_EQ(
        ssd->Hooks().sampler->event_log().count(telemetry::EventType::kControl),
        ssd->control()->actuation_count());
  }
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(ControlDeviceTest, ThresholdKnobRaisesAfterBreachStreak) {
  KvSsdOptions o = ControlOptions();
  o.control.enabled = true;
  o.control.thresholds.enabled = true;
  o.control.thresholds.taf_budget_milli = 1;  // Any traffic breaches.
  o.control.thresholds.breach_intervals = 3;
  o.control.thresholds.raised_threshold1 = 35;
  o.control.thresholds.raised_threshold2 = 16;
  auto ssd = KvSsd::Open(o).value();
  const std::uint32_t base1 = ssd->Hooks().driver->threshold1();

  RunSmallWorkload(*ssd, 200);
  ASSERT_NE(ssd->control(), nullptr);
  ASSERT_GE(ssd->control()->actuation_count(), 1u);
  const ActuationRecord& first = ssd->control()->actuations().front();
  EXPECT_EQ(first.rule, ControlRule::kRaiseThresholds);
  EXPECT_EQ(first.old_setting, base1);
  EXPECT_EQ(first.new_setting, 35u);
  // Breach hysteresis: the raise lands exactly on the 3rd breaching tick,
  // not the 1st — its stamp is the 3rd sample boundary.
  const auto& samples = ssd->Hooks().sampler->samples();
  ASSERT_GE(samples.size(), 3u);
  EXPECT_EQ(static_cast<std::uint64_t>(first.t_ns), samples[2].t_ns);
  EXPECT_TRUE(ssd->control()->thresholds_raised());
  EXPECT_EQ(ssd->Hooks().driver->threshold1(), 35u);
  EXPECT_EQ(ssd->Hooks().driver->threshold2(), 16u);
}

TEST(ControlDeviceTest, PowerCycleRederivesSettingsFromPolicyBase) {
  KvSsdOptions o = ControlOptions();
  o.control.enabled = true;
  o.control.thresholds.enabled = true;
  o.control.thresholds.taf_budget_milli = 1;
  o.control.thresholds.breach_intervals = 1;
  o.control.thresholds.raised_threshold1 = 35;
  auto ssd = KvSsd::Open(o).value();
  const std::uint32_t base1 = ssd->Hooks().driver->threshold1();
  const std::uint32_t base2 = ssd->Hooks().driver->threshold2();

  RunSmallWorkload(*ssd, 100);
  ASSERT_TRUE(ssd->control()->thresholds_raised());
  ASSERT_EQ(ssd->Hooks().driver->threshold1(), 35u);

  // Crash mid-actuation: the raised threshold is live device state, not a
  // persisted setting. Recovery must re-derive from the policy base — a
  // stale raise surviving the reboot would be a correctness bug.
  ASSERT_TRUE(ssd->PowerCycle().ok());
  EXPECT_FALSE(ssd->control()->thresholds_raised());
  EXPECT_EQ(ssd->Hooks().driver->threshold1(), base1);
  EXPECT_EQ(ssd->Hooks().driver->threshold2(), base2);
  // The restore itself is in the actuation log (audit trail of the reset).
  bool restored = false;
  for (const ActuationRecord& rec : ssd->control()->actuations()) {
    if (rec.rule == ControlRule::kRestoreThresholds) restored = true;
  }
  EXPECT_TRUE(restored);

  // The device keeps working, and the loop re-raises post-recovery if the
  // link is still over budget.
  for (int i = 0; i < 100; ++i) {
    Bytes value = workload::MakeValue(48, 2, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(
        ssd->Put("post" + std::to_string(i), ByteSpan(value)).ok());
  }
  EXPECT_TRUE(ssd->control()->thresholds_raised());
}

TEST(ControlDeviceTest, AdmissionShedReturnsBusyAndRecovers) {
  KvSsdOptions o = ControlOptions();
  // One sample per virtual second: credits are effectively never refilled
  // inside this test, so exhaustion is observable deterministically.
  o.telemetry.sample_interval_ns = sim::kSecond;
  o.control.enabled = true;
  o.control.admission.enabled = true;
  o.control.admission.credits_per_tick = 4;
  o.control.admission.busy_backoff_ns = 1000;
  auto ssd = KvSsd::Open(o).value();

  Bytes value = workload::MakeValue(48, 3, 1);
  bool saw_busy = false;
  for (int i = 0; i < 16 && !saw_busy; ++i) {
    const Status st = ssd->Put("b" + std::to_string(i), ByteSpan(value));
    if (st.IsBusy()) {
      saw_busy = true;
    } else {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  }
  ASSERT_TRUE(saw_busy);
  EXPECT_GE(ssd->Hooks().transport->busy_rejections(), 1u);

  // Every host entry point surfaces the shed as kBusy, not as data loss.
  EXPECT_TRUE(ssd->Get("b0").status().IsBusy());
  const std::vector<std::string> keys = {"b0", "b1"};
  EXPECT_TRUE(ssd->GetBatch(keys).status().IsBusy());
  EXPECT_TRUE(ssd->DeleteBatch(keys).status().IsBusy());

  // A credit refill (normally the controller's per-tick duty) restores
  // service; the shed dropped requests cleanly, never corrupted state.
  ssd->Hooks().transport->RefillQueueCredits();
  auto got = ssd->Get("b0");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), workload::MakeValue(48, 3, 1));
}

TEST(ControlDeviceTest, BusyMapsToVendorStatusCodeType) {
  // NVMe SCT 0x3 = path-related/host-side: the shed never reached the
  // device, and the driver must translate it to StatusCode::kBusy.
  nvme::CqEntry entry;
  entry.status = nvme::CqStatus::kBusy;
  EXPECT_EQ(entry.status_code_type(), 0x3);
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_EQ(Status::Busy().code(), StatusCode::kBusy);
}

}  // namespace
}  // namespace bandslim::control
