// The closed-loop controller (DESIGN.md 2.7): a deterministic feedback loop
// ticked on the telemetry sample grid. It observes finalized interval
// samples plus watchdog alert edges and actuates four device knobs — driver
// transfer thresholds, FTL GC pacing, MemTable-flush admission, and per-SQ
// host admission credits — so the device degrades gracefully under storms
// instead of stalling.
//
// Determinism: the controller is a SampleObserver, so it runs synchronously
// inside Timeline::TakeSample — after the watchdog evaluated this interval,
// before snapshot publication. Everything it reads is integer virtual-time
// state and everything it does is a deterministic function of that state,
// so two runs of one workload produce byte-identical actuation logs. Any
// virtual time an actuation spends (paced GC, compaction increments) is
// charged to the host op whose Poll() crossed the sample boundary — paced
// maintenance is visible in op latency, exactly like real background work
// stealing device bandwidth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/policy.h"
#include "sim/clock.h"
#include "telemetry/telemetry.h"

namespace bandslim::driver {
class KvDriver;
}
namespace bandslim::ftl {
class PageFtl;
}
namespace bandslim::lsm {
class LsmTree;
}
namespace bandslim::nvme {
class NvmeTransport;
}

namespace bandslim::control {

// Stable identifiers for actuation records and EventType::kControl emits
// (`a` = rule id, `b` = new setting). Append-only.
enum class ControlRule : std::uint8_t {
  kRaiseThresholds = 0,  // observed=taf_milli, old/new=threshold1.
  kRestoreThresholds,    // observed=taf_milli, old/new=threshold1.
  kGcStep,               // observed=free blocks before, new=free after.
  kDeferFlush,           // observed=debt bytes, old/new=deferral bytes.
  kReleaseFlush,         // observed=debt bytes, old/new=deferral bytes.
  kCompactStep,          // observed=debt bytes before, new=debt after.
  kApplyAdmission,       // observed=queue count, new=credits per tick.
};

const char* ControlRuleName(ControlRule rule);

// One actuation: which rule moved which setting, and what the controller
// observed when it decided. The log is append-only and exported verbatim,
// so two runs of one workload can be diffed actuation-by-actuation.
struct ActuationRecord {
  sim::Nanoseconds t_ns = 0;
  std::uint64_t seq = 0;  // Actuation order (monotonic).
  ControlRule rule = ControlRule::kRaiseThresholds;
  std::uint64_t observed = 0;
  std::uint64_t old_setting = 0;
  std::uint64_t new_setting = 0;
};

class LoopController : public telemetry::SampleObserver {
 public:
  // The four knobs. Pointers are non-owning; LSM is rebuilt on PowerCycle,
  // so KvSsd re-binds (and Reset()s) after every reassembly.
  struct Actuators {
    driver::KvDriver* driver = nullptr;
    ftl::PageFtl* ftl = nullptr;
    lsm::LsmTree* lsm = nullptr;
    nvme::NvmeTransport* transport = nullptr;
  };

  LoopController(const ControlPolicy& policy, telemetry::Sampler* sampler);

  // (Re)binds the actuators and applies initial settings (admission
  // credits). The first bind captures the driver's configured thresholds as
  // the restore-to base.
  void BindActuators(const Actuators& actuators);

  // Re-derives every setting from the policy base: thresholds restored,
  // flush deferral dropped, admission re-applied, hysteresis counters
  // zeroed. Called after PowerCycle/Recover — settings are a pure function
  // of policy and live state, never persisted, so a crash mid-actuation
  // cannot leave a stale setting behind.
  void Reset();

  void OnSample(const telemetry::Sample& sample) override;

  const ControlPolicy& policy() const { return policy_; }
  const std::vector<ActuationRecord>& actuations() const {
    return actuations_;
  }
  std::uint64_t actuation_count() const { return actuations_.size(); }
  bool thresholds_raised() const { return thresholds_raised_; }

  // Deterministic CSV of the actuation log:
  // t_ns,seq,rule,observed,old_setting,new_setting
  std::string ActuationsCsv() const;

 private:
  void TickThresholds(const telemetry::Sample& sample);
  void TickGc();
  void TickFlush();
  void ApplyAdmission();
  void Record(ControlRule rule, std::uint64_t observed,
              std::uint64_t old_setting, std::uint64_t new_setting);
  std::uint64_t SeriesValue(const telemetry::Sample& sample,
                            const std::string& name) const;

  ControlPolicy policy_;
  telemetry::Sampler* sampler_;
  Actuators act_;

  // Restore-to base for the driver thresholds (captured at first bind).
  bool base_captured_ = false;
  std::uint32_t base_threshold1_ = 0;
  std::uint32_t base_threshold2_ = 0;

  // Loop state (all re-derived by Reset()).
  std::uint64_t ticks_ = 0;
  sim::Nanoseconds tick_t_ns_ = 0;  // Sample stamp of the current tick.
  bool thresholds_raised_ = false;
  std::uint32_t breach_streak_ = 0;
  std::uint32_t recover_streak_ = 0;
  std::size_t flush_deferral_ = 0;

  std::vector<ActuationRecord> actuations_;
};

}  // namespace bandslim::control
