#include "telemetry/watchdog.h"

namespace bandslim::telemetry {

WatchdogRule ZeroOpStallRule(std::uint32_t n) {
  return WatchdogRule{"zero_op_stall", "delta.ops", WatchdogRule::Cmp::kEqual,
                      0, n};
}

WatchdogRule TafBudgetRule(std::uint64_t taf_milli, std::uint32_t n) {
  return WatchdogRule{"taf_over_budget", "rate.taf_milli",
                      WatchdogRule::Cmp::kAbove, taf_milli, n};
}

WatchdogRule RetryStormRule(std::uint64_t retries, std::uint32_t n,
                            std::uint32_t clear_n) {
  WatchdogRule rule{"retry_storm", "delta.nvme.retries",
                    WatchdogRule::Cmp::kAtLeast, retries, n};
  rule.clear_for_intervals = clear_n;
  return rule;
}

WatchdogRule FreeBlocksLowRule(std::uint64_t blocks, std::uint32_t n) {
  return WatchdogRule{"free_blocks_low", "gauge.ftl.free_blocks",
                      WatchdogRule::Cmp::kAtMost, blocks, n};
}

WatchdogRule CompactionDebtRule(std::uint64_t budget_bytes, std::uint32_t n) {
  return WatchdogRule{"compaction_debt_over_budget",
                      "gauge.lsm.compaction_debt_bytes",
                      WatchdogRule::Cmp::kAbove, budget_bytes, n};
}

WatchdogRule L0PileupRule(std::uint64_t tables, std::uint32_t n) {
  return WatchdogRule{"l0_pileup", "gauge.lsm.l0.tables",
                      WatchdogRule::Cmp::kAtLeast, tables, n};
}

WatchdogRule MemtableStallRule(std::uint64_t stalls, std::uint32_t n) {
  return WatchdogRule{"memtable_stall", "delta.lsm.memtable_stalls",
                      WatchdogRule::Cmp::kAtLeast, stalls, n};
}

namespace {

bool Holds(WatchdogRule::Cmp cmp, std::uint64_t value,
           std::uint64_t threshold) {
  switch (cmp) {
    case WatchdogRule::Cmp::kAbove: return value > threshold;
    case WatchdogRule::Cmp::kAtLeast: return value >= threshold;
    case WatchdogRule::Cmp::kBelow: return value < threshold;
    case WatchdogRule::Cmp::kAtMost: return value <= threshold;
    case WatchdogRule::Cmp::kEqual: return value == threshold;
  }
  return false;
}

}  // namespace

void Watchdog::Evaluate(const Sample& sample, const SeriesTable& table,
                        EventLog* log) {
  if (table.size() != table_size_seen_) {
    table_size_seen_ = table.size();
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (series_ids_[i] < 0) series_ids_[i] = table.Find(rules_[i].series);
    }
  }
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const WatchdogRule& rule = rules_[i];
    AlertState& state = states_[i];
    // A series the sampler has never produced reads as 0 — this keeps rules
    // like zero-op stall meaningful from the very first sample.
    const std::int64_t id = series_ids_[i];
    const std::uint64_t value =
        id < 0 ? 0 : sample.Value(static_cast<std::uint32_t>(id));

    if (state.active) {
      // While active, only the recovery condition matters: the negated firing
      // predicate against the (possibly deadbanded) clear threshold, held for
      // clear_for_intervals consecutive samples.
      if (!Holds(rule.cmp, value, rule.effective_clear_threshold())) {
        ++state.recovering;
        if (state.recovering < rule.clear_for_intervals) continue;
        state.active = false;
        state.recovering = 0;
        state.holding = 0;
        ++state.cleared;
        ++total_cleared_;
        state.last_clear_ns = sample.t_ns;
        if (log != nullptr) {
          log->Emit(EventType::kAlertCleared, static_cast<std::uint64_t>(i),
                    value, rule.tenant);
        }
      } else {
        state.recovering = 0;
      }
      continue;
    }

    if (!Holds(rule.cmp, value, rule.threshold)) {
      state.holding = 0;
      continue;
    }
    ++state.holding;
    if (state.holding < rule.for_intervals) continue;
    state.active = true;
    state.recovering = 0;
    ++state.fired;
    ++total_fired_;
    state.last_value = value;
    state.last_fire_ns = sample.t_ns;
    if (log != nullptr) {
      log->Emit(EventType::kAlert, static_cast<std::uint64_t>(i), value,
                rule.tenant);
    }
  }
}

std::int64_t Watchdog::FindRule(const std::string& name) const {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].name == name) return static_cast<std::int64_t>(i);
  }
  return -1;
}

}  // namespace bandslim::telemetry
