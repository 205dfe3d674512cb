// Time-series sample model shared by the sampler, the watchdog and the
// exporters. A Sample is a flat row of integer values stamped with a
// virtual timestamp, plus a sorted layout of the series ids the row holds.
// Series names are interned once in a SeriesTable, and consecutive samples
// that carry the same series share one layout, so a sample costs one
// machine word per series and comparisons/exports are deterministic.
//
// Everything is integral. Derived quantities that are naturally fractional
// (rates, amplification factors, utilization) are carried in fixed point —
// `*_milli` series are scaled by 1000, `*_permille` are parts-per-thousand —
// so exports are byte-identical across runs and platforms.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace bandslim::telemetry {

// Fixed-point scale used by the derived `*_milli` series.
inline constexpr std::uint64_t kMilliScale = 1000;

// Append-only name <-> id interning table. Ids are dense, stable for the
// table's lifetime, and assigned in first-appearance order.
class SeriesTable {
 public:
  std::uint32_t Intern(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const std::uint32_t id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
  }

  // -1 when the series has never been interned.
  std::int64_t Find(const std::string& name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? -1 : static_cast<std::int64_t>(it->second);
  }

  const std::string& NameOf(std::uint32_t id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

// Sorted ids of the series one or more samples carry.
using SeriesLayout = std::vector<std::uint32_t>;

struct Sample {
  sim::Nanoseconds t_ns = 0;        // Stamp (an interval boundary, or the
                                    // run end for the finalizing sample).
  sim::Nanoseconds interval_ns = 0; // t_ns minus the previous sample's t_ns.
  std::uint64_t seq = 0;
  // Event-log emit count when this sample was taken. Disambiguates the
  // timeline order at equal timestamps: events with seq < events_before
  // happened inside the interval this sample closes (sort before it), while
  // events this sample itself caused — watchdog alerts — sort after it.
  std::uint64_t events_before = 0;

  // Ids of the series this sample carries, in id order, and their values:
  // row[i] is the value of series (*layout)[i]. Consecutive samples with
  // the same series share one layout.
  std::shared_ptr<const SeriesLayout> layout;
  std::vector<std::uint64_t> row;
  // Decimal digits of the row's values, summed while the row is gathered:
  // the JSONL export sizes itself without reading every row back.
  std::size_t row_digits = 0;

  std::span<const std::uint32_t> ids() const {
    return layout == nullptr ? std::span<const std::uint32_t>()
                             : std::span<const std::uint32_t>(*layout);
  }

  // Value of `series` in this sample; `fallback` when absent.
  std::uint64_t Value(std::uint32_t series, std::uint64_t fallback = 0) const {
    const std::span<const std::uint32_t> present = ids();
    const auto it = std::lower_bound(present.begin(), present.end(), series);
    if (it == present.end() || *it != series) return fallback;
    return row[static_cast<std::size_t>(it - present.begin())];
  }
};

}  // namespace bandslim::telemetry
