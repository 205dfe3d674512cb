// Deterministic exports of a timeline (telemetry/timeline.h), produced from
// in-memory data with fixed integer formatting and stable ordering, so two
// runs of the same workload write byte-identical files.
//
//  * Prometheus text exposition (one scrape of the LATEST sample, plus
//    watchdog alert totals) — what a /metrics endpoint serves.
//  * JSONL: the full time series, samples and typed events interleaved by
//    virtual timestamp (events sort before the sample that closes their
//    interval; ties break on emit order).
//  * CSV: selected series as columns, one row per sample — the shape the
//    fig* plots consume.
#pragma once

#include <string>
#include <vector>

#include "telemetry/timeline.h"

namespace bandslim::telemetry {

// Free-function spellings of Timeline::ToPrometheusText / ToJsonl.
inline std::string ToPrometheusText(const Timeline& timeline) {
  return timeline.ToPrometheusText();
}
inline std::string ToJsonl(const Timeline& timeline) {
  return timeline.ToJsonl();
}

// Time-series CSV with the named series as columns (missing values print
// as 0). The first two columns are always t_ns and interval_ns.
std::string ToTimeSeriesCsv(const Timeline& timeline,
                            const std::vector<std::string>& series_names);

// Value of series `name` in `sample` (0 when absent), and its sum and
// maximum over the retained samples — the reductions the gate benches and
// tests check the exports with.
std::uint64_t SampleValue(const Timeline& timeline, const Sample& sample,
                          const std::string& name);
std::uint64_t SumSeries(const Timeline& timeline, const std::string& name);
std::uint64_t MaxSeries(const Timeline& timeline, const std::string& name);

}  // namespace bandslim::telemetry
