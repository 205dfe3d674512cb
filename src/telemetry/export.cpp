#include "telemetry/export.h"

#include <algorithm>

#include "telemetry/text_out.h"

namespace bandslim::telemetry {

namespace {

// Value of series `id` in `sample`; 0 when the series was never interned.
std::uint64_t ValueOf(const Sample& sample, std::int64_t id) {
  return id < 0 ? 0 : sample.Value(static_cast<std::uint32_t>(id));
}

}  // namespace

std::string ToTimeSeriesCsv(const Timeline& timeline,
                            const std::vector<std::string>& series_names) {
  std::vector<std::int64_t> ids;
  std::string out;
  TextOut os(&out);
  os << "t_ns,interval_ns";
  for (const std::string& name : series_names) {
    ids.push_back(timeline.series().Find(name));
    os << "," << name;
  }
  os << "\n";
  for (const Sample& s : timeline.samples()) {
    os << s.t_ns << "," << s.interval_ns;
    for (const std::int64_t id : ids) os << "," << ValueOf(s, id);
    os << "\n";
  }
  return out;
}

std::uint64_t SampleValue(const Timeline& timeline, const Sample& sample,
                          const std::string& name) {
  return ValueOf(sample, timeline.series().Find(name));
}

std::uint64_t SumSeries(const Timeline& timeline, const std::string& name) {
  const std::int64_t id = timeline.series().Find(name);
  std::uint64_t sum = 0;
  for (const Sample& s : timeline.samples()) sum += ValueOf(s, id);
  return sum;
}

std::uint64_t MaxSeries(const Timeline& timeline, const std::string& name) {
  const std::int64_t id = timeline.series().Find(name);
  std::uint64_t max = 0;
  for (const Sample& s : timeline.samples()) max = std::max(max, ValueOf(s, id));
  return max;
}

}  // namespace bandslim::telemetry
