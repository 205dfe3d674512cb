#include "telemetry/export.h"

#include <algorithm>
#include <sstream>

namespace bandslim::telemetry {

std::string ToTimeSeriesCsv(const Timeline& timeline,
                            const std::vector<std::string>& series_names) {
  std::ostringstream os;
  os << "t_ns,interval_ns";
  for (const std::string& name : series_names) os << "," << name;
  os << "\n";
  for (const Sample& s : timeline.samples()) {
    os << s.t_ns << "," << s.interval_ns;
    for (const std::string& name : series_names) {
      os << "," << SampleValue(timeline, s, name);
    }
    os << "\n";
  }
  return os.str();
}

std::uint64_t SampleValue(const Timeline& timeline, const Sample& sample,
                          const std::string& name) {
  const std::int64_t id = timeline.series().Find(name);
  return id < 0 ? 0 : sample.Value(static_cast<std::uint32_t>(id));
}

std::uint64_t SumSeries(const Timeline& timeline, const std::string& name) {
  std::uint64_t sum = 0;
  for (const Sample& s : timeline.samples()) {
    sum += SampleValue(timeline, s, name);
  }
  return sum;
}

std::uint64_t MaxSeries(const Timeline& timeline, const std::string& name) {
  std::uint64_t max = 0;
  for (const Sample& s : timeline.samples()) {
    max = std::max(max, SampleValue(timeline, s, name));
  }
  return max;
}

}  // namespace bandslim::telemetry
