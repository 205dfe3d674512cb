// Pure arithmetic behind the benchmark's reported numbers: medians, the
// nearest-rank percentile and the tail-percentile rule, the live-byte model
// that space_amp divides by, and the peeled self-time ledger that derives a
// layer's host cost from nested entry-point times. No simulator types here,
// so perfbench_selftest can check every rule in isolation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

// Median of a sample; the mean of the two middle values for an even count.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Host seconds of a timed phase with a shared host's noise filtered out.
// Every repetition runs the same stream and cuts its timed phase into the
// same segments (`reps[r][j]` = seconds of segment j in repetition r);
// another tenant of the host can only slow a segment down, so each
// segment's fastest time over the repetitions is the closest estimate of
// its own cost. Returns the sum of those minima, or 0 when the repetitions
// do not cut the same number of segments.
inline double BestSegmentsSeconds(const std::vector<std::vector<double>>& reps) {
  if (reps.empty()) return 0.0;
  std::vector<double> best = reps.front();
  for (const std::vector<double>& rep : reps) {
    if (rep.size() != best.size()) return 0.0;
    for (std::size_t j = 0; j < rep.size(); ++j) best[j] = std::min(best[j], rep[j]);
  }
  double sum = 0.0;
  for (const double s : best) sum += s;
  return sum;
}

// Percentiles are integers in parts per million (990000 = p99) so that
// ranks are exact: 0.999 * 1000 is not 999 in binary floating point.
inline constexpr std::uint64_t kPpm = 1000000;

// 1-based nearest rank of percentile `ppm` over `n` samples: the smallest
// rank r with r / n >= ppm / 10^6. 0 only when n == 0.
inline std::uint64_t NearestRank(std::uint64_t n, std::uint64_t ppm) {
  if (n == 0) return 0;
  const std::uint64_t rank = (n * ppm + kPpm - 1) / kPpm;
  return std::max<std::uint64_t>(rank, 1);
}

// Samples strictly above the nearest-rank percentile.
inline std::uint64_t SamplesBeyond(std::uint64_t n, std::uint64_t ppm) {
  return n - NearestRank(n, ppm);
}

// The percentile ladder a tail is chosen from.
inline constexpr std::uint64_t kLadderPpm[] = {500000, 900000, 990000,
                                               999000, 999900, 999990,
                                               999999};

// Reporting rule: the highest ladder percentile that still leaves at least
// `min_beyond` samples beyond it. 0 when not even the median qualifies.
inline std::uint64_t TailPercentilePpm(std::uint64_t n,
                                       std::uint64_t min_beyond = 10) {
  std::uint64_t best = 0;
  for (const std::uint64_t ppm : kLadderPpm) {
    if (SamplesBeyond(n, ppm) >= min_beyond) best = ppm;
  }
  return best;
}

// Nearest-rank percentile of an ascending sample.
inline std::uint64_t PercentileOfSorted(const std::vector<std::uint64_t>& sorted,
                                        std::uint64_t ppm) {
  if (sorted.empty()) return 0;
  return sorted[NearestRank(sorted.size(), ppm) - 1];
}

// Host-side model of every key's last write: what a read-back must return
// and how many user bytes are live. A key's live bytes are its key length
// plus the value size of its last write; overwrites replace, never add.
class LiveBytesModel {
 public:
  struct Entry {
    std::uint64_t stamp = 0;  // Op index the writer stamped into the value.
    std::uint32_t value_size = 0;
    std::uint32_t key_len = 0;
    bool written = false;
  };

  explicit LiveBytesModel(std::size_t num_keys) : entries_(num_keys) {}

  void Write(std::uint32_t key, std::uint32_t key_len,
             std::uint32_t value_size, std::uint64_t stamp) {
    Entry& e = entries_[key];
    if (e.written) {
      live_bytes_ -= e.key_len + e.value_size;
    } else {
      ++live_keys_;
    }
    e = Entry{stamp, value_size, key_len, true};
    live_bytes_ += key_len + value_size;
  }

  // Null when the key was never written.
  const Entry* Find(std::uint32_t key) const {
    return entries_[key].written ? &entries_[key] : nullptr;
  }
  std::uint64_t live_bytes() const { return live_bytes_; }
  std::uint64_t live_keys() const { return live_keys_; }

 private:
  std::vector<Entry> entries_;
  std::uint64_t live_bytes_ = 0;
  std::uint64_t live_keys_ = 0;
};

// space_amp: physical bytes the FTL maps over live user bytes.
inline double SpaceAmp(std::uint64_t mapped_pages, std::uint64_t page_bytes,
                       std::uint64_t live_bytes) {
  if (live_bytes == 0) return 0.0;
  return static_cast<double>(mapped_pages) * static_cast<double>(page_bytes) /
         static_cast<double>(live_bytes);
}

// Self time from outside. The same op is sent to a chain of nested entry
// points, outermost first (router, device facade, driver, ...), each on its
// own twin store, and the host time of every call is summed per level. A
// level's self time is its total minus the next level's; the innermost
// level keeps its whole total. The self times therefore sum to the
// outermost total exactly.
class PeelLedger {
 public:
  explicit PeelLedger(std::size_t levels) : totals_ns_(levels, 0.0) {}

  // One op: `ns[i]` is the host time of the call at level i.
  void Add(const double* ns) {
    for (std::size_t i = 0; i < totals_ns_.size(); ++i) totals_ns_[i] += ns[i];
    ++ops_;
  }

  std::uint64_t ops() const { return ops_; }
  double TotalNs(std::size_t level) const { return totals_ns_[level]; }
  double SelfNs(std::size_t level) const {
    return level + 1 < totals_ns_.size()
               ? totals_ns_[level] - totals_ns_[level + 1]
               : totals_ns_[level];
  }
  double SelfNsPerOp(std::size_t level) const {
    return ops_ == 0 ? 0.0 : SelfNs(level) / static_cast<double>(ops_);
  }

 private:
  std::vector<double> totals_ns_;
  std::uint64_t ops_ = 0;
};

}  // namespace perfbench
