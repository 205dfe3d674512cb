#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace bandslim::stats {

int Histogram::BucketFor(std::uint64_t value) {
  if (value == 0) return 0;
  return std::min(kNumBuckets - 1, 64 - std::countl_zero(value));
}

void Histogram::Record(std::uint64_t value) {
  ++buckets_[static_cast<std::size_t>(BucketFor(value))];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      // Bucket i holds values in [2^(i-1), 2^i); interpolate.
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
      const double hi = std::ldexp(1.0, i);
      const double frac =
          (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return std::clamp(lo + frac * (hi - lo), static_cast<double>(min()),
                        static_cast<double>(max_));
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max_);
}

std::uint64_t Histogram::QuantileFromBuckets(const BucketArray& buckets,
                                             std::uint64_t count,
                                             std::uint32_t permille) {
  std::uint64_t q = 0;
  QuantilesFromBuckets(buckets, count, {&permille, 1}, &q);
  return q;
}

void Histogram::QuantilesFromBuckets(const BucketArray& buckets,
                                     std::uint64_t count,
                                     std::span<const std::uint32_t> permilles,
                                     std::uint64_t* out) {
  std::size_t k = 0;
  if (count == 0) {
    std::fill_n(out, permilles.size(), 0);
    return;
  }
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets && k < permilles.size(); ++i) {
    const std::uint64_t in_bucket = buckets[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    for (; k < permilles.size(); ++k) {
      // 1-based rank of the requested quantile; permille = 0 reads the
      // minimum.
      const std::uint64_t rank = std::max<std::uint64_t>(
          1, (count * std::min(permilles[k], 1000u) + 999) / 1000);
      if (cumulative + in_bucket < rank) break;
      const std::uint64_t lo = BucketLowerBound(i);
      const std::uint64_t hi = BucketUpperBound(i);
      // Position within the bucket, 1..in_bucket; anchor at the lower edge
      // so a single-value bucket reports exactly its lower bound. The
      // intermediate product needs 128 bits: (hi - lo) can reach 2^62.
      const std::uint64_t pos = rank - cumulative;
      out[k] = lo + static_cast<std::uint64_t>(
                        static_cast<unsigned __int128>(hi - lo) * (pos - 1) /
                        in_bucket);
    }
    cumulative += in_bucket;
  }
  std::fill(out + k, out + permilles.size(),
            BucketLowerBound(kNumBuckets - 1));
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] += other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::MergeFrom(const BucketArray& buckets, std::uint64_t count,
                          std::uint64_t sum) {
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t n = buckets[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    buckets_[static_cast<std::size_t>(i)] += n;
    min_ = std::min(min_, BucketLowerBound(i));
    max_ = std::max(max_, BucketLowerBound(i));
  }
  count_ += count;
  sum_ += sum;
}

void Histogram::Reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << Mean() << " min=" << min()
     << " p50=" << Percentile(50) << " p99=" << Percentile(99) << " max=" << max_;
  return os.str();
}

}  // namespace bandslim::stats
