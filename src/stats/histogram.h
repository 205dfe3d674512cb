// Log-bucketed histogram for latency distributions. Buckets grow
// geometrically (x2) from 1 ns, so percentile error is bounded by the
// bucket width while memory stays constant.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace bandslim::stats {

class Histogram {
 public:
  static constexpr int kNumBuckets = 64;
  using BucketArray = std::array<std::uint64_t, kNumBuckets>;

  void Record(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const;
  // Percentile in [0, 100]; interpolates linearly within a bucket.
  double Percentile(double p) const;

  // Raw cumulative bucket counts. Bucket 0 holds the value 0; bucket i >= 1
  // holds [2^(i-1), 2^i). The telemetry sampler subtracts two snapshots of
  // this array to get the histogram of one sample interval.
  const BucketArray& bucket_counts() const { return buckets_; }
  static std::uint64_t BucketLowerBound(int bucket) {
    return bucket == 0 ? 0 : 1ULL << (bucket - 1);
  }
  static std::uint64_t BucketUpperBound(int bucket) {
    return bucket == 0 ? 1 : (bucket >= 63 ? ~0ULL : 1ULL << bucket);
  }
  // The bucket `value` is recorded in.
  static int BucketFor(std::uint64_t value);

  // Fixed-point integer quantile estimate (permille in [0, 1000]): finds
  // the bucket holding rank ceil(permille/1000 * count) and interpolates
  // linearly inside it in pure integer arithmetic, anchored at the bucket's
  // lower bound. Deterministic across platforms — no floating point — and
  // 0 for an empty histogram. `count` must equal the sum of `buckets`.
  static std::uint64_t QuantileFromBuckets(const BucketArray& buckets,
                                           std::uint64_t count,
                                           std::uint32_t permille);
  // The quantiles at several ascending `permilles` in one cumulative walk;
  // out[k] equals QuantileFromBuckets(buckets, count, permilles[k]).
  static void QuantilesFromBuckets(const BucketArray& buckets,
                                   std::uint64_t count,
                                   std::span<const std::uint32_t> permilles,
                                   std::uint64_t* out);
  std::uint64_t QuantilePermille(std::uint32_t permille) const {
    return QuantileFromBuckets(buckets_, count_, permille);
  }

  void Merge(const Histogram& other);
  // Merges a detached bucket snapshot (the shape MetricsRegistry hands out
  // as HistogramBuckets) into this histogram. Counts, sums, and every
  // quantile computed via QuantileFromBuckets are exact — merging N shards'
  // bucket arrays and taking a quantile equals taking the quantile over the
  // union of their recordings, because the bucket boundaries are shared.
  // min/max are recovered at bucket resolution only (the snapshot does not
  // carry them): min snaps to the lowest non-empty bucket's lower bound,
  // max to the highest non-empty bucket's lower bound.
  void MergeFrom(const BucketArray& buckets, std::uint64_t count,
                 std::uint64_t sum);
  void Reset();

  std::string ToString() const;

 private:
  BucketArray buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

}  // namespace bandslim::stats
