#include <gtest/gtest.h>

#include "common/random.h"

#include "stats/counter.h"
#include "stats/histogram.h"
#include "stats/metrics.h"

namespace bandslim::stats {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(HistogramTest, BasicMoments) {
  Histogram h;
  for (std::uint64_t v : {10, 20, 30, 40}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 25.0);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.min(), 0u);
}

TEST(HistogramTest, PercentileBounds) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<std::uint64_t>(i));
  const double p50 = h.Percentile(50);
  EXPECT_GE(p50, static_cast<double>(h.min()));
  EXPECT_LE(p50, static_cast<double>(h.max()));
  EXPECT_LE(h.Percentile(10), h.Percentile(90));
  EXPECT_LE(h.Percentile(99), static_cast<double>(h.max()));
}

TEST(HistogramTest, PercentileLogAccuracy) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(5000);  // All in one bucket.
  const double p50 = h.Percentile(50);
  // Within the bucket [4096, 8192), clamped to observed min/max.
  EXPECT_DOUBLE_EQ(p50, 5000.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(1);
  a.Record(2);
  b.Record(100);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 103u);
  EXPECT_EQ(a.max(), 100u);
  EXPECT_EQ(a.min(), 1u);
}

TEST(HistogramTest, RecordZero) {
  Histogram h;
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(7);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(MetricsRegistryTest, CreateOnFirstUse) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("foo");
  c->Add(5);
  EXPECT_EQ(reg.CounterValue("foo"), 5u);
  EXPECT_EQ(reg.CounterValue("missing"), 0u);
  // Same name returns the same counter.
  EXPECT_EQ(reg.GetCounter("foo"), c);
}

TEST(MetricsRegistryTest, PointersStableAcrossInserts) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("a");
  a->Add(1);
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("c" + std::to_string(i));
  }
  a->Add(1);  // Must still be valid.
  EXPECT_EQ(reg.CounterValue("a"), 2u);
}

TEST(MetricsRegistryTest, SnapshotAndReset) {
  MetricsRegistry reg;
  reg.GetCounter("x")->Add(3);
  reg.GetCounter("y")->Add(4);
  auto snap = reg.SnapshotCounters();
  EXPECT_EQ(snap.at("x"), 3u);
  EXPECT_EQ(snap.at("y"), 4u);
  reg.ResetAll();
  EXPECT_EQ(reg.CounterValue("x"), 0u);
}

TEST(MetricsRegistryTest, HistogramAccess) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat");
  h->Record(10);
  EXPECT_EQ(reg.GetHistogram("lat")->count(), 1u);
  EXPECT_NE(reg.ToString().find("lat"), std::string::npos);
}

TEST(MetricsRegistryTest, DuplicateRegistrationFailsLoudly) {
  MetricsRegistry reg;
  auto first = reg.TryRegisterCounter("nvme.commands_submitted");
  ASSERT_TRUE(first.ok());
  first.value()->Add(7);

  // A second owner claiming the same name is an error, not a silent alias.
  auto second = reg.TryRegisterCounter("nvme.commands_submitted");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsAlreadyExists());
  EXPECT_NE(second.status().message().find("nvme.commands_submitted"),
            std::string::npos);

  // The original registration (and its value) is untouched by the attempt.
  EXPECT_EQ(reg.CounterValue("nvme.commands_submitted"), 7u);
  EXPECT_EQ(reg.GetCounter("nvme.commands_submitted"), first.value());
}

TEST(MetricsRegistryTest, DuplicateHistogramRegistrationFailsLoudly) {
  MetricsRegistry reg;
  auto first = reg.TryRegisterHistogram("trace.op.latency_ns");
  ASSERT_TRUE(first.ok());
  first.value()->Record(42);
  auto second = reg.TryRegisterHistogram("trace.op.latency_ns");
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsAlreadyExists());
  EXPECT_EQ(reg.GetHistogram("trace.op.latency_ns")->count(), 1u);
}

TEST(MetricsRegistryTest, RegistrationThenReattachViaGetCounter) {
  // The PowerCycle pattern: a once-per-device owner registers, a rebuilt
  // component reattaches with GetCounter and keeps the same live counter.
  MetricsRegistry reg;
  Counter* owned = reg.RegisterCounter("buffer.flushed_pages");
  owned->Add(3);
  Counter* reattached = reg.GetCounter("buffer.flushed_pages");
  EXPECT_EQ(reattached, owned);
  reattached->Add(2);
  EXPECT_EQ(reg.CounterValue("buffer.flushed_pages"), 5u);
}

// ------------------- Integer quantiles (telemetry pipeline) ----------------

TEST(QuantileTest, HandComputedBuckets) {
  // 2 zeros, 2 values in [4,8), 6 values in [16,32): count = 10.
  Histogram::BucketArray b{};
  b[0] = 2;
  b[3] = 2;
  b[5] = 6;
  // p0 reads the minimum: rank clamps to 1, landing in bucket 0.
  EXPECT_EQ(Histogram::QuantileFromBuckets(b, 10, 0), 0u);
  // p50: rank ceil(10*0.5) = 5, position 1 of 6 in [16,32) -> lower edge.
  EXPECT_EQ(Histogram::QuantileFromBuckets(b, 10, 500), 16u);
  // p90: rank 9, position 5 of 6 -> 16 + 16*4/6 = 26.
  EXPECT_EQ(Histogram::QuantileFromBuckets(b, 10, 900), 26u);
  // p100: rank 10, position 6 of 6 -> 16 + 16*5/6 = 29.
  EXPECT_EQ(Histogram::QuantileFromBuckets(b, 10, 1000), 29u);
}

TEST(QuantileTest, RankFallsOnBucketBoundary) {
  Histogram::BucketArray b{};
  b[1] = 1;  // The value 1.
  b[2] = 1;  // One value in [2,4).
  // p50: rank ceil(2*0.5) = 1 stays in the first bucket.
  EXPECT_EQ(Histogram::QuantileFromBuckets(b, 2, 500), 1u);
  // Just past the boundary: rank 2 moves to the second bucket's lower edge.
  EXPECT_EQ(Histogram::QuantileFromBuckets(b, 2, 510), 2u);
}

TEST(QuantileTest, EmptyBucketsYieldZeroNotDivByZero) {
  Histogram::BucketArray b{};
  for (std::uint32_t p : {0u, 500u, 990u, 1000u}) {
    EXPECT_EQ(Histogram::QuantileFromBuckets(b, 0, p), 0u);
  }
  Histogram empty;
  EXPECT_EQ(empty.QuantilePermille(500), 0u);
}

TEST(QuantileTest, PermilleAboveRangeClampsTo1000) {
  Histogram::BucketArray b{};
  b[7] = 4;  // [64,128).
  EXPECT_EQ(Histogram::QuantileFromBuckets(b, 4, 5000),
            Histogram::QuantileFromBuckets(b, 4, 1000));
}

TEST(QuantileTest, SingleValueReportsItsBucketLowerBound) {
  Histogram h;
  h.Record(100);  // Bucket [64,128).
  for (std::uint32_t p : {0u, 500u, 950u, 990u, 1000u}) {
    EXPECT_EQ(h.QuantilePermille(p), 64u);
  }
}

TEST(QuantileTest, DeltaBucketsMatchFreshHistogramOfSecondBatch) {
  // The sampler computes per-interval quantiles from bucket-array deltas;
  // subtracting snapshots must behave exactly like a histogram that only
  // ever saw the second batch.
  Histogram lifetime;
  for (std::uint64_t v : {10u, 20u, 3000u}) lifetime.Record(v);
  const Histogram::BucketArray first = lifetime.bucket_counts();
  const std::uint64_t first_count = lifetime.count();

  Histogram second_only;
  for (std::uint64_t v : {5u, 900u, 900u, 65536u}) {
    lifetime.Record(v);
    second_only.Record(v);
  }
  Histogram::BucketArray delta{};
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    delta[static_cast<std::size_t>(i)] =
        lifetime.bucket_counts()[static_cast<std::size_t>(i)] -
        first[static_cast<std::size_t>(i)];
  }
  const std::uint64_t delta_count = lifetime.count() - first_count;
  ASSERT_EQ(delta_count, second_only.count());
  for (std::uint32_t p : {0u, 500u, 950u, 990u, 1000u}) {
    EXPECT_EQ(Histogram::QuantileFromBuckets(delta, delta_count, p),
              second_only.QuantilePermille(p));
  }
}

TEST(QuantileTest, OneWalkMatchesOneQuantileAtATime) {
  // Random sparse and dense bucket arrays, the permilles the telemetry
  // takes plus the edges (0, 1000, above 1000), and counts above the
  // buckets' sum (the walk then ends on the last bucket's lower bound).
  static constexpr std::uint32_t kPermilles[] = {0,   1,   500, 950,
                                                 990, 999, 1000, 5000};
  Xoshiro256 rng(0x9A4);
  for (int trial = 0; trial < 500; ++trial) {
    Histogram::BucketArray b{};
    std::uint64_t count = 0;
    const std::uint64_t occupied = 1 + rng.Below(Histogram::kNumBuckets);
    for (std::uint64_t i = 0; i < occupied; ++i) {
      const std::uint64_t n = rng.Below(4) == 0 ? 0 : 1 + rng.Below(1000);
      b[rng.Below(Histogram::kNumBuckets)] += n;
      count += n;
    }
    if (trial % 10 == 0) count += 1 + rng.Below(50);
    std::uint64_t walked[std::size(kPermilles)];
    Histogram::QuantilesFromBuckets(b, count, kPermilles, walked);
    for (std::size_t k = 0; k < std::size(kPermilles); ++k) {
      EXPECT_EQ(walked[k],
                Histogram::QuantileFromBuckets(b, count, kPermilles[k]))
          << "trial " << trial << " permille " << kPermilles[k];
    }
  }
}

TEST(MetricsRegistryTest, HistogramSnapshotCarriesQuantiles) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("trace.op.put.latency_ns");
  for (int i = 0; i < 8; ++i) h->Record(100);
  const auto snaps = reg.SnapshotHistograms();
  const auto it = snaps.find("trace.op.put.latency_ns");
  ASSERT_NE(it, snaps.end());
  EXPECT_EQ(it->second.q50, h->QuantilePermille(500));
  EXPECT_EQ(it->second.q95, h->QuantilePermille(950));
  EXPECT_EQ(it->second.q99, h->QuantilePermille(990));
}

TEST(MetricsRegistryTest, SnapshotHistogramBucketsMatchesLiveArrays) {
  MetricsRegistry reg;
  Histogram* a = reg.GetHistogram("a.latency_ns");
  Histogram* b = reg.GetHistogram("b.latency_ns");
  a->Record(7);
  a->Record(7);
  b->Record(1 << 20);
  const auto buckets = reg.SnapshotHistogramBuckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets.at("a.latency_ns").count, 2u);
  EXPECT_EQ(buckets.at("a.latency_ns").sum, 14u);
  EXPECT_EQ(buckets.at("a.latency_ns").buckets, a->bucket_counts());
  EXPECT_EQ(buckets.at("b.latency_ns").buckets, b->bucket_counts());
}

}  // namespace
}  // namespace bandslim::stats
