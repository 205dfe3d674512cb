// Consistent-hash ring for the KvCluster router. Each shard contributes
// `virtual_nodes` points on a 64-bit ring; a key is owned by the shard of
// the first point at or clockwise-after the key's hash. Virtual nodes keep
// the per-shard key share close to uniform (stddev shrinks ~ 1/sqrt(V)),
// and the construction is a pure function of (num_shards, virtual_nodes,
// seed) — no RNG state, so ownership is bit-stable across runs and
// processes, which the cluster's determinism tests rely on.
//
// Lookup is O(1): a fixed table of 2^kBucketBits entries, indexed by a
// hash's top bits, holds the index of the first point at or after each
// bucket's start. A hash's owner is then the first point at or after it
// among the points inside its own bucket (about num_points / 4096 of
// them) or, past those, the next bucket's first point: the same point a
// binary search over the whole ring finds.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace bandslim::cluster {

// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class HashRing {
 public:
  HashRing(std::uint32_t num_shards, std::uint32_t virtual_nodes,
           std::uint64_t seed)
      : seed_(seed) {
    points_.reserve(static_cast<std::size_t>(num_shards) * virtual_nodes);
    for (std::uint32_t shard = 0; shard < num_shards; ++shard) {
      for (std::uint32_t replica = 0; replica < virtual_nodes; ++replica) {
        const std::uint64_t id =
            (static_cast<std::uint64_t>(shard) << 32) | replica;
        points_.emplace_back(Mix64(seed ^ Mix64(id)), shard);
      }
    }
    // Sort by (hash, shard): ties — astronomically unlikely but possible —
    // resolve to the lowest shard index, deterministically.
    std::sort(points_.begin(), points_.end());
    std::size_t first = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t bucket_start = std::uint64_t{b} << kBucketShift;
      while (first < points_.size() && points_[first].first < bucket_start) {
        ++first;
      }
      bucket_first_[b] = static_cast<std::uint32_t>(first);
    }
    bucket_first_[kBuckets] = static_cast<std::uint32_t>(points_.size());
  }

  // Sorted (hash, shard) ring points.
  using Point = std::pair<std::uint64_t, std::uint32_t>;
  const std::vector<Point>& points() const { return points_; }

  std::uint64_t HashKey(std::string_view key) const {
    // FNV-1a over the key bytes, then mixed with the ring seed so distinct
    // seeds induce independent placements of the same key set.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : key) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    return Mix64(h ^ seed_);
  }

  // The shard of the first point at or clockwise-after `hash`.
  std::uint32_t OwnerOfHash(std::uint64_t hash) const {
    const std::size_t b = hash >> kBucketShift;
    std::size_t i = bucket_first_[b];
    const std::size_t end = bucket_first_[b + 1];
    while (i < end && points_[i].first < hash) ++i;
    if (i == points_.size()) i = 0;  // Wrap around.
    return points_[i].second;
  }

  std::uint32_t OwnerOf(std::string_view key) const {
    return OwnerOfHash(HashKey(key));
  }

  std::size_t num_points() const { return points_.size(); }

  // Fraction of the 64-bit ring each shard owns, in permille. Keys hash
  // uniformly over the ring, so these are the EXPECTED keys-per-shard
  // shares implied by the virtual-node placement — the baseline the fleet
  // ring-skew watchdog compares actual routed counts against. Entries sum
  // to ~1000 (truncation can lose up to num_shards - 1 permille).
  std::vector<std::uint64_t> OwnershipWeightsPermille(
      std::uint32_t num_shards) const {
    std::vector<std::uint64_t> weights(num_shards, 0);
    if (points_.empty() || num_shards == 0) return weights;
    if (num_shards == 1) {
      weights[0] = 1000;
      return weights;
    }
    // OwnerOf resolves a hash to the first point at or clockwise-after it,
    // so the arc (prev_point, point] belongs to point's shard. Unsigned
    // wraparound handles both the first point's arc and per-shard sums
    // (each strictly below 2^64 once num_shards >= 2).
    std::vector<std::uint64_t> arcs(num_shards, 0);
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const std::uint64_t prev =
          points_[i == 0 ? points_.size() - 1 : i - 1].first;
      arcs[points_[i].second] += points_[i].first - prev;
    }
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      weights[s] = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(arcs[s]) * 1000) >> 64);
    }
    return weights;
  }

 private:
  static constexpr int kBucketBits = 12;
  static constexpr int kBucketShift = 64 - kBucketBits;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

  std::vector<Point> points_;
  std::uint64_t seed_;
  // bucket_first_[b]: index of the first point whose hash is at or after
  // bucket b's start; bucket_first_[kBuckets] == num_points().
  std::array<std::uint32_t, kBuckets + 1> bucket_first_;
};

}  // namespace bandslim::cluster
