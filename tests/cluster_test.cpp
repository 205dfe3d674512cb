// KvCluster tests: consistent-hash ring determinism and balance, the
// 1-shard == bare-device bit-identity guarantee, the GetBatch request-order
// contract under adversarial cross-shard interleavings, double-run
// determinism of a full 4-shard campaign (byte-compared telemetry and
// actuation exports per shard), tenant QoS credit shedding/refill, and
// aggregation invariants of the StoreSnapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/kv_cluster.h"
#include "common/random.h"
#include "control/control_loop.h"
#include "core/kvssd.h"
#include "telemetry/export.h"
#include "trace/trace.h"
#include "workload/runner.h"

namespace bandslim::cluster {
namespace {

KvSsdOptions TestOptions() {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 2;
  o.geometry.blocks_per_die = 256;
  o.geometry.pages_per_block = 32;
  o.buffer.num_entries = 32;
  o.buffer.dlt_entries = 32;
  o.lsm.memtable_limit_bytes = 16 * 1024;
  return o;
}

ClusterConfig TestCluster(std::uint32_t shards) {
  ClusterConfig c;
  c.num_shards = shards;
  c.shard = TestOptions();
  return c;
}

Bytes ValueFor(std::uint64_t i, std::size_t size = 64) {
  Bytes v(size, 0x5A);
  for (int b = 0; b < 8; ++b) {
    v[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  return v;
}

// Field-by-field stats equality with readable failure output.
void ExpectStatsEq(const KvSsdStats& a, const KvSsdStats& b) {
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(a.commands_submitted, b.commands_submitted);
  EXPECT_EQ(a.pcie_h2d_bytes, b.pcie_h2d_bytes);
  EXPECT_EQ(a.pcie_d2h_bytes, b.pcie_d2h_bytes);
  EXPECT_EQ(a.mmio_bytes, b.mmio_bytes);
  EXPECT_EQ(a.dma_h2d_bytes, b.dma_h2d_bytes);
  EXPECT_EQ(a.nand_pages_programmed, b.nand_pages_programmed);
  EXPECT_EQ(a.nand_pages_read, b.nand_pages_read);
  EXPECT_EQ(a.nand_blocks_erased, b.nand_blocks_erased);
  EXPECT_EQ(a.vlog_pages_flushed, b.vlog_pages_flushed);
  EXPECT_EQ(a.lsm_pages_programmed, b.lsm_pages_programmed);
  EXPECT_EQ(a.device_memcpy_bytes, b.device_memcpy_bytes);
  EXPECT_EQ(a.buffer_wasted_bytes, b.buffer_wasted_bytes);
  EXPECT_EQ(a.values_written, b.values_written);
  EXPECT_EQ(a.value_bytes_written, b.value_bytes_written);
  EXPECT_EQ(a.lsm_compactions, b.lsm_compactions);
  EXPECT_EQ(a.memtable_flushes, b.memtable_flushes);
}

// --- Hash ring ---------------------------------------------------------------

TEST(HashRingTest, DeterministicAndReasonablyBalanced) {
  const HashRing ring(4, 64, 0xB5CCA11);
  const HashRing twin(4, 64, 0xB5CCA11);
  std::map<std::uint32_t, std::uint64_t> share;
  const std::uint64_t kKeys = 20000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::uint32_t owner = ring.OwnerOf(key);
    ASSERT_LT(owner, 4u);
    EXPECT_EQ(owner, twin.OwnerOf(key));  // Pure function of the config.
    ++share[owner];
  }
  // 64 virtual nodes keep every shard within a loose band of fair share
  // (25% +- 15 points). A plain mod-4 ring without virtual nodes would
  // pass too — the point is no shard is starved or doubled.
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(share[s], kKeys / 10) << "shard " << s;
    EXPECT_LT(share[s], kKeys * 45 / 100) << "shard " << s;
  }
  // A different seed induces a different placement of the same key set.
  const HashRing reseeded(4, 64, 0xD15EA5E);
  std::uint64_t moved = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    moved += ring.OwnerOf(key) != reseeded.OwnerOf(key) ? 1 : 0;
  }
  EXPECT_GT(moved, 100u);
}

TEST(HashRingTest, ArcWeightsPredictKeyDistribution) {
  // Chi-square-style goodness of fit: keys-per-shard across seeds and
  // virtual-node counts must match the EXPECTED shares implied by the
  // ring's arc weights (OwnershipWeightsPermille) — the baseline the fleet
  // ring-skew watchdog compares routed counts against. 7.81 is the 95th
  // percentile of chi-square with 3 degrees of freedom; the deterministic
  // configurations below all sit under 3.
  const std::uint64_t kKeys = 20000;
  for (const std::uint32_t vnodes : {16u, 64u, 256u}) {
    for (const std::uint64_t seed :
         {0xB5CCA11ull, 0xD15EA5Eull, 0x5EEDull}) {
      const HashRing ring(4, vnodes, seed);
      const std::vector<std::uint64_t> weights =
          ring.OwnershipWeightsPermille(4);
      std::uint64_t total_weight = 0;
      for (const std::uint64_t w : weights) total_weight += w;
      // Truncation loses at most num_shards - 1 permille.
      EXPECT_GE(total_weight, 997u);
      EXPECT_LE(total_weight, 1000u);

      std::vector<std::uint64_t> share(4, 0);
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        ++share[ring.OwnerOf("key-" + std::to_string(i))];
      }
      double chi2_arcs = 0.0, chi2_fair = 0.0;
      for (int s = 0; s < 4; ++s) {
        const double expected =
            static_cast<double>(weights[static_cast<std::size_t>(s)]) *
            static_cast<double>(kKeys) / 1000.0;
        const double observed =
            static_cast<double>(share[static_cast<std::size_t>(s)]);
        chi2_arcs += (observed - expected) * (observed - expected) / expected;
        const double fair = static_cast<double>(kKeys) / 4.0;
        chi2_fair += (observed - fair) * (observed - fair) / fair;
      }
      EXPECT_LT(chi2_arcs, 7.81)
          << "vnodes " << vnodes << " seed " << seed;
      // At low virtual-node counts the ring is legitimately lumpy: the arc
      // weights explain the placement where a naive fair-share model does
      // not — that asymmetry is exactly what makes them the right watchdog
      // baseline.
      if (vnodes == 16) {
        EXPECT_GT(chi2_fair, 100.0) << "seed " << seed;
      }
    }
  }
}

TEST(HashRingTest, SeededPlacementIsPinned) {
  // Regression pin: the default cluster ring (4 shards, 64 virtual nodes,
  // seed 0xB5CCA11) places these keys exactly here. Any change to the hash,
  // the mixer, or the point construction shows up as a diff in this table —
  // and would silently reshuffle every persisted placement.
  const HashRing ring(4, 64, 0xB5CCA11);
  const std::pair<const char*, std::uint32_t> pinned[] = {
      {"key-0", 0u}, {"key-1", 1u}, {"key-2", 0u}, {"key-3", 0u},
      {"key-4", 0u}, {"key-5", 0u}, {"key-6", 0u}, {"key-7", 1u},
  };
  for (const auto& [key, owner] : pinned) {
    EXPECT_EQ(ring.OwnerOf(key), owner) << key;
  }
  // The arc weights of the default ring are pinned too (they feed the
  // ring-skew rule's expected shares).
  EXPECT_EQ(ring.OwnershipWeightsPermille(4),
            (std::vector<std::uint64_t>{282u, 261u, 259u, 195u}));
  // A single-shard ring owns the whole keyspace by definition.
  const HashRing solo(1, 64, 0xB5CCA11);
  EXPECT_EQ(solo.OwnershipWeightsPermille(1),
            (std::vector<std::uint64_t>{1000u}));
}

TEST(HashRingTest, LookupTableMatchesFullSearch) {
  // OwnerOfHash reads the bucket table and scans the bucket's own points; a
  // binary search over every point, wrapping past the last, must agree on
  // every hash: random ones, each point's hash and its neighbours, both
  // ends of the ring and both sides of every bucket edge. 64 x 128 puts
  // two points in an average bucket of the 4096.
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {1, 1}, {4, 64}, {64, 128}};
  for (const auto& [shards, vnodes] : shapes) {
    const HashRing ring(shards, vnodes, 0xB5CCA11);
    const auto& points = ring.points();
    ASSERT_EQ(points.size(), std::size_t{shards} * vnodes);
    const auto full_search = [&](std::uint64_t hash) {
      auto it = std::lower_bound(
          points.begin(), points.end(), hash,
          [](const HashRing::Point& p, std::uint64_t h) { return p.first < h; });
      return (it == points.end() ? points.begin() : it)->second;
    };
    std::vector<std::uint64_t> hashes = {0, ~std::uint64_t{0}};
    for (const HashRing::Point& p : points) {
      hashes.push_back(p.first - 1);
      hashes.push_back(p.first);
      hashes.push_back(p.first + 1);
    }
    for (std::uint64_t b = 1; b < 4096; ++b) {
      hashes.push_back((b << 52) - 1);
      hashes.push_back(b << 52);
    }
    Xoshiro256 rng(shards * 1000 + vnodes);
    for (int i = 0; i < 100000; ++i) hashes.push_back(rng());
    for (const std::uint64_t hash : hashes) {
      ASSERT_EQ(ring.OwnerOfHash(hash), full_search(hash))
          << shards << "x" << vnodes << " hash " << hash;
    }
    for (int i = 0; i < 1000; ++i) {
      const std::string key = "key-" + std::to_string(i);
      ASSERT_EQ(ring.OwnerOf(key), full_search(ring.HashKey(key))) << key;
    }
  }
}

// --- 1-shard bit-identity ----------------------------------------------------

TEST(KvClusterTest, SingleShardMatchesBareDeviceBitIdentically) {
  auto bare = KvSsd::Open(TestOptions()).value();
  auto fleet = KvCluster::Open(TestCluster(1)).value();
  ASSERT_EQ(fleet->num_shards(), 1u);

  // The same mixed sequence — serial ops, batches, deletes, flush — against
  // both stores through the SAME KvStore surface.
  const auto drive = [](KvStore& store) {
    for (std::uint64_t i = 0; i < 60; ++i) {
      ASSERT_TRUE(
          store.Put("key" + std::to_string(i), ByteSpan(ValueFor(i))).ok());
    }
    Bytes got;
    for (std::uint64_t i = 0; i < 60; i += 3) {
      ASSERT_TRUE(store.GetInto("key" + std::to_string(i), &got).ok());
    }
    std::vector<KvStore::KvPair> batch;
    for (std::uint64_t i = 100; i < 116; ++i) {
      batch.push_back({"key" + std::to_string(i), ValueFor(i, 200)});
    }
    ASSERT_TRUE(store.PutBatch(batch).ok());
    std::vector<std::string> keys;
    for (std::uint64_t i = 95; i < 120; ++i) {
      keys.push_back("key" + std::to_string(i));
    }
    auto bulk = store.GetBatch(keys);
    ASSERT_TRUE(bulk.ok());
    auto removed = store.DeleteBatch(keys);
    ASSERT_TRUE(removed.ok());
    EXPECT_EQ(removed.value(), 16u);  // Only key100..115 exist in the range.
    ASSERT_TRUE(store.Flush().ok());
  };
  drive(*bare);
  drive(*fleet);

  // Bit-identical virtual time and device counters.
  EXPECT_EQ(bare->Now(), fleet->Now());
  ExpectStatsEq(bare->GetStats(), fleet->GetStats());
  // The full registry dump matches too — same commands, same costs.
  EXPECT_EQ(bare->InspectDevice().counters, fleet->shard(0).InspectDevice().counters);
}

// --- GetBatch ordering contract ---------------------------------------------

TEST(KvClusterTest, GetBatchPreservesRequestOrderAcrossShards) {
  auto fleet = KvCluster::Open(TestCluster(4)).value();
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        fleet->Put("key" + std::to_string(i), ByteSpan(ValueFor(i))).ok());
  }
  // Present and absent keys deliberately interleaved, with duplicates, in
  // an order that hops shards on nearly every step.
  std::vector<std::string> keys;
  for (std::uint64_t i = 64; i-- > 0;) {
    keys.push_back("key" + std::to_string(i));
    if (i % 5 == 0) keys.push_back("missing" + std::to_string(i));
    if (i % 7 == 0) keys.push_back("key" + std::to_string(i));  // Duplicate.
  }
  auto bulk = fleet->GetBatch(keys);
  ASSERT_TRUE(bulk.ok());
  ASSERT_EQ(bulk.value().size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto& r = bulk.value()[i];
    if (keys[i].rfind("missing", 0) == 0) {
      EXPECT_FALSE(r.found) << "slot " << i;
    } else {
      ASSERT_TRUE(r.found) << "slot " << i << " key " << keys[i];
      const std::uint64_t idx = std::stoull(keys[i].substr(3));
      EXPECT_EQ(r.value, ValueFor(idx)) << "slot " << i;
    }
  }
  const StoreSnapshot snap = fleet->Inspect();
  EXPECT_GE(snap.cross_shard_batches, 1u);
  EXPECT_GE(snap.batch_subops, 2u);
}

TEST(KvClusterTest, BatchOrderingPropertyUnderAdversarialInterleavings) {
  auto fleet = KvCluster::Open(TestCluster(4)).value();
  const std::uint64_t kSpace = 128;
  for (std::uint64_t i = 0; i < kSpace; ++i) {
    ASSERT_TRUE(fleet->Put("p" + std::to_string(i), ByteSpan(ValueFor(i))).ok());
  }
  Xoshiro256 rng(0xC0FFEE);
  for (int round = 0; round < 100; ++round) {
    const std::size_t n = 1 + rng() % 32;
    std::vector<std::string> keys;
    std::vector<bool> expect_found;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t idx = rng() % (2 * kSpace);
      // Upper half of the draw space = absent keys.
      keys.push_back((idx < kSpace ? "p" : "absent") + std::to_string(idx));
      expect_found.push_back(idx < kSpace);
    }
    auto bulk = fleet->GetBatch(keys);
    ASSERT_TRUE(bulk.ok());
    ASSERT_EQ(bulk.value().size(), n) << "round " << round;
    for (std::size_t j = 0; j < n; ++j) {
      const auto& r = bulk.value()[j];
      ASSERT_EQ(r.found, expect_found[j])
          << "round " << round << " slot " << j << " key " << keys[j];
      if (r.found) {
        const std::uint64_t idx = std::stoull(keys[j].substr(1));
        ASSERT_EQ(r.value, ValueFor(idx)) << "round " << round << " slot " << j;
      }
    }
  }
}

// --- Double-run determinism of a full campaign ------------------------------

struct CampaignExports {
  std::vector<std::string> prom, jsonl, actuations;
  sim::Nanoseconds finish = 0;
};

CampaignExports RunFourShardCampaign() {
  ClusterConfig cc = TestCluster(4);
  cc.shard.telemetry.enabled = true;
  cc.shard.telemetry.sample_interval_ns = 20 * sim::kMicrosecond;
  cc.shard.control.enabled = true;
  auto fleet = KvCluster::Open(cc).value();

  workload::MixedWorkloadSpec spec;
  spec.ops = 600;
  spec.num_keys = 256;
  spec.value_size = 200;
  spec.seed = 7;
  EXPECT_TRUE(workload::PreloadMixedKeys(*fleet, spec).ok());
  // Serial mixed phase (router timeline), then batch traffic, then the
  // parallel per-shard phase, then a flush barrier.
  (void)workload::RunSerial(*fleet, workload::MixedStream(spec));
  std::vector<KvStore::KvPair> batch;
  for (std::uint64_t i = 0; i < 64; ++i) {
    batch.push_back({workload::MixedKeyName(i), ValueFor(i, 300)});
  }
  EXPECT_TRUE(fleet->PutBatch(batch).ok());
  spec.zipfian = true;
  (void)workload::RunParallel(*fleet, workload::MixedStream(spec));
  EXPECT_TRUE(fleet->Flush().ok());

  CampaignExports out;
  out.finish = fleet->Now();
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
    KvSsd& dev = fleet->shard(s);
    dev.Hooks().sampler->Finalize();
    out.prom.push_back(telemetry::ToPrometheusText(dev.telemetry()));
    out.jsonl.push_back(telemetry::ToJsonl(dev.telemetry()));
    out.actuations.push_back(dev.control() ? dev.control()->ActuationsCsv()
                                           : "");
  }
  return out;
}

TEST(KvClusterTest, FourShardCampaignIsByteIdenticalAcrossRuns) {
  const CampaignExports a = RunFourShardCampaign();
  const CampaignExports b = RunFourShardCampaign();
  EXPECT_EQ(a.finish, b.finish);
  ASSERT_EQ(a.prom.size(), b.prom.size());
  for (std::size_t s = 0; s < a.prom.size(); ++s) {
    EXPECT_EQ(a.prom[s], b.prom[s]) << "shard " << s << " telemetry text";
    EXPECT_EQ(a.jsonl[s], b.jsonl[s]) << "shard " << s << " timeline";
    EXPECT_EQ(a.actuations[s], b.actuations[s]) << "shard " << s << " log";
  }
}

// --- Tenant QoS --------------------------------------------------------------

TEST(KvClusterTest, TenantCreditsShedWithBusyAndRefillOnWindow) {
  ClusterConfig cc = TestCluster(2);
  cc.qos_refill_window_ns = 200 * sim::kMicrosecond;
  TenantConfig metered;
  metered.name = "metered";
  metered.queue_id = 1;
  metered.credits_per_window = 2;
  metered.busy_backoff_ns = 5 * sim::kMicrosecond;
  cc.tenants = {TenantConfig{}, metered};
  auto fleet = KvCluster::Open(cc).value();
  ASSERT_EQ(fleet->num_tenants(), 2u);

  // Keys all owned by shard 0, so the per-shard credit pool is hit by
  // every op.
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; keys.size() < 8; ++i) {
    const std::string key = "qos" + std::to_string(i);
    if (fleet->ShardOf(key) == 0) keys.push_back(key);
  }

  KvStore& metered_view = fleet->Tenant(1);
  std::uint64_t ok = 0, busy = 0;
  for (const std::string& key : keys) {
    const Status st = metered_view.Put(key, ByteSpan(ValueFor(1)));
    if (st.IsBusy()) {
      ++busy;
    } else {
      ASSERT_TRUE(st.ok());
      ++ok;
    }
  }
  EXPECT_EQ(ok, 2u) << "two credits per window";
  EXPECT_EQ(busy, keys.size() - 2);

  // The default tenant is unmetered: it proceeds while tenant 1 is shed.
  ASSERT_TRUE(fleet->Put(keys[0], ByteSpan(ValueFor(2))).ok());

  // Busy backoffs burn virtual time; retry until the refill window grid is
  // crossed and credits return. This must terminate deterministically.
  std::uint64_t retries = 0;
  Status st = metered_view.Put(keys[3], ByteSpan(ValueFor(3)));
  while (st.IsBusy()) {
    ASSERT_LT(++retries, 200u) << "credits never refilled";
    st = metered_view.Put(keys[3], ByteSpan(ValueFor(3)));
  }
  ASSERT_TRUE(st.ok());
  EXPECT_GE(fleet->qos_refill_windows(), 1u);
  EXPECT_GE(fleet->Inspect().qos_refill_windows, 1u);
}

// --- Aggregation and runner equivalence --------------------------------------

TEST(KvClusterTest, InspectAggregatesShardSnapshots) {
  auto fleet = KvCluster::Open(TestCluster(4)).value();
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        fleet->Put("agg" + std::to_string(i), ByteSpan(ValueFor(i))).ok());
  }
  ASSERT_TRUE(fleet->Flush().ok());
  const StoreSnapshot snap = fleet->Inspect();
  ASSERT_EQ(snap.num_shards(), 4u);
  KvSsdStats summed;
  summed.elapsed_ns = fleet->Now();
  for (const DeviceSnapshot& dev : snap.shards) {
    AccumulateStats(&summed, dev.stats);
  }
  ExpectStatsEq(snap.stats, summed);
  EXPECT_EQ(summed.values_written, 200u);
  // Every shard took a nonzero slice of a 200-key uniform load.
  for (const DeviceSnapshot& dev : snap.shards) {
    EXPECT_GT(dev.stats.values_written, 0u);
  }
}

TEST(KvClusterTest, ParallelRunnerMatchesSerialOnOneShard) {
  workload::MixedWorkloadSpec spec;
  spec.ops = 400;
  spec.num_keys = 128;
  spec.value_size = 96;
  spec.seed = 11;

  auto serial = KvCluster::Open(TestCluster(1)).value();
  ASSERT_TRUE(workload::PreloadMixedKeys(*serial, spec).ok());
  const workload::RunResult a =
      workload::RunSerial(*serial, workload::MixedStream(spec));

  auto parallel = KvCluster::Open(TestCluster(1)).value();
  ASSERT_TRUE(workload::PreloadMixedKeys(*parallel, spec).ok());
  const workload::RunResult b =
      workload::RunParallel(*parallel, workload::MixedStream(spec));

  // One stream == the serial loop: identical virtual time and counters.
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(serial->Now(), parallel->Now());
  ExpectStatsEq(a.delta, b.delta);
  EXPECT_EQ(a.latency_ns.count(), b.latency_ns.count());
  EXPECT_EQ(a.latency_ns.Mean(), b.latency_ns.Mean());
}

TEST(KvClusterTest, FourShardParallelMixedBeatsOneShard) {
  workload::MixedWorkloadSpec spec;
  spec.ops = 800;
  spec.num_keys = 512;
  spec.value_size = 128;
  spec.seed = 13;

  auto one = KvCluster::Open(TestCluster(1)).value();
  ASSERT_TRUE(workload::PreloadMixedKeys(*one, spec).ok());
  const auto r1 = workload::RunParallel(*one, workload::MixedStream(spec));

  auto four = KvCluster::Open(TestCluster(4)).value();
  ASSERT_TRUE(workload::PreloadMixedKeys(*four, spec).ok());
  const auto r4 = workload::RunParallel(*four, workload::MixedStream(spec));

  ASSERT_GT(r1.elapsed_ns, 0);
  ASSERT_GT(r4.elapsed_ns, 0);
  const double speedup = static_cast<double>(r1.elapsed_ns) /
                         static_cast<double>(r4.elapsed_ns);
  EXPECT_GE(speedup, 3.0) << "4-shard mixed speedup " << speedup;
}

// --- Router contract for a crashed shard ------------------------------------

TEST(KvClusterTest, CrashedShardFailsEveryBatchOpWhileHealthyShardsServe) {
  ClusterConfig cc = TestCluster(4);
  cc.fleet.enabled = true;
  cc.attribution.enabled = true;
  auto fleet = KvCluster::Open(cc).value();
  std::vector<std::string> keys;
  std::vector<KvStore::KvPair> batch;
  std::vector<std::uint32_t> owned(fleet->num_shards(), 0);
  for (std::uint64_t i = 0; i < 32; ++i) {
    keys.push_back("crash" + std::to_string(i));
    batch.push_back({keys.back(), ValueFor(i)});
    ++owned[fleet->ShardOf(keys.back())];
  }
  for (const std::uint32_t n : owned) ASSERT_GT(n, 0u);
  ASSERT_TRUE(fleet->PutBatch(batch).ok());
  fleet->shard(1).CrashAt(fleet->Now());

  const std::pair<const char*, std::function<Status(KvStore&)>> ops[] = {
      {"PutBatch", [&](KvStore& s) { return s.PutBatch(batch); }},
      {"GetBatch", [&](KvStore& s) { return s.GetBatch(keys).status(); }},
      {"DeleteBatch", [&](KvStore& s) { return s.DeleteBatch(keys).status(); }},
  };
  for (const auto& [name, op] : ops) {
    SCOPED_TRACE(name);
    const StoreSnapshot before = fleet->Inspect();
    const auto charges = fleet->attribution().tenant_charges(0);
    const sim::Nanoseconds start = fleet->Now();
    EXPECT_EQ(op(*fleet).code(), StatusCode::kTimedOut);

    // Every healthy shard served its sub-batch; the crashed one cost its
    // command timeout, and the router gathered to that slowest shard.
    const StoreSnapshot after = fleet->Inspect();
    sim::Nanoseconds slowest = 0;
    for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
      slowest = std::max(slowest, fleet->shard(s).Now());
      if (s == 1) continue;
      EXPECT_GT(after.shards[s].stats.commands_submitted,
                before.shards[s].stats.commands_submitted)
          << "shard " << s;
    }
    EXPECT_EQ(after.cross_shard_batches, before.cross_shard_batches + 1);
    EXPECT_EQ(after.batch_subops, before.batch_subops + 4);
    EXPECT_EQ(fleet->Now(), slowest);
    EXPECT_GE(fleet->Now(), start + cc.shard.fault.command_timeout_ns);
    // One client op, booked as an error.
    EXPECT_EQ(fleet->attribution().tenant_charges(0).ops, charges.ops + 1);
    EXPECT_EQ(fleet->attribution().tenant_charges(0).error_ops,
              charges.error_ops + 1);
  }
}

// --- Routed op stream pinned -------------------------------------------------

// FNV-1a over everything a routed op stream leaves behind.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void Add(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void Add(std::uint64_t v) { Add(&v, sizeof v); }
  void Add(std::string_view s) {
    Add(s.size());
    Add(s.data(), s.size());
  }
  void Add(const Bytes& b) {
    Add(b.size());
    Add(b.data(), b.size());
  }
};

// Short keys and 16-byte keys (past the short-string buffer) alike; ids at
// or above kWritten are never written, so GETs and deletes also miss.
std::string RoutedKey(std::uint64_t id) {
  std::string key = std::to_string(id);
  if (id % 3 != 0) return key.insert(0, "r");
  key.insert(0, 16 - key.size(), '0');
  return key.replace(0, 3, "rk-");
}

TEST(KvClusterTest, RoutedStreamDigestIsPinned) {
  // Tenant 0 is metered and issues only point ops, so some of its PUTs (and
  // GETs) are shed with kBusy; tenant 1 is unmetered and also issues every
  // batch op. Fleet, attribution and tracing are all on, so the digest
  // covers every per-op bracket the router applies.
  ClusterConfig cc = TestCluster(4);
  cc.shard.trace.enabled = true;
  TenantConfig metered{"metered", 1, 2, 4000};
  TenantConfig bulk{"bulk", 0, 0, 2000};
  cc.tenants = {metered, bulk};
  cc.qos_refill_window_ns = 300 * sim::kMicrosecond;
  cc.fleet.enabled = true;
  cc.fleet.sample_interval_ns = 50 * sim::kMicrosecond;
  cc.attribution.enabled = true;
  auto fleet = KvCluster::Open(cc).value();

  constexpr std::uint64_t kWritten = 96;
  Xoshiro256 rng(0x5EED0019);
  Digest d;
  std::uint64_t busy = 0;
  Bytes got;
  for (std::uint64_t i = 0; i < 1200; ++i) {
    const std::size_t t = rng.Below(2);
    KvStore& view = fleet->Tenant(t);
    const std::uint64_t r = rng.Below(100);
    const std::string key = RoutedKey(rng.Below(kWritten + 24));
    Status st;
    if (r < 40) {
      const std::size_t size = 8 + rng.Below(r < 30 ? 300 : 9000);
      st = view.Put(RoutedKey(rng.Below(kWritten)), ByteSpan(ValueFor(i, size)));
    } else if (r < 60) {
      st = view.GetInto(key, &got);
      if (st.ok()) d.Add(got);
    } else if (r < 70) {
      auto value = view.Get(key);
      st = value.status();
      if (value.ok()) d.Add(value.value());
    } else if (r < 76 || t == 0) {
      st = view.Delete(key);
    } else {
      const std::size_t n = 1 + rng.Below(12);
      std::vector<std::string> keys;
      for (std::size_t j = 0; j < n; ++j) {
        keys.push_back(RoutedKey(rng.Below(kWritten + 24)));
      }
      if (r < 86) {
        std::vector<KvStore::KvPair> batch;
        for (std::size_t j = 0; j < n; ++j) {
          batch.push_back({RoutedKey(rng.Below(kWritten)),
                           ValueFor(i + j, 8 + rng.Below(600))});
        }
        st = view.PutBatch(batch);
      } else if (r < 96) {
        auto bulk_got = view.GetBatch(keys);
        st = bulk_got.status();
        if (bulk_got.ok()) {
          for (const auto& res : bulk_got.value()) {
            d.Add(res.found ? 1u : 0u);
            d.Add(res.value);
          }
        }
      } else {
        auto removed = view.DeleteBatch(keys);
        st = removed.status();
        if (removed.ok()) d.Add(removed.value());
      }
    }
    if (st.IsBusy()) ++busy;
    d.Add(static_cast<std::uint64_t>(st.code()));
    if (i % 400 == 399) {
      ASSERT_TRUE(fleet->Flush().ok());
    }
  }
  ASSERT_TRUE(fleet->Flush().ok());
  fleet->fleet().Finalize();
  ASSERT_GT(busy, 0u);

  d.Add(fleet->Now());
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
    const KvSsdStats stats = fleet->shard(s).GetStats();
    d.Add(stats.elapsed_ns);
    for (const auto counter : kStatsCounters) d.Add(stats.*counter);
  }
  const StoreSnapshot snap = fleet->Inspect();
  d.Add(snap.batch_subops);
  d.Add(snap.cross_shard_batches);
  d.Add(snap.qos_refill_windows);
  for (const std::uint64_t routed : fleet->routed_keys()) d.Add(routed);
  d.Add(fleet->fleet().ToPrometheusText());
  d.Add(fleet->fleet().ToJsonl());
  d.Add(fleet->attribution().SloJsonl());
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
    d.Add(trace::ToBreakdownCsv(fleet->shard(s).tracer()));
    d.Add(trace::ToChromeTraceJson(fleet->shard(s).tracer()));
  }
  // Recorded before the router's per-op brackets were merged into one
  // shard-call path: the merge must leave every byte unchanged.
  EXPECT_EQ(busy, 87u);
  EXPECT_EQ(fleet->Now(), 67312850u);
  EXPECT_EQ(d.h, 0x684ac2a6c4bbbcd2ULL);
}

TEST(KvClusterTest, OpenRejectsInvalidConfigs) {
  ClusterConfig zero = TestCluster(0);
  EXPECT_FALSE(KvCluster::Open(zero).ok());
  ClusterConfig dup = TestCluster(2);
  dup.tenants = {TenantConfig{}, TenantConfig{}};  // Same queue id twice.
  EXPECT_FALSE(KvCluster::Open(dup).ok());
}

}  // namespace
}  // namespace bandslim::cluster
