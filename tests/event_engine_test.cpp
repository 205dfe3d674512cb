// EventEngine: the (time, sequence) ordering contract the multi-queue
// execution mode depends on — identical schedules must drain identically.
//
// This binary also replaces the global allocator with a counting wrapper,
// so it can prove the hot-path allocation contracts (DESIGN.md §2.6): a
// reserved engine schedules without touching the heap, steady-state
// PUT/GET against an assembled device performs zero allocations per op, and
// routed point and batch ops on a cluster allocate only what they return.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cluster/kv_cluster.h"
#include "common/types.h"
#include "core/kvssd.h"
#include "sim/event_engine.h"
#include "telemetry/fleet.h"

// --- Counting allocator ------------------------------------------------------
// Every operator-new in the process bumps g_heap_allocs. The strict
// zero-allocation assertions only run in optimized, sanitizer-free builds:
// debug STL and sanitizer runtimes allocate on paths release builds elide,
// and that is not what these tests measure.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BANDSLIM_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define BANDSLIM_TEST_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

#if defined(NDEBUG) && !defined(BANDSLIM_TEST_SANITIZED)
constexpr bool kStrictAllocChecks = true;
#else
constexpr bool kStrictAllocChecks = false;
#endif

// Allocations since construction.
class AllocCounter {
 public:
  AllocCounter() : start_(g_heap_allocs.load(std::memory_order_relaxed)) {}
  std::uint64_t delta() const {
    return g_heap_allocs.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::uint64_t start_;
};
}  // namespace

// Once these replacements inline, GCC pairs the free() in operator delete
// with the replaced operator new and raises -Wmismatched-new-delete; the
// pairing is in fact malloc/free (aligned_alloc/free for aligned forms).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// Every replaced operator new, throwing or nothrow (std::stable_sort's
// temporary buffer comes from the nothrow form), counts and allocates here,
// so every replaced operator delete can free with std::free.
namespace {
void* CountedAlloc(std::size_t size) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bandslim::sim {
namespace {

TEST(EventEngineTest, RunsEventsInTimeOrder) {
  VirtualClock clock;
  EventEngine engine(&clock);
  std::vector<int> order;
  engine.Schedule(300, [&] { order.push_back(3); });
  engine.Schedule(100, [&] { order.push_back(1); });
  engine.Schedule(200, [&] { order.push_back(2); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.events_run(), 3u);
  EXPECT_EQ(clock.Now(), 300u);
}

TEST(EventEngineTest, SequenceBreaksTiesInScheduleOrder) {
  VirtualClock clock;
  EventEngine engine(&clock);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    engine.Schedule(50, [&order, i] { order.push_back(i); });
  }
  engine.RunUntilIdle();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventEngineTest, SetsClockToEventTimeIncludingRewind) {
  VirtualClock clock;
  EventEngine engine(&clock);
  std::vector<Nanoseconds> seen;
  // A later-scheduled but earlier-timed event must rewind the clock into
  // its frame (this is how an idle stream catches up to a busy one).
  engine.Schedule(500, [&] { seen.push_back(clock.Now()); });
  engine.Schedule(100, [&] { seen.push_back(clock.Now()); });
  clock.SetTime(400);
  engine.RunUntilIdle();
  EXPECT_EQ(seen, (std::vector<Nanoseconds>{100, 500}));
}

TEST(EventEngineTest, CallbacksMayScheduleMoreEvents) {
  VirtualClock clock;
  EventEngine engine(&clock);
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 5) engine.Schedule(clock.Now() + 10, hop);
  };
  engine.Schedule(0, hop);
  engine.RunUntilIdle();
  EXPECT_EQ(hops, 5);
  EXPECT_EQ(clock.Now(), 40u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EventEngineTest, RunOneReportsPendingAndNextTime) {
  VirtualClock clock;
  EventEngine engine(&clock);
  EXPECT_FALSE(engine.RunOne());
  engine.Schedule(70, [] {});
  engine.Schedule(30, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_EQ(engine.NextEventTime(), 30u);
  EXPECT_TRUE(engine.RunOne());
  EXPECT_EQ(engine.NextEventTime(), 70u);
  EXPECT_TRUE(engine.RunOne());
  EXPECT_FALSE(engine.RunOne());
}

TEST(EventEngineTest, SameTimestampBatchDrainsInScheduleOrder) {
  VirtualClock clock;
  EventEngine engine(&clock);
  std::vector<int> order;
  // Three events at t=100. The first one schedules, mid-drain, a fourth at
  // t=100 — it must append to the live batch and run after the entries
  // already queued (its sequence number is larger) — and a fifth at t=40.
  // Strict global (time, seq) order demands the t=40 event *preempt* the
  // rest of the t=100 batch, rewinding the clock into its frame and back:
  // exactly what the pre-batching heap did, one pop at a time.
  engine.Schedule(100, [&] {
    order.push_back(0);
    engine.Schedule(100, [&] {
      order.push_back(3);
      EXPECT_EQ(clock.Now(), 100u);
    });
    engine.Schedule(40, [&] {
      order.push_back(4);
      EXPECT_EQ(clock.Now(), 40u);
    });
  });
  engine.Schedule(100, [&] {
    order.push_back(1);
    EXPECT_EQ(clock.Now(), 100u);
  });
  engine.Schedule(100, [&] { order.push_back(2); });
  engine.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 4, 1, 2, 3}));
  EXPECT_EQ(engine.events_run(), 5u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EventEngineTest, BatchAppendsChainAcrossGenerations) {
  VirtualClock clock;
  EventEngine engine(&clock);
  // Each same-time event schedules the next; the whole chain must drain in
  // one RunUntilIdle without losing order or leaking pending entries.
  int chained = 0;
  std::function<void()> link = [&] {
    if (++chained < 64) engine.Schedule(clock.Now(), link);
  };
  engine.Schedule(10, link);
  engine.RunUntilIdle();
  EXPECT_EQ(chained, 64);
  EXPECT_EQ(clock.Now(), 10u);
  EXPECT_EQ(engine.pending(), 0u);
}

#ifdef NDEBUG
TEST(EventEngineTest, NextEventTimeWhenIdleReturnsSentinel) {
  VirtualClock clock;
  EventEngine engine(&clock);
  // Release builds return the unreachable sentinel instead of reading a
  // nonexistent heap front (the pre-overhaul engine invoked UB here).
  EXPECT_EQ(engine.NextEventTime(), EventEngine::kNoEventTime);
  engine.Schedule(5, [] {});
  engine.RunUntilIdle();
  EXPECT_EQ(engine.NextEventTime(), EventEngine::kNoEventTime);
}
#else
TEST(EventEngineDeathTest, NextEventTimeWhenIdleAssertsInDebug) {
  VirtualClock clock;
  EventEngine engine(&clock);
  EXPECT_DEATH((void)engine.NextEventTime(), "");
}
#endif

TEST(EventEngineTest, ReservedEngineSchedulesWithoutAllocating) {
  VirtualClock clock;
  EventEngine engine(&clock);
  engine.Reserve(8);
  // One warm-up cycle settles anything grown lazily.
  for (int i = 0; i < 8; ++i) engine.Schedule(static_cast<Nanoseconds>(i), [] {});
  engine.RunUntilIdle();

  AllocCounter allocs;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 8; ++i) {
      engine.Schedule(clock.Now() + 1 + static_cast<Nanoseconds>(i), [] {});
    }
    engine.RunUntilIdle();
  }
  if (kStrictAllocChecks) {
    EXPECT_EQ(allocs.delta(), 0u)
        << "a reserved engine must not touch the heap in steady state";
  }
  EXPECT_EQ(engine.events_run(), 808u);
}

}  // namespace
}  // namespace bandslim::sim

namespace bandslim {
namespace {

// Steady-state hot-path contract over the fully assembled device: once every
// key exists and every pool/scratch has its working capacity, PUT
// (piggybacked write + trailing transfers) and GET (GetInto) perform zero
// heap allocations per op. Page flushes legitimately allocate (FTL mapping
// growth), so the PUT window is aligned to start just after a flush and is
// kept smaller than one NAND page.
TEST(SteadyStateAllocationTest, PutAndGetAllocateNothingAfterWarmup) {
  auto open = KvSsd::Open(KvSsdOptions{});
  ASSERT_TRUE(open.ok());
  std::unique_ptr<KvSsd> kv = std::move(open).value();

  // Keys stay within libstdc++'s small-string buffer: no per-op key allocs.
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) keys.push_back("k" + std::to_string(i));
  const Bytes value(128, 0xAB);
  const ByteSpan vspan(value.data(), value.size());
  Bytes got;
  got.reserve(4096);

  // Warm up: every key exists (subsequent PUTs are in-place overwrites) and
  // several vLog pages have been filled and flushed, so the buffer pool,
  // command scratches, and host-page free list all hold steady-state
  // capacity.
  for (int round = 0; round < 40; ++round) {
    for (const std::string& key : keys) ASSERT_TRUE(kv->Put(key, vspan).ok());
  }
  for (const std::string& key : keys) ASSERT_TRUE(kv->GetInto(key, &got).ok());

  // Align to a fresh vLog page: PUT until a flush fires, then measure a
  // window small enough (64 x 128 B = 8 KiB < 16 KiB) to not flush again.
  const std::uint64_t flushed = kv->GetStats().vlog_pages_flushed;
  for (int guard = 0; kv->GetStats().vlog_pages_flushed == flushed; ++guard) {
    ASSERT_TRUE(kv->Put(keys[0], vspan).ok());
    ASSERT_LT(guard, 1000) << "vLog flush never fired during alignment";
  }

  AllocCounter put_allocs;
  bool puts_ok = true;
  for (int i = 0; i < 64; ++i) {
    puts_ok = puts_ok && kv->Put(keys[i % keys.size()], vspan).ok();
  }
  const std::uint64_t put_delta = put_allocs.delta();
  ASSERT_TRUE(puts_ok);
  if (kStrictAllocChecks) {
    EXPECT_EQ(put_delta, 0u) << "steady-state PUT must not allocate";
  }

  // GETs against the buffer window (values just written).
  AllocCounter get_allocs;
  bool gets_ok = true;
  for (int i = 0; i < 64; ++i) {
    gets_ok = gets_ok && kv->GetInto(keys[i % keys.size()], &got).ok();
  }
  const std::uint64_t get_delta = get_allocs.delta();
  ASSERT_TRUE(gets_ok);
  if (kStrictAllocChecks) {
    EXPECT_EQ(get_delta, 0u) << "steady-state GET must not allocate";
  }
  EXPECT_EQ(got.size(), value.size());

  // GETs against flushed NAND pages (zero-copy ReadView path): drain the
  // buffer, warm the single-page read cache, then measure.
  ASSERT_TRUE(kv->Flush().ok());
  ASSERT_TRUE(kv->GetInto(keys[0], &got).ok());
  AllocCounter nand_allocs;
  gets_ok = true;
  for (int i = 0; i < 64; ++i) {
    gets_ok = gets_ok && kv->GetInto(keys[i % keys.size()], &got).ok();
  }
  const std::uint64_t nand_delta = nand_allocs.delta();
  ASSERT_TRUE(gets_ok);
  if (kStrictAllocChecks) {
    EXPECT_EQ(nand_delta, 0u) << "NAND-path GET must not allocate";
  }
  EXPECT_EQ(got, value);
}

// Observation-loop contract for the fleet plane: once one warm-up call has
// seeded the snapshot's vectors, counter maps, and alert strings, repeated
// KvCluster::InspectInto refills perform zero heap allocations — a sampling
// loop can inspect every interval for free. Same contract for the
// device-level InspectDeviceInto underneath it.
TEST(SteadyStateAllocationTest, ClusterInspectIntoAllocatesNothingAfterWarmup) {
  cluster::ClusterConfig cc;
  cc.num_shards = 2;
  cc.shard.geometry.channels = 2;
  cc.shard.geometry.ways = 2;
  cc.shard.geometry.blocks_per_die = 256;
  cc.shard.geometry.pages_per_block = 32;
  cc.shard.buffer.num_entries = 32;
  cc.shard.buffer.dlt_entries = 32;
  cc.fleet.enabled = true;
  cc.fleet.rules = {telemetry::ShardImbalanceRule(3000, 3),
                    telemetry::StragglerShardRule(4)};
  auto fleet = cluster::KvCluster::Open(cc).value();
  const Bytes value(96, 0xCD);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(fleet->Put("ins" + std::to_string(i),
                           ByteSpan(value.data(), value.size()))
                    .ok());
  }

  StoreSnapshot snap;
  fleet->InspectInto(&snap);  // Warm-up: seeds every buffer and string.
  AllocCounter allocs;
  for (int round = 0; round < 100; ++round) {
    fleet->InspectInto(&snap);
  }
  if (kStrictAllocChecks) {
    EXPECT_EQ(allocs.delta(), 0u)
        << "steady-state InspectInto must not touch the heap";
  }
  ASSERT_EQ(snap.num_shards(), 2u);
  EXPECT_GT(snap.stats.commands_submitted, 0u);
  EXPECT_EQ(snap.alerts.size(), 2u);
  EXPECT_EQ(snap.alerts[0].rule, "shard_imbalance");
  EXPECT_FALSE(snap.shards[0].counters.empty());
}

// The counter sees every allocation form: nothrow ones (std::stable_sort's
// temporary buffer) are counted and freed by the matching replaced delete.
TEST(AllocCounterTest, CountsNothrowAllocations) {
  AllocCounter direct;
  void* volatile plain = ::operator new(64, std::nothrow);
  ::operator delete(plain, std::nothrow);
  void* volatile aligned =
      ::operator new(64, std::align_val_t{64}, std::nothrow);
  ::operator delete(aligned, std::align_val_t{64}, std::nothrow);
  EXPECT_EQ(direct.delta(), 2u);

  std::vector<int> v(1024);
  for (int i = 0; i < 1024; ++i) v[i] = (i * 7919) % 1024;
  AllocCounter sort;
  std::stable_sort(v.begin(), v.end());
  EXPECT_GE(sort.delta(), 1u) << "stable_sort's buffer went uncounted";
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

// Routed-op contract (DESIGN.md §2.6): once a 4-shard cluster with a point
// tenant and a metered batch tenant is warm, the router reuses its scatter
// buckets, each driver its bulk and page scratch, and each controller its
// bulk key and lookup scratch. Routed Put, GetInto, Delete, PutBatch and
// DeleteBatch then allocate nothing, and GetBatch allocates only what it
// returns: the result vector and each found value. vLog page flushes
// legitimately allocate, so every shard starts the measured ops on a fresh
// page and writes far less than one page during them.
TEST(SteadyStateAllocationTest, RoutedOpsAllocateOnlyTheirResults) {
  cluster::ClusterConfig cc;
  cc.num_shards = 4;
  cc.shard.geometry.channels = 2;
  cc.shard.geometry.ways = 2;
  cc.shard.geometry.blocks_per_die = 256;
  cc.shard.geometry.pages_per_block = 32;
  cc.tenants.resize(2);
  cc.tenants[0].name = "point";
  cc.tenants[1].name = "batch";
  cc.tenants[1].queue_id = 1;
  cc.tenants[1].credits_per_window = 1024;  // Metered; never sheds here.
  auto fleet = cluster::KvCluster::Open(cc).value();
  KvStore& point = fleet->Tenant(0);
  KvStore& batch = fleet->Tenant(1);

  // Keys stay within libstdc++'s small-string buffer; groups of 8 span
  // several shards.
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) keys.emplace_back("r").append(std::to_string(i));
  const Bytes value(64, 0xEF);
  const ByteSpan vspan(value.data(), value.size());
  std::vector<std::vector<KvStore::KvPair>> pairs(4);
  std::vector<std::vector<std::string>> names(4);
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t j = 0; j < 8; ++j) {
      pairs[g].push_back({keys[8 * g + j], value});
      names[g].push_back(keys[8 * g + j]);
    }
  }
  Bytes got;
  got.reserve(4096);

  // Warm-up: every key exists on its shard, and every op kind has run on
  // every shard through both tenants' drivers.
  for (int round = 0; round < 8; ++round) {
    for (const std::string& key : keys) ASSERT_TRUE(point.Put(key, vspan).ok());
    for (std::size_t g = 0; g < 4; ++g) {
      ASSERT_TRUE(batch.PutBatch(pairs[g]).ok());
      ASSERT_TRUE(batch.GetBatch(names[g]).ok());
      ASSERT_TRUE(batch.DeleteBatch(names[g]).ok());
      ASSERT_TRUE(batch.PutBatch(pairs[g]).ok());
    }
    for (const std::string& key : keys) {
      ASSERT_TRUE(point.GetInto(key, &got).ok());
      ASSERT_TRUE(point.Delete(key).ok());
      ASSERT_TRUE(point.Put(key, vspan).ok());
    }
  }
  // Align every shard to a fresh vLog page.
  std::vector<std::uint64_t> flushed(fleet->num_shards());
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
    KvSsd& shard = fleet->shard(s);
    const std::uint64_t before = shard.GetStats().vlog_pages_flushed;
    for (int guard = 0; shard.GetStats().vlog_pages_flushed == before;
         ++guard) {
      ASSERT_TRUE(shard.Put("align", vspan).ok());
      ASSERT_LT(guard, 1000) << "vLog flush never fired on shard " << s;
    }
    flushed[s] = shard.GetStats().vlog_pages_flushed;
  }

  // Each measured step writes at most 2 KiB across the fleet.
  const auto measure = [&](const char* what, auto&& body) {
    AllocCounter allocs;
    body();
    const std::uint64_t delta = allocs.delta();
    if (kStrictAllocChecks) {
      EXPECT_EQ(delta, 0u) << "steady-state routed " << what
                           << " must not allocate";
    }
  };
  measure("Put", [&] {
    for (int i = 0; i < 16; ++i) EXPECT_TRUE(point.Put(keys[i], vspan).ok());
  });
  measure("GetInto", [&] {
    for (int i = 0; i < 16; ++i) EXPECT_TRUE(point.GetInto(keys[i], &got).ok());
  });
  measure("Delete", [&] {
    for (int i = 0; i < 8; ++i) EXPECT_TRUE(point.Delete(keys[i]).ok());
  });
  measure("PutBatch", [&] {
    for (std::size_t g = 0; g < 2; ++g) {
      EXPECT_TRUE(batch.PutBatch(pairs[g]).ok());
    }
  });
  measure("DeleteBatch", [&] {
    auto removed = batch.DeleteBatch(names[3]);
    ASSERT_TRUE(removed.ok());
    EXPECT_EQ(removed.value(), 8u);
  });
  for (std::size_t g = 0; g < 4; ++g) {
    AllocCounter allocs;
    auto res = batch.GetBatch(names[g]);
    const std::uint64_t delta = allocs.delta();
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.value().size(), 8u);
    std::uint64_t found = 0;
    for (const auto& r : res.value()) found += r.found ? 1 : 0;
    EXPECT_EQ(found, g == 3 ? 0u : 8u);  // Group 3 was just deleted.
    if (kStrictAllocChecks) {
      EXPECT_LE(delta, 1 + found)
          << "GetBatch may allocate only its result vector and found values";
    }
  }
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s) {
    EXPECT_EQ(fleet->shard(s).GetStats().vlog_pages_flushed, flushed[s])
        << "a page flush inside the measured ops would allocate";
  }
}

}  // namespace
}  // namespace bandslim
