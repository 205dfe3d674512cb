// google-benchmark microbenchmarks for the hot components: command codec,
// the MemTable (a flush-sized fill with its key-order walk, and point
// lookups), NAND page buffer packing, SSTable serialization, the
// compaction merge, the LSM point lookup, and the telemetry plane's
// per-sample and export costs.
// These measure *simulator* (wall-clock) performance, not modeled device
// time — they exist to keep the simulation itself fast.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buffer/page_buffer.h"
#include "core/kvssd.h"
#include "lsm/compaction.h"
#include "lsm/lsm_tree.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"
#include "nvme/command.h"
#include "telemetry/telemetry.h"
#include "workload/key_gen.h"
#include "workload/value_gen.h"

namespace bandslim {
namespace {

void BM_CommandPiggybackEncode(benchmark::State& state) {
  Bytes payload = workload::MakeValue(35, 1, 1);
  for (auto _ : state) {
    nvme::NvmeCommand cmd;
    benchmark::DoNotOptimize(
        nvme::codec::SetWritePiggyback(cmd, ByteSpan(payload)));
    benchmark::DoNotOptimize(cmd);
  }
}
BENCHMARK(BM_CommandPiggybackEncode);

void BM_CommandPiggybackDecode(benchmark::State& state) {
  nvme::NvmeCommand cmd;
  Bytes payload = workload::MakeValue(35, 1, 1);
  nvme::codec::SetWritePiggyback(cmd, ByteSpan(payload));
  Bytes out(35);
  for (auto _ : state) {
    nvme::codec::GetWritePiggyback(cmd, MutByteSpan(out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CommandPiggybackDecode);

// Keys as the device LSM holds them, generated up front so the loops
// time the MemTable, not the key generator.
std::vector<lsm::InlineKey> HashKeys(std::uint32_t seed, std::size_t n) {
  workload::UniqueHashKeyGenerator gen(seed);
  std::vector<lsm::InlineKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.emplace_back(gen.Next());
  return keys;
}

// One MemTable fill as a flush sees it: 4-byte keys put until the table
// reaches the default 1 MiB limit (~10k keys, as on paper workload M), the
// key-order walk the flush makes (which pays the sort), then Clear().
void BM_MemTableInsert(benchmark::State& state) {
  const std::size_t limit = lsm::LsmConfig{}.memtable_limit_bytes;
  lsm::MemTable mem(1);
  const std::vector<lsm::InlineKey> keys = HashKeys(7, 20000);
  std::uint64_t entries = 0;
  for (auto _ : state) {
    std::size_t i = 0;
    while (mem.approximate_bytes() < limit && i < keys.size()) {
      mem.Put(keys[i], lsm::ValueRef{i, 24, false});
      ++i;
    }
    std::uint64_t sum = 0;
    for (auto it = mem.Begin(); it.Valid(); it.Next()) sum += it.ref().addr;
    benchmark::DoNotOptimize(sum);
    entries += mem.entry_count();
    mem.Clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_MemTableInsert)->Unit(benchmark::kMicrosecond);

void BM_MemTableLookup(benchmark::State& state) {
  lsm::MemTable mem(1);
  const std::vector<lsm::InlineKey> inserted = HashKeys(7, 100000);
  for (const lsm::InlineKey& key : inserted) {
    mem.Put(key, lsm::ValueRef{1, 1, false});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Get(inserted[i++ % inserted.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemTableLookup);

void BM_BufferPackPiggybacked(benchmark::State& state) {
  sim::VirtualClock clock;
  sim::CostModel cost;
  stats::MetricsRegistry metrics;
  buffer::BufferConfig config;
  config.policy = buffer::PackingPolicy::kAll;
  buffer::NandPageBuffer buf(
      config, &clock, &cost, &metrics,
      [](std::uint64_t, ByteSpan, std::uint32_t) { return Status::Ok(); });
  Bytes value = workload::MakeValue(static_cast<std::size_t>(state.range(0)), 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.PackPiggybacked(ByteSpan(value)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BufferPackPiggybacked)->Arg(32)->Arg(512)->Arg(4096);

void BM_SSTableEncodeDecode(benchmark::State& state) {
  std::vector<lsm::SSTableEntry> entries;
  workload::UniqueHashKeyGenerator keys(3);
  for (int i = 0; i < 1000; ++i) {
    entries.push_back({keys.Next(), {static_cast<std::uint64_t>(i), 8, false}});
  }
  for (auto _ : state) {
    Bytes stream;
    for (const auto& e : entries) lsm::EncodeEntry(&stream, e);
    std::size_t offset = 0;
    lsm::SSTableEntry out;
    for (int i = 0; i < 1000; ++i) {
      if (!lsm::DecodeEntry(ByteSpan(stream), &offset, &out).ok()) {
        state.SkipWithError("decode failed");
        break;
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SSTableEncodeDecode);

// One L0 -> L1 compaction's host cost, in the 8-table shape of paper
// workload M: four overlapping L0 runs of ~10k 4-byte keys (a 1 MiB
// MemTable flush each), newest first, over four disjoint L1 tables of
// ~56k keys (1 MiB each) that share one age and so merge as one chained
// input; the output is cut into 1 MiB tables through TableWriter over an
// in-memory NAND/FTL. The device is rebuilt untimed for every merge so the
// FTL never fills.
void BM_CompactionMerge(benchmark::State& state) {
  constexpr int kL0Runs = 4;
  constexpr int kL1Tables = 4;
  constexpr std::uint32_t kKeySpace = 1 << 18;
  constexpr std::uint64_t kTableBytes = 1 << 20;
  Xoshiro256 rng(17);
  const auto entry = [&](std::uint32_t k) {
    const std::uint32_t be = __builtin_bswap32(k);
    return lsm::SSTableEntry{std::string(reinterpret_cast<const char*>(&be), 4),
                             lsm::ValueRef{rng() >> 24, 24, false}};
  };
  std::vector<lsm::MergeInput> inputs(kL0Runs + 1);
  for (int r = 0; r < kL0Runs; ++r) {
    // One key in 26 of the key space: the runs overlap each other a little
    // and L1 a lot.
    std::vector<lsm::SSTableEntry> run;
    for (std::uint32_t k = 0; k < kKeySpace; ++k) {
      if (rng.Below(26) == 0) run.push_back(entry(k));
    }
    inputs[r].runs.push_back(
        std::make_shared<const std::vector<lsm::SSTableEntry>>(std::move(run)));
  }
  for (int t = 0; t < kL1Tables; ++t) {
    // Seven keys in eight of one quarter of the key space.
    std::vector<lsm::SSTableEntry> table;
    for (std::uint32_t k = t * (kKeySpace / kL1Tables);
         k < (t + 1) * (kKeySpace / kL1Tables); ++k) {
      if (rng.Below(8) != 0) table.push_back(entry(k));
    }
    inputs.back().runs.push_back(
        std::make_shared<const std::vector<lsm::SSTableEntry>>(
            std::move(table)));
  }
  nand::NandGeometry geometry;
  geometry.channels = 2;
  geometry.ways = 2;
  geometry.blocks_per_die = 64;
  geometry.pages_per_block = 64;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::VirtualClock clock;
    sim::CostModel cost;
    stats::MetricsRegistry metrics;
    auto nand = std::make_unique<nand::NandFlash>(geometry, &clock, &cost, &metrics);
    auto ftl = std::make_unique<ftl::PageFtl>(nand.get(), &metrics);
    state.ResumeTiming();
    std::optional<lsm::TableWriter> out;
    std::uint64_t id = 1;
    std::uint64_t lpn = 0;
    auto finish = [&] {
      auto meta = out->Finish();
      if (!meta.ok()) return meta.status();
      lpn += meta.value().page_count;
      out.reset();
      return Status::Ok();
    };
    Status st = lsm::MergeRuns(
        inputs, /*drop_tombstones=*/false, [&](const lsm::SSTableEntry& e) {
          if (out && out->encoded_bytes() + lsm::EncodedEntrySize(e) >
                         kTableBytes) {
            BANDSLIM_RETURN_IF_ERROR(finish());
          }
          if (!out) out.emplace(ftl.get(), id++, lpn);
          ++entries;
          return out->Add(e);
        });
    if (st.ok() && out) st = finish();
    if (!st.ok()) {
      state.SkipWithError("merge failed");
      break;
    }
    benchmark::DoNotOptimize(lpn);
    state.PauseTiming();
    ftl.reset();
    nand.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}
BENCHMARK(BM_CompactionMerge)->Unit(benchmark::kMillisecond);

// One LsmTree::Get on a preloaded tree over an in-memory NAND/FTL, for each
// outcome of a point read: arg 0 hits the MemTable, arg 1 hits a
// DRAM-resident table (the tree's tables were written by this run, so all
// are resident), arg 2 is an absent key (every table's index misses and
// its filter runs).
void BM_LsmPointGet(benchmark::State& state) {
  constexpr std::size_t kTableKeys = 100000;
  constexpr std::size_t kMemKeys = 4000;
  sim::VirtualClock clock;
  sim::CostModel cost;
  stats::MetricsRegistry metrics;
  nand::NandGeometry geometry;
  geometry.channels = 2;
  geometry.ways = 2;
  geometry.blocks_per_die = 64;
  geometry.pages_per_block = 64;
  nand::NandFlash nand(geometry, &clock, &cost, &metrics);
  ftl::PageFtl ftl(&nand, &metrics);
  lsm::LsmTree tree(&ftl, &metrics);
  const std::vector<lsm::InlineKey> keys =
      HashKeys(11, 2 * (kTableKeys + kMemKeys));
  auto put = [&](std::size_t i) {
    return tree.Put(keys[i].view(), lsm::ValueRef{i, 24, false}).ok();
  };
  bool ok = true;
  for (std::size_t i = 0; i < kTableKeys; ++i) ok = ok && put(i);
  ok = ok && tree.FlushMemTable().ok();
  for (std::size_t i = kTableKeys; i < kTableKeys + kMemKeys; ++i) {
    ok = ok && put(i);
  }
  if (!ok || tree.memtable_entries() != kMemKeys) {
    state.SkipWithError("preload failed");
    return;
  }
  static constexpr const char* kLabels[] = {"memtable", "table", "absent"};
  const auto outcome = static_cast<std::size_t>(state.range(0));
  state.SetLabel(kLabels[outcome]);
  // The probed keys: the MemTable's, the tables' or ones never put.
  const std::size_t first = outcome == 0   ? kTableKeys
                            : outcome == 1 ? 0
                                           : kTableKeys + kMemKeys;
  const std::size_t count = outcome == 0 ? kMemKeys : kTableKeys;
  const bool expect_found = outcome != 2;
  std::size_t i = 0;
  for (auto _ : state) {
    auto ref = tree.Get(keys[first + i].view());
    if (ref.ok() != expect_found) {
      state.SkipWithError("lookup returned the wrong outcome");
      break;
    }
    benchmark::DoNotOptimize(ref);
    if (++i == count) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LsmPointGet)->Arg(0)->Arg(1)->Arg(2);

void BM_KeyGeneration(benchmark::State& state) {
  workload::UniqueHashKeyGenerator gen(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_KeyGeneration);

void BM_MixgraphSample(benchmark::State& state) {
  Xoshiro256 rng(5);
  workload::MixgraphSizes dist;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.Next(rng));
  }
}
BENCHMARK(BM_MixgraphSample);

// A traced shard as the device sampler sees it: a KvSsd with 4 queues,
// telemetry on and every op traced, warmed until its histograms record.
struct TracedShard {
  TracedShard() {
    KvSsdOptions options;
    options.num_queues = 4;
    options.trace.enabled = true;
    options.telemetry.enabled = true;
    ssd = KvSsd::Open(options).value();
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "key" + std::to_string(i % 500);
      const Bytes value = workload::MakeValue(24 + i % 64, i, 1);
      ok = ok && ssd->Put(key, ByteSpan(value)).ok() && ssd->Get(key).ok();
    }
    hooks = ssd->Hooks();
    // What a busy interval moves: some counters and op histograms.
    for (const auto& [name, h] : hooks.metrics->SnapshotHistograms()) {
      if (h.count == 0) continue;
      ++recording_hists;
      if (moving_hists.size() < 4) {
        moving_hists.push_back(hooks.metrics->GetHistogram(name));
      }
    }
    for (const auto& [name, c] : hooks.metrics->SnapshotCounters()) {
      if (moving_counters.size() < 20) {
        moving_counters.push_back(hooks.metrics->GetCounter(name));
      }
    }
  }

  std::unique_ptr<KvSsd> ssd;
  KvSsd::TestHooks hooks;
  bool ok = true;
  std::size_t recording_hists = 0;
  std::vector<stats::Counter*> moving_counters;
  std::vector<stats::Histogram*> moving_hists;
};

// One device-sampler sample of a traced shard (37 registry counters, 15
// recording histograms, 4 queues, the NAND/FTL/LSM gauges: ~250 series).
// Each iteration moves a few counters and histograms, as a busy 1 ms
// interval does, then takes one sample. The shard is rebuilt (untimed)
// every kRing samples to bound the sample ring.
void BM_DeviceSamplerSample(benchmark::State& state) {
  constexpr std::uint64_t kRing = 4096;
  std::unique_ptr<TracedShard> shard;
  std::uint64_t value = 1;
  for (auto _ : state) {
    if (shard == nullptr || shard->hooks.sampler->samples_emitted() >= kRing) {
      state.PauseTiming();
      shard = std::make_unique<TracedShard>();
      state.ResumeTiming();
      if (!shard->ok) {
        state.SkipWithError("warm-up op failed");
        return;
      }
    }
    for (stats::Counter* c : shard->moving_counters) c->Add(value % 7 + 1);
    for (stats::Histogram* h : shard->moving_hists) {
      h->Record(value % 5000 + 100);
    }
    ++value;
    shard->hooks.clock->Advance(sim::kMillisecond);
    shard->hooks.sampler->Poll();
    benchmark::DoNotOptimize(shard->hooks.sampler->samples().back());
  }
  const telemetry::Sampler& sampler = *shard->hooks.sampler;
  state.counters["counters"] =
      static_cast<double>(shard->hooks.metrics->SnapshotCounters().size());
  state.counters["histograms"] =
      static_cast<double>(shard->recording_hists);
  state.counters["series"] = static_cast<double>(sampler.series().size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DeviceSamplerSample);

// Rendering a 1k-sample, 250-series timeline to JSONL: a sampler over a
// registry of 230 counters (plus its 20 derived delta/rate series) whose
// values move by varying amounts, so the digits vary like a real run's.
void BM_TimelineJsonl(benchmark::State& state) {
  stats::MetricsRegistry metrics;
  std::vector<stats::Counter*> counters;
  for (int i = 0; i < 230; ++i) {
    counters.push_back(
        metrics.GetCounter("bench.series" + std::to_string(i) + ".bytes"));
  }
  sim::VirtualClock clock;
  telemetry::TimelineConfig config;
  config.enabled = true;
  telemetry::Sampler sampler(&clock, config);
  telemetry::Sampler::Sources sources;
  sources.metrics = &metrics;
  sampler.Bind(sources);
  for (std::uint64_t s = 0; s < 1000; ++s) {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      counters[i]->Add((i * 7919 + s * 104729) % (1 + i * i * 37));
    }
    clock.Advance(config.sample_interval_ns);
    sampler.Poll();
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string jsonl = sampler.ToJsonl();
    bytes = jsonl.size();
    benchmark::DoNotOptimize(jsonl.data());
    benchmark::ClobberMemory();
  }
  state.counters["series"] = static_cast<double>(sampler.series().size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_TimelineJsonl);

}  // namespace
}  // namespace bandslim

BENCHMARK_MAIN();
