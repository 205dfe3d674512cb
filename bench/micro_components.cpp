// google-benchmark microbenchmarks for the hot components: command codec,
// skiplist MemTable, NAND page buffer packing, SSTable serialization, and
// the telemetry plane's per-sample and export costs.
// These measure *simulator* (wall-clock) performance, not modeled device
// time — they exist to keep the simulation itself fast.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "buffer/page_buffer.h"
#include "core/kvssd.h"
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

void BM_MemTableInsert(benchmark::State& state) {
  lsm::MemTable mem(1);
  workload::UniqueHashKeyGenerator keys(7);
  for (auto _ : state) {
    if (mem.entry_count() >= 100000) {
      state.PauseTiming();
      mem.Clear();
      state.ResumeTiming();
    }
    mem.Put(keys.Next(), lsm::ValueRef{1, 1, false});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemTableInsert);

void BM_MemTableLookup(benchmark::State& state) {
  lsm::MemTable mem(1);
  workload::UniqueHashKeyGenerator keys(7);
  std::vector<std::string> inserted;
  for (int i = 0; i < 100000; ++i) {
    inserted.push_back(keys.Next());
    mem.Put(inserted.back(), lsm::ValueRef{1, 1, false});
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
