// Seeded op streams, value stamping, and the outcome helpers every workload
// shares.
#include <cstring>

#include "common/random.h"
#include "workload.h"
#include "workload/key_gen.h"
#include "workload/value_gen.h"

namespace perfbench {

using bandslim::ByteSpan;
using bandslim::MutByteSpan;
using bandslim::SplitMix64;
using bandslim::Xoshiro256;

namespace {

// Sizing. Each repetition runs the whole stream, so these set the work per
// repetition (see perfbench/README.md for how they were chosen).
constexpr std::uint32_t kFillOps = 500000;
constexpr std::uint32_t kReadKeys = 262144;  // x 128 B = 32 MiB of values.
constexpr std::uint32_t kReadValue = 128;
constexpr std::uint32_t kReadOps = 600000;
constexpr std::uint32_t kFrontendKeys = 16384;  // x 64 B = 1 MiB in total.
constexpr std::uint32_t kFrontendValue = 64;
constexpr std::uint32_t kBatchKeys = 4096;
constexpr std::uint32_t kBatchValue = 128;
constexpr std::uint16_t kBatchLen = 8;
constexpr std::uint32_t kBlendOps = 48000;
constexpr std::uint32_t kReadbackKeys = 4096;

std::vector<std::string> UniqueKeys(std::uint64_t seed, std::uint32_t n) {
  bandslim::workload::UniqueHashKeyGenerator gen(
      static_cast<std::uint32_t>(SplitMix64(seed)));
  std::vector<std::string> keys(n);
  for (auto& k : keys) k = gen.Next();
  return keys;
}

// Up to kReadbackKeys key indices spread evenly over [0, n) from a
// seed-chosen offset.
std::vector<std::uint32_t> ReadbackSample(std::uint64_t seed, std::uint32_t n) {
  const std::uint32_t count = std::min(n, kReadbackKeys);
  const std::uint32_t stride = n / count;
  const std::uint32_t offset =
      static_cast<std::uint32_t>(SplitMix64(seed ^ 0xbac4) % stride);
  std::vector<std::uint32_t> keys(count);
  for (std::uint32_t i = 0; i < count; ++i) keys[i] = offset + i * stride;
  return keys;
}

}  // namespace

Stream MakeFillStream(std::uint64_t seed) {
  Stream s;
  s.keys = UniqueKeys(seed, kFillOps);
  bandslim::workload::MixgraphSizes sizes;
  Xoshiro256 rng(seed);
  s.ops.resize(kFillOps);
  for (std::uint32_t i = 0; i < kFillOps; ++i) {
    s.ops[i] = Op{OpKind::kPut, 0, 0, i,
                  static_cast<std::uint32_t>(sizes.Next(rng))};
    s.max_value_size = std::max(s.max_value_size, s.ops[i].value_size);
  }
  s.readback = ReadbackSample(seed, kFillOps);
  return s;
}

Stream MakeReadStream(std::uint64_t seed) {
  Stream s;
  s.keys = UniqueKeys(seed, kReadKeys);
  s.preload_sizes.assign(kReadKeys, kReadValue);
  Xoshiro256 rng(seed);
  bandslim::workload::ZipfianKeyChooser zipf(kReadKeys, 0.99, seed + 1);
  s.ops.resize(kReadOps);
  for (auto& op : s.ops) {
    const bool put = rng() % 10 == 0;  // 90% GET / 10% PUT.
    op = Op{put ? OpKind::kPut : OpKind::kGet, 0, 0,
            static_cast<std::uint32_t>(zipf.NextIndex()), kReadValue};
  }
  s.max_value_size = kReadValue;
  s.readback = ReadbackSample(seed, kReadKeys);
  return s;
}

Stream MakeBlendStream(std::uint64_t seed) {
  Stream s;
  // Frontend keys are [0, kFrontendKeys); the batch tenant owns the rest.
  s.keys = UniqueKeys(seed, kFrontendKeys + kBatchKeys);
  s.preload_sizes.assign(kFrontendKeys, kFrontendValue);
  s.preload_sizes.resize(kFrontendKeys + kBatchKeys, kBatchValue);
  Xoshiro256 rng(seed);
  bandslim::workload::ZipfianKeyChooser zipf(kFrontendKeys, 0.99, seed + 1);
  s.ops.resize(kBlendOps);
  for (auto& op : s.ops) {
    if (rng() % 8 == 0) {
      // Batch tenant: 8 consecutive key indices, which hash to every shard.
      const std::uint32_t start = static_cast<std::uint32_t>(rng() % kBatchKeys);
      op = Op{(rng() & 1) != 0 ? OpKind::kPutBatch : OpKind::kGetBatch, 1,
              kBatchLen, static_cast<std::uint32_t>(s.batch_keys.size()),
              kBatchValue};
      for (std::uint32_t j = 0; j < kBatchLen; ++j) {
        s.batch_keys.push_back(kFrontendKeys + (start + j) % kBatchKeys);
      }
    } else {
      const bool put = rng() % 4 == 0;  // Frontend: 75% GET / 25% PUT.
      op = Op{put ? OpKind::kPut : OpKind::kGet, 0, 0,
              static_cast<std::uint32_t>(zipf.NextIndex()), kFrontendValue};
    }
  }
  s.max_value_size = kBatchValue;
  s.readback = ReadbackSample(seed, kFrontendKeys + kBatchKeys);
  return s;
}

void FillValue(MutByteSpan out, std::uint64_t stamp) {
  std::uint8_t* p = out.data();
  std::size_t left = out.size();
  for (std::uint64_t word = SplitMix64(stamp); left > 0;
       word += 0x9e3779b97f4a7c15ULL) {
    const std::size_t n = std::min<std::size_t>(left, 8);
    std::memcpy(p, &word, n);
    p += n;
    left -= n;
  }
}

bool StampMatches(ByteSpan got, const LiveBytesModel::Entry& want) {
  if (got.size() != want.value_size) return false;
  const std::uint64_t head = SplitMix64(want.stamp);
  const std::size_t n = std::min<std::size_t>(got.size(), 8);
  return std::memcmp(got.data(), &head, n) == 0;
}

bool ValueMatches(ByteSpan got, const LiveBytesModel::Entry& want) {
  if (got.size() != want.value_size) return false;
  bandslim::Bytes expect(want.value_size);
  FillValue(MutByteSpan(expect), want.stamp);
  return std::memcmp(got.data(), expect.data(), expect.size()) == 0;
}

const char* const kVtStageNames[kNumVtStages] = {
    "vt.submission_ns", "vt.kvs_ns",         "vt.dma_ns",
    "vt.buffer_copy_ns", "vt.vlog_flush_ns", "vt.vlog_read_ns",
    "vt.ftl_gc_ns",     "vt.nand_program_ns", "vt.nand_read_ns",
    "vt.other_ns",
};

std::int64_t DrainTracer(bandslim::trace::Tracer* tracer,
                         std::array<double, kNumVtStages>* ns) {
  using bandslim::trace::Category;
  static constexpr Category kListed[kVtOther] = {
      Category::kSubmission, Category::kKvs,      Category::kDma,
      Category::kBufferCopy, Category::kVlogFlush, Category::kVlogRead,
      Category::kFtlGc,      Category::kNandProgram, Category::kNandRead,
  };
  if (tracer->dropped_ops() != 0) return -1;
  const std::int64_t folded = static_cast<std::int64_t>(tracer->ops().size());
  for (const bandslim::trace::OpRecord& op : tracer->ops()) {
    std::uint64_t listed = 0;
    for (int i = 0; i < kVtOther; ++i) {
      const std::uint64_t v = op.stages.ns[static_cast<int>(kListed[i])];
      (*ns)[i] += static_cast<double>(v);
      listed += v;
    }
    const std::uint64_t window =
        static_cast<std::uint64_t>(op.end_ns - op.start_ns);
    (*ns)[kVtOther] += static_cast<double>(window - listed);
  }
  tracer->Clear();
  return folded;
}

std::uint64_t ModelDigest(const RepOutcome& r) {
  std::uint64_t h = 0x6a09e667f3bcc909ULL;
  auto mix = [&h](std::uint64_t v) { h = SplitMix64(h ^ v); };
  const bandslim::KvSsdStats& d = r.delta;
  for (const std::uint64_t v :
       {d.commands_submitted, d.pcie_h2d_bytes, d.pcie_d2h_bytes,
        d.mmio_bytes, d.dma_h2d_bytes, d.nand_pages_programmed,
        d.nand_pages_read, d.nand_blocks_erased, d.vlog_pages_flushed,
        d.lsm_pages_programmed, d.gc_pages_programmed,
        d.device_memcpy_bytes, d.buffer_wasted_bytes,
        d.dlt_forced_evictions, d.values_written, d.value_bytes_written,
        d.lsm_compactions, d.memtable_flushes}) {
    mix(v);
  }
  mix(static_cast<std::uint64_t>(r.elapsed_ns));
  mix(r.ops);
  mix(r.failed);
  mix(r.value_bytes);
  mix(r.live_bytes);
  mix(r.mapped_pages);
  mix(r.cross_shard_batches);
  mix(r.batch_subops);
  mix(r.qos_refill_windows);
  for (const std::uint64_t v : r.lat_ns) mix(v);
  return h;
}

bandslim::KvSsdStats StatsDelta(const bandslim::KvSsdStats& after,
                                const bandslim::KvSsdStats& before) {
  bandslim::KvSsdStats d;
  d.elapsed_ns = after.elapsed_ns - before.elapsed_ns;
  d.commands_submitted = after.commands_submitted - before.commands_submitted;
  d.pcie_h2d_bytes = after.pcie_h2d_bytes - before.pcie_h2d_bytes;
  d.pcie_d2h_bytes = after.pcie_d2h_bytes - before.pcie_d2h_bytes;
  d.mmio_bytes = after.mmio_bytes - before.mmio_bytes;
  d.dma_h2d_bytes = after.dma_h2d_bytes - before.dma_h2d_bytes;
  d.nand_pages_programmed =
      after.nand_pages_programmed - before.nand_pages_programmed;
  d.nand_pages_read = after.nand_pages_read - before.nand_pages_read;
  d.nand_blocks_erased = after.nand_blocks_erased - before.nand_blocks_erased;
  d.vlog_pages_flushed = after.vlog_pages_flushed - before.vlog_pages_flushed;
  d.lsm_pages_programmed =
      after.lsm_pages_programmed - before.lsm_pages_programmed;
  d.gc_pages_programmed = after.gc_pages_programmed - before.gc_pages_programmed;
  d.device_memcpy_bytes = after.device_memcpy_bytes - before.device_memcpy_bytes;
  d.buffer_wasted_bytes = after.buffer_wasted_bytes - before.buffer_wasted_bytes;
  d.dlt_forced_evictions =
      after.dlt_forced_evictions - before.dlt_forced_evictions;
  d.values_written = after.values_written - before.values_written;
  d.value_bytes_written = after.value_bytes_written - before.value_bytes_written;
  d.lsm_compactions = after.lsm_compactions - before.lsm_compactions;
  d.memtable_flushes = after.memtable_flushes - before.memtable_flushes;
  return d;
}

void ReadBack(bandslim::KvStore& store, const Stream& stream,
              const LiveBytesModel& model, RepOutcome* out) {
  bandslim::Bytes got;
  for (const std::uint32_t k : stream.readback) {
    ++out->attempted;
    const bandslim::Status st = store.GetInto(stream.keys[k], &got);
    const LiveBytesModel::Entry* want = model.Find(k);
    if (want == nullptr) {
      if (st.code() != bandslim::StatusCode::kNotFound) {
        out->Fail("read-back of an unwritten key: " + st.ToString());
      }
    } else if (!st.ok()) {
      out->Fail("read-back: " + st.ToString());
    } else if (!ValueMatches(bandslim::ByteSpan(got), *want)) {
      out->Fail("read-back value mismatch");
    }
  }
}

bandslim::KvSsdOptions BenchDeviceOptions() {
  bandslim::KvSsdOptions o;
  o.geometry.channels = 4;
  o.geometry.ways = 8;
  o.geometry.blocks_per_die = 512;
  o.geometry.pages_per_block = 256;
  o.retain_payloads = true;
  return o;
}

}  // namespace perfbench
