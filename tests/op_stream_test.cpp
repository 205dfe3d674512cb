// The workload layer's contracts: one op stream gives the same answers on
// every topology, the executors report failures with a status and count
// only completed ops, trace files replay byte-for-byte, and StatsDelta
// covers every counter — fault counters included.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "blockdev/block_ssd.h"
#include "cluster/kv_cluster.h"
#include "common/random.h"
#include "core/kvssd.h"
#include "hostkvs/host_kvs.h"
#include "workload/op_stream.h"
#include "workload/runner.h"
#include "workload/trace.h"
#include "workload/workloads.h"

namespace bandslim::workload {
namespace {

KvSsdOptions SmallOptions() {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 2;
  o.geometry.blocks_per_die = 256;
  o.geometry.pages_per_block = 32;
  o.buffer.num_entries = 16;
  o.buffer.dlt_entries = 16;
  o.lsm.memtable_limit_bytes = 8 * 1024;
  o.retain_payloads = true;
  return o;
}

void ExpectSameCounters(const KvSsdStats& a, const KvSsdStats& b) {
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  for (const auto counter : kStatsCounters) {
    EXPECT_EQ(a.*counter, b.*counter);
  }
}

// Forwards every call to `inner` and logs each GET's outcome, so a test can
// see what the executor read without the executor exposing it.
class RecordingStore : public KvStore {
 public:
  explicit RecordingStore(KvStore& inner) : inner_(inner) {}

  using KvStore::Put;
  using KvStore::PutBatch;
  Status Put(std::string_view key, ByteSpan value) override {
    return inner_.Put(key, value);
  }
  Status GetInto(std::string_view key, Bytes* value) override {
    const Status st = inner_.GetInto(key, value);
    gets.push_back(st.ok() ? std::optional<Bytes>(*value) : std::nullopt);
    return st;
  }
  Status Delete(std::string_view key) override { return inner_.Delete(key); }
  Status PutBatch(std::span<const KvPair> batch) override {
    return inner_.PutBatch(batch);
  }
  Result<std::vector<BatchGetResult>> GetBatch(
      std::span<const std::string> keys) override {
    return inner_.GetBatch(keys);
  }
  Result<std::uint32_t> DeleteBatch(
      std::span<const std::string> keys) override {
    return inner_.DeleteBatch(keys);
  }
  Status Flush() override { return inner_.Flush(); }
  void InspectInto(StoreSnapshot* out) const override {
    inner_.InspectInto(out);
  }
  KvSsdStats GetStats() const override { return inner_.GetStats(); }
  sim::Nanoseconds Now() const override { return inner_.Now(); }

  std::vector<std::optional<Bytes>> gets;  // nullopt = not found.

 private:
  KvStore& inner_;
};

// Op's payload rule, restated independently of the executors' buffer.
Bytes PayloadOf(const Op& op) {
  Bytes value(op.value_size, op.fill);
  for (std::size_t b = 0; b < 8 && b < value.size(); ++b) {
    value[b] = static_cast<std::uint8_t>(op.stamp >> (8 * b));
  }
  return value;
}

// Seeded puts, gets and deletes over a small key space: keys repeat, so
// GETs hit overwritten, deleted and never-written keys alike.
OpStream ChurnStream() {
  OpStream stream;
  Xoshiro256 rng(41);
  for (std::uint64_t i = 0; i < 600; ++i) {
    const std::uint64_t draw = rng() % 100;
    const OpKind kind = draw < 50   ? OpKind::kPut
                        : draw < 85 ? OpKind::kGet
                                    : OpKind::kDelete;
    stream.push_back({kind, MixedKeyName(rng() % 48),
                      static_cast<std::uint32_t>(1 + rng() % 3000), i});
  }
  return stream;
}

// The reference model: what each GET of `stream` must return.
std::vector<std::optional<Bytes>> ModelGets(const OpStream& stream) {
  std::map<std::string, Bytes> live;
  std::vector<std::optional<Bytes>> gets;
  for (const Op& op : stream) {
    if (op.kind == OpKind::kPut) live[op.key] = PayloadOf(op);
    if (op.kind == OpKind::kDelete) live.erase(op.key);
    if (op.kind != OpKind::kGet) continue;
    const auto it = live.find(op.key);
    gets.push_back(it == live.end() ? std::nullopt
                                    : std::optional<Bytes>(it->second));
  }
  return gets;
}

cluster::ClusterConfig Cluster(std::uint32_t shards) {
  cluster::ClusterConfig cc;
  cc.num_shards = shards;
  cc.shard = SmallOptions();
  return cc;
}

TEST(OpStreamTest, SameStreamSameAnswersOnEveryTopology) {
  const OpStream stream = ChurnStream();
  const std::vector<std::optional<Bytes>> model = ModelGets(stream);

  auto device = KvSsd::Open(SmallOptions()).value();
  auto one = cluster::KvCluster::Open(Cluster(1)).value();
  auto four = cluster::KvCluster::Open(Cluster(4)).value();
  nand::NandGeometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_die = 128;
  g.pages_per_block = 32;
  sim::VirtualClock clock;
  sim::CostModel cost;
  pcie::PcieLink link;
  stats::MetricsRegistry metrics;
  blockdev::BlockSsd block(g, &clock, &cost, &link, &metrics);
  hostkvs::HostKvs host(&block, &clock, &cost, &metrics);

  std::vector<RunResult> results;
  std::vector<std::vector<std::optional<Bytes>>> answers;
  for (KvStore* store : {static_cast<KvStore*>(device.get()),
                         static_cast<KvStore*>(&host),
                         static_cast<KvStore*>(one.get()),
                         static_cast<KvStore*>(four.get())}) {
    RecordingStore recorder(*store);
    results.push_back(RunSerial(recorder, stream));
    ASSERT_TRUE(results.back().ok()) << results.back().status.ToString();
    answers.push_back(std::move(recorder.gets));
  }
  for (std::size_t t = 0; t < answers.size(); ++t) {
    EXPECT_EQ(results[t].ops, stream.size()) << "topology " << t;
    EXPECT_EQ(results[t].misses, results[0].misses) << "topology " << t;
    ASSERT_EQ(answers[t].size(), model.size()) << "topology " << t;
    for (std::size_t i = 0; i < model.size(); ++i) {
      EXPECT_EQ(answers[t][i], model[i]) << "topology " << t << " get " << i;
    }
  }
  EXPECT_GT(results[0].misses, 0u);  // The stream exercises absent keys.

  // A 1-shard cluster is the bare device: same time, same every counter.
  EXPECT_EQ(results[2].elapsed_ns, results[0].elapsed_ns);
  EXPECT_EQ(one->Now(), device->Now());
  ExpectSameCounters(results[2].delta, results[0].delta);
  EXPECT_EQ(results[2].latency_ns.sum(), results[0].latency_ns.sum());
}

TEST(OpStreamTest, ReplayedTraceFileMatchesDirectRunByteForByte) {
  const OpStream direct = PutStream(MakeWorkloadM(800, 6));
  std::stringstream file;
  WriteTrace(direct, file);
  const Result<OpStream> replayed = ReadTrace(file);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();

  auto a = KvSsd::Open(SmallOptions()).value();
  auto b = KvSsd::Open(SmallOptions()).value();
  const RunResult ra = RunSerial(*a, direct);
  const RunResult rb = RunSerial(*b, replayed.value());
  ASSERT_TRUE(ra.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.ok()) << rb.status.ToString();
  EXPECT_EQ(ra.elapsed_ns, rb.elapsed_ns);
  EXPECT_EQ(ra.requested_value_bytes, rb.requested_value_bytes);
  ExpectSameCounters(ra.delta, rb.delta);
  ExpectSameCounters(a->GetStats(), b->GetStats());
  for (const Op& op : direct) {
    auto va = a->Get(op.key);
    auto vb = b->Get(op.key);
    ASSERT_TRUE(va.ok() && vb.ok()) << HexEncode(op.key);
    EXPECT_EQ(va.value(), vb.value());
    EXPECT_EQ(va.value(), PayloadOf(op));  // Keys are unique in a PUT spec.
  }
}

TEST(OpStreamTest, FailedOpStopsTheRunWithItsStatus) {
  constexpr std::size_t kFailAt = 37;
  OpStream stream = PutStream(MakeWorkloadD(100));
  stream[kFailAt].key = std::string(17, 'x');  // Keys are 1..16 bytes.
  std::uint64_t bytes_before = 0;
  for (std::size_t i = 0; i < kFailAt; ++i) bytes_before += stream[i].value_size;

  auto serial_ssd = KvSsd::Open(SmallOptions()).value();
  auto lane_ssd = KvSsd::Open(SmallOptions()).value();
  for (const RunResult& r : {RunSerial(*serial_ssd, stream),
                             RunParallel(*lane_ssd, stream, 1)}) {
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.ops, kFailAt);
    EXPECT_EQ(r.latency_ns.count(), kFailAt);
    EXPECT_EQ(r.requested_value_bytes, bytes_before);
    EXPECT_EQ(r.delta.values_written, kFailAt);
  }

  // An op tagged for a tenant with no target stops the run the same way.
  stream = PutStream(MakeWorkloadD(10));
  stream[4].tenant = 1;
  const RunResult untargeted = RunSerial(*serial_ssd, stream);
  EXPECT_EQ(untargeted.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(untargeted.ops, 4u);
}

TEST(OpStreamTest, StatsDeltaCoversEveryCounterUnderFaults) {
  KvSsdOptions o = SmallOptions();
  o.ftl.reserved_blocks = 8;
  o.fault.seed = 0xC0FFEE;
  o.fault.program_fail_rate = 0.02;
  o.fault.read_correctable_rate = 0.05;
  o.fault.command_drop_rate = 0.01;
  auto ssd = KvSsd::Open(o).value();

  MixedWorkloadSpec spec;
  spec.ops = 1500;
  spec.num_keys = 256;
  spec.value_size = 900;
  ASSERT_TRUE(PreloadMixedKeys(*ssd, spec).ok());
  const KvSsdStats before = ssd->GetStats();
  const RunResult r = RunSerial(*ssd, MixedStream(spec));
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  const KvSsdStats after = ssd->GetStats();

  EXPECT_EQ(r.delta.elapsed_ns, after.elapsed_ns - before.elapsed_ns);
  for (const auto counter : kStatsCounters) {
    EXPECT_EQ(r.delta.*counter, after.*counter - before.*counter);
  }
  // The fault counters the old field-by-field copy dropped are live here.
  EXPECT_GT(r.delta.nand_program_failures, 0u);
  EXPECT_GT(r.delta.bad_block_remaps, 0u);
  EXPECT_GT(r.delta.ecc_corrections, 0u);
  EXPECT_GT(r.delta.nvme_timeouts, 0u);
  EXPECT_GT(r.delta.nvme_retries, 0u);

  // AccumulateStats walks the same list.
  KvSsdStats sum = before;
  AccumulateStats(&sum, r.delta);
  for (const auto counter : kStatsCounters) {
    EXPECT_EQ(sum.*counter, after.*counter);
  }
}

// The conventional stack on a block SSD, assembled for one test.
struct HostStack {
  HostStack() : block(Geometry(), &clock, &cost, &link, &metrics),
                host(&block, &clock, &cost, &metrics) {}
  static nand::NandGeometry Geometry() {
    nand::NandGeometry g;
    g.channels = 2;
    g.ways = 2;
    g.blocks_per_die = 128;
    g.pages_per_block = 32;
    return g;
  }
  sim::VirtualClock clock;
  sim::CostModel cost;
  pcie::PcieLink link;
  stats::MetricsRegistry metrics;
  blockdev::BlockSsd block;
  hostkvs::HostKvs host;
};

// KvStore contract: a batch with one malformed record (a key outside 1..16
// bytes, or an empty value) is rejected whole with kInvalidArgument on every
// topology — no record lands, no shard is touched, no counter moves.
TEST(KvStoreContractTest, MalformedBatchIsRejectedWholeOnEveryTopology) {
  std::vector<std::string> good;
  for (int i = 0; i < 8; ++i) good.push_back("mal" + std::to_string(i));
  const std::string long_key(20, 'x');
  struct Malformed {
    const char* name;
    std::string key;
    Bytes value;
  };
  const Malformed cases[] = {{"20-byte key", long_key, Bytes(8, 1)},
                             {"empty key", "", Bytes(8, 1)},
                             {"empty value", "mal9", Bytes()}};
  enum class BatchOp { kPut, kGet, kDelete };

  for (const Malformed& bad : cases) {
    for (const BatchOp kind : {BatchOp::kPut, BatchOp::kGet, BatchOp::kDelete}) {
      // An empty value only malforms a PUT record.
      if (kind != BatchOp::kPut && bad.value.empty()) continue;
      auto device = KvSsd::Open(SmallOptions()).value();
      auto four = cluster::KvCluster::Open(Cluster(4)).value();
      HostStack stack;
      const std::pair<const char*, KvStore*> stores[] = {
          {"KvSsd", device.get()}, {"KvCluster", four.get()},
          {"HostKvs", &stack.host}};
      for (const auto& [name, store] : stores) {
        SCOPED_TRACE(std::string(name) + ", " + bad.name + ", op " +
                     std::to_string(static_cast<int>(kind)));
        for (const std::string& key : good) {
          ASSERT_TRUE(store->Put(key, ByteSpan(Bytes(32, 0xA0))).ok());
        }
        std::vector<KvStore::KvPair> batch;
        for (const std::string& key : good) batch.push_back({key, Bytes(48, 0xB0)});
        batch.push_back({bad.key, bad.value});
        std::vector<std::string> keys = good;
        keys.push_back(bad.key);
        const KvSsdStats before = store->GetStats();

        Status st;
        if (kind == BatchOp::kPut) st = store->PutBatch(batch);
        if (kind == BatchOp::kGet) st = store->GetBatch(keys).status();
        if (kind == BatchOp::kDelete) st = store->DeleteBatch(keys).status();
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
        ExpectSameCounters(store->GetStats(), before);
        for (const std::string& key : good) {
          auto value = store->Get(key);
          ASSERT_TRUE(value.ok()) << key;
          EXPECT_EQ(value.value(), Bytes(32, 0xA0)) << key;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bandslim::workload
