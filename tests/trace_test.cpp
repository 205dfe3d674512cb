#include <gtest/gtest.h>

#include <sstream>

#include "workload/runner.h"
#include "workload/trace.h"
#include "workload/workloads.h"

namespace bandslim::workload {
namespace {

TEST(HexTest, RoundTrip) {
  const std::string raw("\x00\xff""abc\x7f", 6);
  auto back = HexDecode(HexEncode(raw));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), raw);
}

TEST(HexTest, RejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc").ok());   // Odd length.
  EXPECT_FALSE(HexDecode("zz").ok());    // Bad digit.
  EXPECT_TRUE(HexDecode("").ok());       // Empty is fine.
}

TEST(TraceTest, WriteReadRoundTrip) {
  OpStream trace = {
      {OpKind::kPut, std::string("\x01\x02", 2), 100},
      {OpKind::kGet, "key2", 0},
      {OpKind::kDelete, "key3", 0},
      {OpKind::kPut, "key4", 8192},
  };
  std::stringstream ss;
  WriteTrace(trace, ss);
  auto back = ReadTrace(ss);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 4u);
  EXPECT_EQ(back.value()[0].kind, OpKind::kPut);
  EXPECT_EQ(back.value()[0].key, trace[0].key);
  EXPECT_EQ(back.value()[0].value_size, 100u);
  EXPECT_EQ(back.value()[1].kind, OpKind::kGet);
  EXPECT_EQ(back.value()[2].kind, OpKind::kDelete);
  EXPECT_EQ(back.value()[3].value_size, 8192u);
  // Parsed ops carry the PUT-spec payload rule: stamp = op index.
  EXPECT_EQ(back.value()[3].stamp, 3u);
  EXPECT_EQ(back.value()[3].fill, kPutFill);
}

TEST(TraceTest, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# header\n\nput 6162 10\n");
  auto trace = ReadTrace(ss);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace.value().size(), 1u);
  EXPECT_EQ(trace.value()[0].key, "ab");
}

TEST(TraceTest, RejectsMalformedLines) {
  {
    std::stringstream ss("frobnicate 6162\n");
    EXPECT_FALSE(ReadTrace(ss).ok());
  }
  {
    std::stringstream ss("put 6162 0\n");  // Zero-size put.
    EXPECT_FALSE(ReadTrace(ss).ok());
  }
  {
    std::stringstream ss("put 616 10\n");  // Odd hex key.
    EXPECT_FALSE(ReadTrace(ss).ok());
  }
  // A negative size must not wrap to 4294967295, and no line may carry
  // extra tokens. Each is Corruption naming the line.
  for (const char* bad : {"put 61 -1", "put 61 5 junk", "get 61 77",
                          "del 61 x", "put 61 99999999999", "put 61 5x"}) {
    std::stringstream ss(std::string("# header\nput 61 5\n") + bad + "\n");
    const auto trace = ReadTrace(ss);
    ASSERT_FALSE(trace.ok()) << bad;
    EXPECT_EQ(trace.status().code(), StatusCode::kCorruption) << bad;
    EXPECT_NE(trace.status().ToString().find("line 3"), std::string::npos)
        << bad << ": " << trace.status().ToString();
  }
}

TEST(TraceTest, PutStreamIsDeterministic) {
  auto t1 = PutStream(MakeWorkloadM(100, 9));
  auto t2 = PutStream(MakeWorkloadM(100, 9));
  ASSERT_EQ(t1.size(), 100u);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].key, t2[i].key);
    EXPECT_EQ(t1[i].value_size, t2[i].value_size);
  }
}

TEST(TraceTest, ReplayAgainstDevice) {
  KvSsdOptions o;
  o.geometry.channels = 2;
  o.geometry.ways = 2;
  o.geometry.blocks_per_die = 128;
  o.geometry.pages_per_block = 32;
  auto ssd = KvSsd::Open(o).value();

  OpStream trace = {
      {OpKind::kPut, "alpha", 64},
      {OpKind::kPut, "beta", 2048},
      {OpKind::kGet, "alpha", 0},
      {OpKind::kGet, "missing", 0},
      {OpKind::kDelete, "alpha", 0},
      {OpKind::kGet, "alpha", 0},
  };
  const RunResult result = RunSerial(*ssd, trace);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.ops - result.gets - result.deletes, 2u);  // PUTs.
  EXPECT_EQ(result.gets, 3u);
  EXPECT_EQ(result.misses, 2u);  // "missing" + deleted "alpha".
  EXPECT_EQ(result.deletes, 1u);
  EXPECT_GT(result.elapsed_ns, 0u);
  // Device state reflects the trace.
  EXPECT_TRUE(ssd->Get("beta").ok());
  EXPECT_TRUE(ssd->Get("alpha").status().IsNotFound());
}

TEST(TraceTest, SpecTraceReplayMatchesRunner) {
  // Replaying a captured spec produces the same device-side counters as
  // running the generator directly.
  auto run_direct = [] {
    KvSsdOptions o;
    o.retain_payloads = false;
    auto ssd = KvSsd::Open(o).value();
    RunSerial(*ssd, PutStream(MakeWorkloadM(500, 4)));
    auto s = ssd->GetStats();
    return std::make_pair(s.pcie_h2d_bytes, s.commands_submitted);
  };
  auto run_replay = [] {
    KvSsdOptions o;
    o.retain_payloads = false;
    auto ssd = KvSsd::Open(o).value();
    std::stringstream file;
    WriteTrace(PutStream(MakeWorkloadM(500, 4)), file);
    RunSerial(*ssd, ReadTrace(file).value());
    auto s = ssd->GetStats();
    return std::make_pair(s.pcie_h2d_bytes, s.commands_submitted);
  };
  EXPECT_EQ(run_direct(), run_replay());
}

}  // namespace
}  // namespace bandslim::workload
