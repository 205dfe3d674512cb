// Tests of the benchmark's own arithmetic (ledger.h): the per-segment
// minimum behind host_kops, the percentile and tail rules, the live-byte
// model behind space_amp, and the peeled self-time ledger behind the
// cluster.* and core.* host metrics. Checks stay active in optimized
// builds; exits nonzero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ledger.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestMedian() {
  using perfbench::Median;
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({3.0}) == 3.0);
  EXPECT(Median({5.0, 1.0, 3.0}) == 3.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestBestSegments() {
  using perfbench::BestSegmentsSeconds;
  // Each segment keeps its fastest repetition, even when no single
  // repetition was fastest everywhere: 1 + 2 + 1.
  EXPECT(Near(BestSegmentsSeconds({{1.0, 3.0, 2.0}, {2.0, 2.0, 1.0}}), 4.0));
  EXPECT(Near(BestSegmentsSeconds({{0.5, 0.25}}), 0.75));
  // Repetitions cut differently, or none at all, read zero.
  EXPECT(BestSegmentsSeconds({{1.0, 1.0}, {1.0}}) == 0.0);
  EXPECT(BestSegmentsSeconds({}) == 0.0);
}

void TestNearestRank() {
  using perfbench::NearestRank;
  using perfbench::SamplesBeyond;
  EXPECT(NearestRank(0, 500000) == 0);
  EXPECT(NearestRank(1, 990000) == 1);
  EXPECT(NearestRank(100, 500000) == 50);
  EXPECT(NearestRank(101, 500000) == 51);
  EXPECT(NearestRank(100, 990000) == 99);
  // 0.999 * 1000 is 999.0000000000001 in doubles; ppm keeps it exact.
  EXPECT(NearestRank(1000, 999000) == 999);
  EXPECT(NearestRank(1001, 999000) == 1000);
  EXPECT(SamplesBeyond(1000, 990000) == 10);
  EXPECT(SamplesBeyond(1000, 999000) == 1);

  std::vector<std::uint64_t> sorted;
  for (std::uint64_t v = 1; v <= 200; ++v) sorted.push_back(v * 10);
  EXPECT(perfbench::PercentileOfSorted(sorted, 500000) == 1000);
  EXPECT(perfbench::PercentileOfSorted(sorted, 990000) == 1980);
  EXPECT(perfbench::PercentileOfSorted({}, 990000) == 0);
}

void TestTailRule() {
  using perfbench::TailPercentilePpm;
  // Fewer than 20 samples: even the median leaves < 10 beyond it.
  EXPECT(TailPercentilePpm(19) == 0);
  EXPECT(TailPercentilePpm(20) == 500000);
  EXPECT(TailPercentilePpm(100) == 900000);
  EXPECT(TailPercentilePpm(999) == 900000);  // p99 leaves only 9.
  EXPECT(TailPercentilePpm(1000) == 990000);
  EXPECT(TailPercentilePpm(10000) == 999000);
  EXPECT(TailPercentilePpm(400000) == 999900);  // 40 beyond; p99.999 has 4.
  EXPECT(TailPercentilePpm(10000000) == 999999);
  // The rule's promise, at every size: >= 10 beyond the chosen percentile
  // and < 10 beyond the next rung of the ladder.
  for (std::uint64_t n = 20; n < 5000; n += 7) {
    const std::uint64_t p = TailPercentilePpm(n);
    EXPECT(perfbench::SamplesBeyond(n, p) >= 10);
    for (const std::uint64_t rung : perfbench::kLadderPpm) {
      if (rung > p) EXPECT(perfbench::SamplesBeyond(n, rung) < 10);
    }
  }
}

void TestLiveBytes() {
  perfbench::LiveBytesModel model(4);
  EXPECT(model.live_bytes() == 0);
  EXPECT(model.Find(0) == nullptr);
  model.Write(0, 4, 100, 7);
  model.Write(1, 4, 10, 8);
  EXPECT(model.live_bytes() == 118);
  EXPECT(model.live_keys() == 2);
  // An overwrite replaces the old value's bytes; it does not add to them.
  model.Write(0, 4, 30, 9);
  EXPECT(model.live_bytes() == 48);
  EXPECT(model.live_keys() == 2);
  EXPECT(model.Find(0) != nullptr && model.Find(0)->stamp == 9 &&
         model.Find(0)->value_size == 30);
  EXPECT(model.Find(3) == nullptr);
  // 3 mapped 16 KiB pages over 48 live bytes.
  EXPECT(Near(perfbench::SpaceAmp(3, 16384, 48), 1024.0));
  EXPECT(perfbench::SpaceAmp(3, 16384, 0) == 0.0);
}

void TestPeelLedger() {
  // Three nested entry points: router 100 ns, device facade 70, driver 50
  // on the first op; 120 / 80 / 50 on the second.
  perfbench::PeelLedger ledger(3);
  const double op1[3] = {100, 70, 50};
  const double op2[3] = {120, 80, 50};
  ledger.Add(op1);
  ledger.Add(op2);
  EXPECT(ledger.ops() == 2);
  EXPECT(Near(ledger.SelfNs(0), 70));   // (100 - 70) + (120 - 80).
  EXPECT(Near(ledger.SelfNs(1), 50));   // (70 - 50) + (80 - 50).
  EXPECT(Near(ledger.SelfNs(2), 100));  // Innermost keeps its total.
  EXPECT(Near(ledger.SelfNsPerOp(0), 35));
  EXPECT(Near(ledger.SelfNsPerOp(1), 25));
  EXPECT(Near(ledger.SelfNsPerOp(2), 50));
  // Self times telescope to the outermost total.
  EXPECT(Near(ledger.SelfNs(0) + ledger.SelfNs(1) + ledger.SelfNs(2),
              ledger.TotalNs(0)));
  // A layer that costs nothing peels to zero; an empty ledger reads zero.
  perfbench::PeelLedger flat(2);
  const double same[2] = {40, 40};
  flat.Add(same);
  EXPECT(Near(flat.SelfNsPerOp(0), 0));
  EXPECT(perfbench::PeelLedger(2).SelfNsPerOp(0) == 0.0);
}

}  // namespace

int main() {
  TestMedian();
  TestBestSegments();
  TestNearestRank();
  TestTailRule();
  TestLiveBytes();
  TestPeelLedger();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
