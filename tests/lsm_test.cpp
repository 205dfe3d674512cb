#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "fault/fault_plan.h"
#include "lsm/compaction.h"
#include "lsm/lsm_tree.h"
#include "lsm/memtable.h"
#include "lsm/sstable.h"

namespace bandslim::lsm {
namespace {

// --------------------------- MemTable -------------------------------------

TEST(MemTableTest, PutGetOverwrite) {
  MemTable mem;
  mem.Put("b", {100, 10, false});
  mem.Put("a", {200, 20, false});
  ASSERT_NE(mem.Get("a"), nullptr);
  EXPECT_EQ(mem.Get("a")->addr, 200u);
  mem.Put("a", {300, 30, false});
  EXPECT_EQ(mem.Get("a")->addr, 300u);
  EXPECT_EQ(mem.entry_count(), 2u);  // Overwrite, not insert.
  EXPECT_EQ(mem.Get("zz"), nullptr);
}

TEST(MemTableTest, TombstoneVisible) {
  MemTable mem;
  mem.Put("k", {1, 1, false});
  mem.Delete("k");
  ASSERT_NE(mem.Get("k"), nullptr);
  EXPECT_TRUE(mem.Get("k")->tombstone);
}

TEST(MemTableTest, IterationIsSorted) {
  MemTable mem(123);
  for (int i = 999; i >= 0; --i) {
    char key[8];
    std::snprintf(key, sizeof key, "%04d", i);
    mem.Put(key, {static_cast<std::uint64_t>(i), 1, false});
  }
  int count = 0;
  std::string prev;
  for (auto it = mem.Begin(); it.Valid(); it.Next(), ++count) {
    EXPECT_LT(prev, it.key());
    prev = it.key().view();
  }
  EXPECT_EQ(count, 1000);
}

TEST(MemTableTest, SeekFindsLowerBound) {
  MemTable mem;
  mem.Put("apple", {1, 1, false});
  mem.Put("cherry", {2, 1, false});
  auto it = mem.Seek("banana");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "cherry");
  auto past = mem.Seek("zebra");
  EXPECT_FALSE(past.Valid());
}

TEST(MemTableTest, MatchesReferenceModel) {
  MemTable mem(7);
  std::map<std::string, std::uint64_t> model;
  Xoshiro256 rng(99);
  for (int i = 0; i < 5000; ++i) {
    std::string key = std::to_string(rng.Below(800));
    const std::uint64_t addr = rng();
    mem.Put(key, {addr, 4, false});
    model[key] = addr;
  }
  EXPECT_EQ(mem.entry_count(), model.size());
  for (const auto& [key, addr] : model) {
    ASSERT_NE(mem.Get(key), nullptr) << key;
    EXPECT_EQ(mem.Get(key)->addr, addr) << key;
  }
  // Iteration order matches std::map.
  auto it = mem.Begin();
  for (const auto& [key, addr] : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), key);
    it.Next();
  }
}

TEST(MemTableTest, ClearResets) {
  MemTable mem;
  mem.Put("a", {1, 1, false});
  mem.Clear();
  EXPECT_TRUE(mem.empty());
  EXPECT_EQ(mem.Get("a"), nullptr);
  EXPECT_EQ(mem.approximate_bytes(), 0u);
  mem.Put("b", {2, 2, false});  // Usable after Clear.
  EXPECT_NE(mem.Get("b"), nullptr);
}

TEST(MemTableTest, ClearReusesArenaBlocks) {
  // Two fills of 20000 keys with a Clear() between: the second fill reuses
  // the entry array and index the first one grew, and none of the first
  // fill's keys survive.
  MemTable mem(5);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 20000; ++i) {
      mem.Put(std::to_string(i * 7 + round),
              {static_cast<std::uint64_t>(i), 1, false});
    }
    ASSERT_EQ(mem.entry_count(), 20000u);
    for (int i = 0; i < 20000; i += 13) {
      const ValueRef* ref = mem.Get(std::to_string(i * 7 + round));
      ASSERT_NE(ref, nullptr) << i;
      EXPECT_EQ(ref->addr, static_cast<std::uint64_t>(i));
    }
    if (round == 1) {
      EXPECT_EQ(mem.Get("0"), nullptr);  // Round 0's first key is gone.
    }
    mem.Clear();
  }
}

// --------------------------- InlineKey ------------------------------------

// Seeded keys of 1..16 bytes over bytes that stress the order: 0x00, the
// signed/unsigned boundary (0x7f/0x80), 0xff, and keys that prefix each
// other (including a key and the same key extended by 0x00).
std::vector<std::string> OrderStressKeys(std::uint64_t seed, std::size_t n) {
  static constexpr char kBytes[] = {'\x00', '\x01', '\x7f', '\x80', '\xff', 'a'};
  Xoshiro256 rng(seed);
  std::vector<std::string> keys;
  while (keys.size() < n) {
    std::string key;
    const std::size_t len = 1 + rng.Below(kMaxKeySize);
    for (std::size_t i = 0; i < len; ++i) key.push_back(kBytes[rng.Below(6)]);
    keys.push_back(key);
    if (len > 1) keys.push_back(key.substr(0, 1 + rng.Below(len - 1)));
    if (len < kMaxKeySize) keys.push_back(key + '\0');
  }
  return keys;
}

TEST(InlineKeyTest, OrderAndEqualityMatchStdString) {
  const std::vector<std::string> keys = OrderStressKeys(11, 700);
  std::size_t mismatches = 0;
  for (const std::string& a : keys) {
    const InlineKey ka(a);
    ASSERT_EQ(ka.view(), a);
    ASSERT_EQ(ka.size(), a.size());
    for (const std::string& b : keys) {
      const InlineKey kb(b);
      if ((ka < kb) != (a < b) || (ka == kb) != (a == b)) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << "first mismatch: " << a.size() << "-byte key vs "
                        << b.size() << "-byte key";
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(InlineKeyTest, OverlongKeySortsWhereTheWholeKeyWould) {
  const std::vector<std::string> keys = OrderStressKeys(12, 300);
  Xoshiro256 rng(13);
  for (int t = 0; t < 50; ++t) {
    // A stored-size key grown past kMaxKeySize, so it shares a 16-byte
    // prefix with real keys.
    std::string longer = keys[rng.Below(keys.size())];
    longer.resize(kMaxKeySize + 1 + rng.Below(8), '\x80');
    const InlineKey kl(longer);
    EXPECT_EQ(kl.view(), std::string_view(longer).substr(0, kMaxKeySize));
    for (const std::string& k : keys) {
      ASSERT_EQ(InlineKey(k) < kl, k < longer);
      ASSERT_FALSE(InlineKey(k) == kl);
    }
  }
}

TEST(InlineKeyTest, HashSpreadsKeysThatShareAPrefix) {
  // The point indexes take a slot from the hash's low bits (the MemTable)
  // or its high bits (a table), so both must spread keys that differ only
  // past their first 8 bytes, only in their 16th byte or only in length.
  auto spread = [](const std::vector<std::string>& keys, int shift) {
    std::vector<bool> used(1024, false);
    std::size_t buckets = 0;
    for (const std::string& key : keys) {
      const std::size_t b = (InlineKey(key).Hash() >> shift) & 1023;
      if (!used[b]) ++buckets;
      used[b] = true;
    }
    return buckets;
  };
  std::vector<std::string> second_word;  // One 8-byte prefix.
  std::vector<std::string> last_byte;    // One 15-byte prefix.
  std::vector<std::string> lengths;      // Keys and themselves + 0x00.
  for (int i = 0; i < 1024; ++i) {
    second_word.push_back("prefix08" + std::to_string(1000000 + i));
  }
  for (int b = 0; b < 256; ++b) {
    last_byte.push_back(std::string(15, 'k') + static_cast<char>(b));
  }
  for (int i = 0; i < 512; ++i) {
    const std::string key = std::to_string(i);
    lengths.push_back(key);
    lengths.push_back(key + '\0');
  }
  for (int shift : {0, 54}) {
    // Random hashes of 1024 keys fill about 647 of 1024 buckets, and of
    // 256 keys about 226. A hash that ignores the second word fills one,
    // and one that ignores the length about 403.
    EXPECT_GT(spread(second_word, shift), 600u) << shift;
    EXPECT_GT(spread(last_byte, shift), 150u) << shift;
    EXPECT_GT(spread(lengths, shift), 600u) << shift;
  }
}

TEST(MemTableTest, MatchesStdMapOnStressKeys) {
  const std::vector<std::string> keys = OrderStressKeys(21, 400);
  MemTable mem(3);
  std::map<std::string, ValueRef> model;
  Xoshiro256 rng(22);
  for (int i = 0; i < 6000; ++i) {
    const std::string& key = keys[rng.Below(keys.size())];
    const std::uint64_t op = rng.Below(10);
    if (op < 5) {
      const ValueRef ref{rng() >> 16, static_cast<std::uint32_t>(rng.Below(100)), false};
      mem.Put(key, ref);
      model[key] = ref;
    } else if (op < 7) {
      mem.Delete(key);
      model[key] = ValueRef{0, 0, true};
    } else if (op < 9) {
      const ValueRef* got = mem.Get(key);
      auto want = model.find(key);
      ASSERT_EQ(got != nullptr, want != model.end());
      if (got != nullptr) {
        EXPECT_EQ(got->addr, want->second.addr);
        EXPECT_EQ(got->tombstone, want->second.tombstone);
      }
    } else {
      auto it = mem.Seek(key);
      auto want = model.lower_bound(key);
      ASSERT_EQ(it.Valid(), want != model.end());
      if (it.Valid()) {
        EXPECT_EQ(it.key().view(), want->first);
      }
    }
  }
  EXPECT_EQ(mem.entry_count(), model.size());
  auto it = mem.Begin();
  for (const auto& [key, ref] : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key().view(), key);
    EXPECT_EQ(it.ref().addr, ref.addr);
    EXPECT_EQ(it.ref().tombstone, ref.tombstone);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

// The key order is built lazily on an ordered read and extended by later
// ones, so this interleaves every operation, full walks (Begin) and
// partial walks (Seek) with writes: overwrites after a sort, new keys
// after a Seek (some below every key walked so far), tombstones. Half the
// new keys share their first 8 bytes, so the order within one radix
// bucket comes from the full compare.
TEST(MemTableTest, LazyOrderMatchesStdMapAcrossReads) {
  std::vector<std::string> keys = OrderStressKeys(41, 300);
  for (int i = 0; i < 300; ++i) {
    keys.push_back("prefix08" + std::to_string(i * 37));
  }
  MemTable mem(9);
  std::map<std::string, ValueRef> model;
  Xoshiro256 rng(42);
  auto expect_walk = [&](MemTable::Iterator it,
                         std::map<std::string, ValueRef>::iterator want,
                         std::size_t steps) {
    for (; steps > 0 && want != model.end(); --steps, ++want, it.Next()) {
      ASSERT_TRUE(it.Valid());
      ASSERT_EQ(it.key().view(), want->first);
      EXPECT_EQ(it.ref().addr, want->second.addr);
      EXPECT_EQ(it.ref().tombstone, want->second.tombstone);
    }
    if (steps > 0) EXPECT_FALSE(it.Valid());
  };
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4000; ++i) {
      const std::string& key = keys[rng.Below(keys.size())];
      const std::uint64_t op = rng.Below(20);
      if (op < 9) {
        const ValueRef ref{rng() >> 16,
                           static_cast<std::uint32_t>(rng.Below(64)), false};
        mem.Put(key, ref);
        model[key] = ref;
      } else if (op < 11) {
        mem.Delete(key);
        model[key] = ValueRef{0, 0, true};
      } else if (op < 15) {
        const ValueRef* got = mem.Get(key);
        auto want = model.find(key);
        ASSERT_EQ(got != nullptr, want != model.end());
        if (got != nullptr) EXPECT_EQ(got->addr, want->second.addr);
      } else if (op < 19) {
        expect_walk(mem.Seek(key), model.lower_bound(key), 1 + rng.Below(8));
      } else {
        expect_walk(mem.Begin(), model.begin(), model.size() + 1);
      }
    }
    ASSERT_EQ(mem.entry_count(), model.size());
    expect_walk(mem.Begin(), model.begin(), model.size() + 1);
    // An overwrite after the sort shows through the kept order, and
    // through a Get() pointer taken before it.
    const std::string first = model.begin()->first;
    const ValueRef* before = mem.Get(first);
    mem.Put(first, ValueRef{777, 7, false});
    model[first] = ValueRef{777, 7, false};
    EXPECT_EQ(before->addr, 777u);
    expect_walk(mem.Begin(), model.begin(), model.size() + 1);
    // A new key after a Seek, below every key walked, joins the order.
    expect_walk(mem.Seek(first), model.lower_bound(first), 3);
    mem.Put("", ValueRef{1, 1, false});
    model[""] = ValueRef{1, 1, false};
    expect_walk(mem.Begin(), model.begin(), model.size() + 1);
    mem.Clear();
    model.clear();
    EXPECT_FALSE(mem.Begin().Valid());
  }
}

// --------------------------- SSTable ---------------------------------------

class SSTableTest : public ::testing::Test {
 protected:
  SSTableTest()
      : nand_(Geometry(), &clock_, &cost_, &metrics_), ftl_(&nand_, &metrics_) {}
  static nand::NandGeometry Geometry() {
    nand::NandGeometry g;
    g.channels = 1;
    g.ways = 2;
    g.blocks_per_die = 64;
    g.pages_per_block = 16;
    return g;
  }
  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
  nand::NandFlash nand_;
  ftl::PageFtl ftl_;
};

// FNV-1a over everything fed to it.
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
};

// A seeded stream with about half overwrites and some tombstones across
// three Clear() cycles, with a Get after every fourth write so the index
// exists from each cycle's first op. A new key draws a tower height and an
// overwrite does not, so the footprint (which counts tower pointers, and
// decides where the LSM flushes) pins the height draws; the digest pins
// the iteration order and every ref. Recorded with the skiplist-only
// MemTable.
TEST(MemTableTest, FootprintStreamIsPinned) {
  MemTable mem(0xF007);
  Xoshiro256 rng(0xF00D);
  std::vector<std::string> keys;
  std::vector<std::size_t> bytes;
  std::vector<std::size_t> entries;
  Digest d;
  for (int cycle = 0; cycle < 3; ++cycle) {
    keys.clear();
    for (int i = 0; i < 12000; ++i) {
      const std::uint64_t r = rng.Below(100);
      std::string key;
      if (r < 50 && !keys.empty()) {
        key = keys[rng.Below(keys.size())];
      } else {
        const std::size_t len = 1 + rng.Below(kMaxKeySize);
        for (std::size_t b = 0; b < len; ++b) {
          key.push_back(static_cast<char>(rng.Below(256)));
        }
        keys.push_back(key);
      }
      if (r % 10 == 9) {
        mem.Delete(key);
      } else {
        mem.Put(key, {rng() >> 16, static_cast<std::uint32_t>(rng.Below(4096)),
                      false});
      }
      if (i % 4 == 0) {
        ASSERT_NE(mem.Get(key), nullptr);
      }
    }
    bytes.push_back(mem.approximate_bytes());
    entries.push_back(mem.entry_count());
    for (auto it = mem.Begin(); it.Valid(); it.Next()) {
      d.Add(it.key().view());
      d.Add(it.ref().addr);
      d.Add(it.ref().size);
      d.Add(it.ref().tombstone ? 1u : 0u);
    }
    mem.Clear();
  }
  EXPECT_EQ(bytes, (std::vector<std::size_t>{628617, 629116, 629492}));
  EXPECT_EQ(entries, (std::vector<std::size_t>{5852, 5856, 5867}));
  EXPECT_EQ(d.h, 0x69c83c14a8d52b92ULL);
}

std::vector<SSTableEntry> MakeEntries(int n, int salt = 0) {
  std::vector<SSTableEntry> entries;
  for (int i = 0; i < n; ++i) {
    char key[12];
    std::snprintf(key, sizeof key, "k%06d", i);
    entries.push_back({key,
                       {static_cast<std::uint64_t>(i * 100 + salt),
                        static_cast<std::uint32_t>(i % 1000 + 1), (i % 7) == 3}});
  }
  return entries;
}

// Streams `entries` through one TableWriter.
Result<SSTableMeta> WriteTable(ftl::PageFtl* ftl, std::uint64_t id,
                               std::uint64_t first_lpn,
                               const std::vector<SSTableEntry>& entries) {
  TableWriter writer(ftl, id, first_lpn);
  for (const SSTableEntry& e : entries) {
    BANDSLIM_RETURN_IF_ERROR(writer.Add(e));
  }
  return writer.Finish();
}

TEST_F(SSTableTest, WriteReadRoundTrip) {
  auto entries = MakeEntries(1000);
  auto meta = WriteTable(&ftl_, 1, kLsmLpnBase, entries);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta.value().entry_count, 1000u);
  EXPECT_EQ(meta.value().min_key, "k000000");
  EXPECT_EQ(meta.value().max_key, "k000999");
  EXPECT_GT(meta.value().page_count, 0u);

  auto back = ReadSSTable(&ftl_, meta.value());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back.value()[i].key, entries[i].key);
    EXPECT_EQ(back.value()[i].ref.addr, entries[i].ref.addr);
    EXPECT_EQ(back.value()[i].ref.size, entries[i].ref.size);
    EXPECT_EQ(back.value()[i].ref.tombstone, entries[i].ref.tombstone);
  }
}

TEST_F(SSTableTest, MultiPageTable) {
  auto entries = MakeEntries(3000);  // ~66 KB > 4 pages.
  auto meta = WriteTable(&ftl_, 2, kLsmLpnBase, entries);
  ASSERT_TRUE(meta.ok());
  EXPECT_GE(meta.value().page_count, 4u);
  auto back = ReadSSTable(&ftl_, meta.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 3000u);
  // The page encoder's bytes, pinned.
  Digest d;
  Bytes page(kNandPageSize);
  for (std::uint32_t p = 0; p < meta.value().page_count; ++p) {
    ASSERT_TRUE(ftl_.Read(kLsmLpnBase + p, MutByteSpan(page)).ok());
    d.Add(page.data(), page.size());
  }
  // Finish() leaves the filter to the first-use builder.
  EXPECT_TRUE(meta.value().bloom.empty());
  EnsureFilter(&meta.value(), entries);
  d.Add(meta.value().bloom.bits().data(), meta.value().bloom.bits().size());
  for (const std::string& fence : meta.value().fence_keys) d.Add(fence);
  EXPECT_EQ(d.h, 0x23b494a415038258ULL);
}

TEST_F(SSTableTest, EmptyTableRejected) {
  TableWriter writer(&ftl_, 3, kLsmLpnBase);
  EXPECT_FALSE(writer.Finish().ok());
}

TEST_F(SSTableTest, OverlapPredicate) {
  SSTableMeta m;
  m.min_key = "c";
  m.max_key = "f";
  EXPECT_TRUE(m.Overlaps("a", "d"));
  EXPECT_TRUE(m.Overlaps("d", "e"));
  EXPECT_TRUE(m.Overlaps("f", "z"));
  EXPECT_FALSE(m.Overlaps("a", "b"));
  EXPECT_FALSE(m.Overlaps("g", "z"));
}

// --------------------------- Merge machinery -------------------------------

// Collects the streamed merge of `chains`, given newest first; each chain
// is one input of disjoint runs in key order.
std::vector<SSTableEntry> MergeChains(
    std::vector<std::vector<std::vector<SSTableEntry>>> chains,
    bool drop_tombstones) {
  std::vector<MergeInput> inputs(chains.size());
  for (std::size_t i = 0; i < chains.size(); ++i) {
    for (auto& run : chains[i]) {
      inputs[i].runs.push_back(
          std::make_shared<const std::vector<SSTableEntry>>(std::move(run)));
    }
  }
  std::vector<SSTableEntry> merged;
  EXPECT_TRUE(MergeRuns(inputs, drop_tombstones, [&](const SSTableEntry& e) {
                merged.push_back(e);
                return Status::Ok();
              }).ok());
  return merged;
}

// The merge of `runs`, given newest first, each its own input.
std::vector<SSTableEntry> Merge(std::vector<std::vector<SSTableEntry>> runs,
                                bool drop_tombstones) {
  std::vector<std::vector<std::vector<SSTableEntry>>> chains;
  for (auto& run : runs) chains.push_back({std::move(run)});
  return MergeChains(std::move(chains), drop_tombstones);
}

TEST(MergeTest, NewestRunWins) {
  std::vector<SSTableEntry> newer = {{"a", {1, 1, false}}, {"c", {3, 1, false}}};
  std::vector<SSTableEntry> older = {{"a", {9, 9, false}}, {"b", {2, 1, false}}};
  auto merged = Merge({newer, older}, false);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, "a");
  EXPECT_EQ(merged[0].ref.addr, 1u);  // From the newer run.
  EXPECT_EQ(merged[1].key, "b");
  EXPECT_EQ(merged[2].key, "c");
}

TEST(MergeTest, TombstonesDroppedOnlyWhenAsked) {
  std::vector<SSTableEntry> newer = {{"a", {0, 0, true}}};
  std::vector<SSTableEntry> older = {{"a", {9, 9, false}}};
  auto kept = Merge({newer, older}, false);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept[0].ref.tombstone);
  auto dropped = Merge({newer, older}, true);
  EXPECT_TRUE(dropped.empty());
}

TEST(MergeTest, MatchesMapReferenceOnOverlappingRuns) {
  const std::vector<std::string> keys = OrderStressKeys(31, 300);
  Xoshiro256 rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    // Runs newest first; each is sorted with unique keys, as MergeRuns
    // requires, and overlaps the others at random.
    std::vector<std::vector<SSTableEntry>> runs(2 + rng.Below(4));
    for (auto& run : runs) {
      std::map<std::string, ValueRef> sorted;
      for (std::uint64_t n = rng.Below(200); n > 0; --n) {
        sorted[keys[rng.Below(keys.size())]] =
            ValueRef{rng() >> 16, 8, rng.Below(5) == 0};
      }
      for (const auto& [key, ref] : sorted) run.push_back({key, ref});
    }
    for (const bool drop_tombstones : {false, true}) {
      std::map<std::string, ValueRef> want;
      for (auto run = runs.rbegin(); run != runs.rend(); ++run) {
        for (const SSTableEntry& e : *run) want[std::string(e.key.view())] = e.ref;
      }
      if (drop_tombstones) {
        std::erase_if(want, [](const auto& kv) { return kv.second.tombstone; });
      }
      const auto merged = Merge(runs, drop_tombstones);
      ASSERT_EQ(merged.size(), want.size());
      auto w = want.begin();
      for (const SSTableEntry& e : merged) {
        EXPECT_EQ(e.key.view(), w->first);
        EXPECT_EQ(e.ref.addr, w->second.addr);
        EXPECT_EQ(e.ref.tombstone, w->second.tombstone);
        ++w;
      }
    }
  }
}

// One level's tables share an age and merge as one chained input. Each
// input here is a sorted key set cut into runs at random, with empty runs
// first, in the middle and last; inputs overlap each other at random.
TEST(MergeTest, ChainedInputsMatchMapReference) {
  const std::vector<std::string> keys = OrderStressKeys(51, 400);
  Xoshiro256 rng(52);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::vector<std::vector<SSTableEntry>>> chains(
        1 + rng.Below(5));
    for (auto& chain : chains) {
      std::map<std::string, ValueRef> sorted;
      for (std::uint64_t n = rng.Below(300); n > 0; --n) {
        sorted[keys[rng.Below(keys.size())]] =
            ValueRef{rng() >> 16, 8, rng.Below(4) == 0};
      }
      chain.emplace_back();  // An empty first run.
      for (const auto& [key, ref] : sorted) {
        if (rng.Below(40) == 0) {
          chain.emplace_back();
          if (rng.Below(2) == 0) chain.emplace_back();  // An empty middle run.
        }
        chain.back().push_back({key, ref});
      }
      chain.emplace_back();
    }
    for (const bool drop_tombstones : {false, true}) {
      // Oldest input first, so newer versions overwrite older ones.
      std::map<std::string, ValueRef> want;
      for (auto chain = chains.rbegin(); chain != chains.rend(); ++chain) {
        for (const auto& run : *chain) {
          for (const SSTableEntry& e : run) {
            want[std::string(e.key.view())] = e.ref;
          }
        }
      }
      if (drop_tombstones) {
        std::erase_if(want, [](const auto& kv) { return kv.second.tombstone; });
      }
      const auto merged = MergeChains(chains, drop_tombstones);
      ASSERT_EQ(merged.size(), want.size()) << trial;
      auto w = want.begin();
      for (const SSTableEntry& e : merged) {
        ASSERT_EQ(e.key.view(), w->first) << trial;
        EXPECT_EQ(e.ref.addr, w->second.addr);
        EXPECT_EQ(e.ref.tombstone, w->second.tombstone);
        ++w;
      }
    }
  }
}

// --------------------------- LsmTree ---------------------------------------

class LsmTreeTest : public ::testing::Test {
 protected:
  LsmTreeTest()
      : nand_(Geometry(), &clock_, &cost_, &metrics_, &faults_),
        ftl_(&nand_, &metrics_),
        lsm_(&ftl_, &metrics_, Config()) {}

  static nand::NandGeometry Geometry() {
    nand::NandGeometry g;
    g.channels = 2;
    g.ways = 2;
    g.blocks_per_die = 256;
    g.pages_per_block = 32;
    return g;
  }
  static LsmConfig Config() {
    LsmConfig c;
    c.memtable_limit_bytes = 4096;  // Tiny: force frequent flushes.
    c.l0_compaction_trigger = 3;
    c.level_base_bytes = 16 * 1024;
    c.sstable_target_bytes = 8 * 1024;
    return c;
  }

  static std::string Key(int i) {
    char k[12];
    std::snprintf(k, sizeof k, "%08d", i);
    return k;
  }

  sim::VirtualClock clock_;
  sim::CostModel cost_;
  stats::MetricsRegistry metrics_;
  // Inert until a test assigns a plan with triggers.
  fault::FaultPlan faults_;
  nand::NandFlash nand_;
  ftl::PageFtl ftl_;
  LsmTree lsm_;
};

TEST_F(LsmTreeTest, PutGetThroughFlushesAndCompactions) {
  std::map<std::string, std::uint64_t> model;
  Xoshiro256 rng(5);
  for (int i = 0; i < 4000; ++i) {
    std::string key = Key(static_cast<int>(rng.Below(1500)));
    const std::uint64_t addr = rng() >> 16;
    ASSERT_TRUE(lsm_.Put(key, {addr, 8, false}).ok());
    model[key] = addr;
  }
  EXPECT_GT(lsm_.memtable_flushes(), 0u);
  EXPECT_GT(lsm_.compactions_run(), 0u);
  for (const auto& [key, addr] : model) {
    auto ref = lsm_.Get(key);
    ASSERT_TRUE(ref.ok()) << key;
    EXPECT_EQ(ref.value().addr, addr) << key;
  }
  EXPECT_TRUE(lsm_.Get(Key(99999)).status().IsNotFound());
}

TEST_F(LsmTreeTest, CompactionCutsTablesAtTargetBytes) {
  LsmConfig config = Config();
  config.sstable_target_bytes = 4096;
  LsmTree tree(&ftl_, &metrics_, config);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false}).ok());
  }
  ASSERT_TRUE(tree.FlushMemTable().ok());
  ASSERT_GT(tree.compactions_run(), 0u);
  // Every key was put once, so every entry lives in exactly one table.
  std::size_t entries = 0;
  std::size_t cut_tables = 0;
  for (int l = 0; l < tree.level_count(); ++l) {
    for (std::size_t t = 0; t < tree.TableCount(l); ++t) {
      const SSTableMeta& meta = tree.table_meta(l, t);
      entries += meta.entry_count;
      if (l == 0) continue;
      EXPECT_LE(meta.encoded_bytes, 4096u) << l << "/" << t;
      ++cut_tables;
    }
  }
  EXPECT_GT(cut_tables, 1u);
  EXPECT_EQ(entries, 1000u);
}

TEST_F(LsmTreeTest, DeleteShadowsOlderVersions) {
  ASSERT_TRUE(lsm_.Put("k1", {1, 1, false}).ok());
  ASSERT_TRUE(lsm_.FlushMemTable().ok());
  ASSERT_TRUE(lsm_.Delete("k1").ok());
  EXPECT_TRUE(lsm_.Get("k1").status().IsNotFound());
  ASSERT_TRUE(lsm_.FlushMemTable().ok());
  EXPECT_TRUE(lsm_.Get("k1").status().IsNotFound());
}

TEST_F(LsmTreeTest, RePutAfterDelete) {
  ASSERT_TRUE(lsm_.Put("k", {1, 1, false}).ok());
  ASSERT_TRUE(lsm_.Delete("k").ok());
  ASSERT_TRUE(lsm_.Put("k", {2, 2, false}).ok());
  auto ref = lsm_.Get("k");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().addr, 2u);
}

TEST_F(LsmTreeTest, InvalidKeysRejected) {
  EXPECT_FALSE(lsm_.Put("", {1, 1, false}).ok());
  EXPECT_FALSE(lsm_.Put(std::string(17, 'x'), {1, 1, false}).ok());
  EXPECT_FALSE(lsm_.Delete("").ok());
}

TEST_F(LsmTreeTest, IteratorMergesAllSources) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i * 2), {static_cast<std::uint64_t>(i), 4, false}).ok());
  }
  ASSERT_TRUE(lsm_.Delete(Key(10)).ok());
  auto iter = lsm_.NewIterator();
  ASSERT_TRUE(iter.ok());
  int count = 0;
  std::string prev;
  for (auto& it = *iter.value(); it.Valid(); it.Next()) {
    EXPECT_LT(prev, it.key());
    EXPECT_NE(it.key(), Key(10));  // Tombstoned key elided.
    prev = it.key();
    ++count;
  }
  EXPECT_EQ(count, 499);
}

TEST_F(LsmTreeTest, IteratorSeek) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i * 10), {1, 1, false}).ok());
  }
  auto iter = lsm_.NewIterator();
  ASSERT_TRUE(iter.ok());
  iter.value()->Seek(Key(55));
  ASSERT_TRUE(iter.value()->Valid());
  EXPECT_EQ(iter.value()->key(), Key(60));
}

TEST_F(LsmTreeTest, CheckpointRestoreRoundTrip) {
  std::map<std::string, std::uint64_t> model;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = Key(i);
    ASSERT_TRUE(lsm_.Put(key, {static_cast<std::uint64_t>(i) * 7, 8, false}).ok());
    model[key] = static_cast<std::uint64_t>(i) * 7;
  }
  ASSERT_TRUE(lsm_.Checkpoint(0xC00C1E).ok());

  // A fresh tree over the same FTL restores the manifest.
  LsmTree restored(&ftl_, &metrics_, Config());
  auto cookie = restored.Restore();
  ASSERT_TRUE(cookie.ok()) << cookie.status().ToString();
  EXPECT_EQ(cookie.value(), 0xC00C1Eu);
  for (const auto& [key, addr] : model) {
    auto ref = restored.Get(key);
    ASSERT_TRUE(ref.ok()) << key;
    EXPECT_EQ(ref.value().addr, addr);
  }
}

TEST_F(LsmTreeTest, RestoreWithoutManifestFails) {
  LsmTree fresh(&ftl_, &metrics_, Config());
  EXPECT_TRUE(fresh.Restore().status().IsNotFound());
}

TEST_F(LsmTreeTest, ForEachLiveVisitsEverything) {
  // Live entries, overwrites and tombstones spread over L1, L0 and the
  // MemTable; the model is the newest version of every key.
  std::map<std::string, std::uint64_t> model;
  auto put = [&](int i, std::uint64_t addr) {
    ASSERT_TRUE(lsm_.Put(Key(i), {addr, 4, false}).ok());
    model[Key(i)] = addr;
  };
  auto del = [&](int i) {
    ASSERT_TRUE(lsm_.Delete(Key(i)).ok());
    model.erase(Key(i));
  };
  for (int i = 0; i < 300; ++i) put(i, static_cast<std::uint64_t>(i));
  for (int i = 0; i < 300; i += 7) del(i);
  // Until a flush leaves L0 nonempty and the MemTable nearly empty.
  for (int i = 0; lsm_.TableCount(0) == 0 || lsm_.memtable_entries() > 4;
       ++i) {
    put(i * 5 % 400, 1000 + static_cast<std::uint64_t>(i));
    if (i % 4 == 0) del(i * 3 % 300);
  }
  // A handful more stays in the MemTable.
  for (int i = 0; i < 5; ++i) put(i * 11, 5000 + static_cast<std::uint64_t>(i));
  for (int i = 1; i < 60; i += 13) del(i);
  ASSERT_GT(lsm_.TableCount(1), 0u);
  ASSERT_GT(lsm_.TableCount(0), 0u);
  ASSERT_GT(lsm_.memtable_entries(), 0u);

  std::vector<std::pair<std::string, ValueRef>> visited;
  ASSERT_TRUE(lsm_.ForEachLive([&](std::string_view key, const ValueRef& ref) {
    visited.emplace_back(key, ref);
  }).ok());
  auto iter = lsm_.NewIterator();
  ASSERT_TRUE(iter.ok());
  std::size_t n = 0;
  for (auto& it = *iter.value(); it.Valid(); it.Next(), ++n) {
    ASSERT_LT(n, visited.size());
    EXPECT_EQ(visited[n].first, it.key());
    EXPECT_EQ(visited[n].second.addr, it.ref().addr);
    EXPECT_EQ(visited[n].second.size, it.ref().size);
    EXPECT_FALSE(visited[n].second.tombstone);
  }
  EXPECT_EQ(n, visited.size());
  ASSERT_EQ(visited.size(), model.size());
  auto expected = model.begin();
  for (const auto& [key, ref] : visited) {
    EXPECT_EQ(key, expected->first);
    EXPECT_EQ(ref.addr, expected->second);
    ++expected;
  }
}

TEST_F(LsmTreeTest, CompactionTrimsOldTablesAfterCheckpoint) {
  // After heavy churn, dead SSTable pages must be reclaimed — but only once
  // a checkpoint makes the new table set durable (trims are deferred so a
  // power cycle can never resurrect dangling manifest references).
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(
          lsm_.Put(Key(i), {static_cast<std::uint64_t>(round), 4, false}).ok());
    }
  }
  const std::uint64_t mapped_before_checkpoint = ftl_.mapped_pages();
  ASSERT_TRUE(lsm_.Checkpoint(0).ok());
  // Mapped LSM pages are now bounded by live tables + manifest, far less
  // than all pages ever written.
  const std::uint64_t written = metrics_.CounterValue("ftl.programs.lsm");
  EXPECT_GT(written, ftl_.mapped_pages());
  EXPECT_LT(ftl_.mapped_pages(), mapped_before_checkpoint);
}



// ----------------------- Page-aligned format -------------------------------

TEST_F(SSTableTest, PagesAreSelfContained) {
  auto entries = MakeEntries(3000);  // Spans several pages.
  auto meta = WriteTable(&ftl_, 10, kLsmLpnBase + 100, entries);
  ASSERT_TRUE(meta.ok());
  ASSERT_GT(meta.value().page_count, 1u);
  ASSERT_EQ(meta.value().fence_keys.size(), meta.value().page_count);
  // Each page decodes independently and starts at its fence key.
  std::size_t total = 0;
  for (std::uint32_t p = 0; p < meta.value().page_count; ++p) {
    auto page = ReadSSTablePage(&ftl_, meta.value(), p);
    ASSERT_TRUE(page.ok()) << p;
    ASSERT_FALSE(page.value().empty());
    EXPECT_EQ(page.value().front().key, meta.value().fence_keys[p]);
    total += page.value().size();
  }
  EXPECT_EQ(total, entries.size());
  EXPECT_FALSE(ReadSSTablePage(&ftl_, meta.value(), meta.value().page_count).ok());
}

TEST_F(SSTableTest, PageForKeyFindsUniqueCandidate) {
  auto entries = MakeEntries(3000);
  auto meta = WriteTable(&ftl_, 11, kLsmLpnBase + 200, entries);
  ASSERT_TRUE(meta.ok());
  // Every entry's key maps to the page that actually contains it.
  for (std::size_t i = 0; i < entries.size(); i += 97) {
    const int p = meta.value().PageForKey(entries[i].key.view());
    ASSERT_GE(p, 0);
    auto page = ReadSSTablePage(&ftl_, meta.value(), static_cast<std::uint32_t>(p));
    ASSERT_TRUE(page.ok());
    bool found = false;
    for (const auto& e : page.value()) found |= (e.key == entries[i].key);
    EXPECT_TRUE(found) << entries[i].key.view();
  }
  // Below the minimum key: no candidate page.
  EXPECT_EQ(meta.value().PageForKey(""), -1);
}

TEST_F(SSTableTest, KeyLengthOutsideOneToSixteenIsCorruption) {
  // A page as the writer lays it out, with one entry whose key length
  // byte is 0 or 17: the decoder must refuse it before it copies a byte.
  for (const std::uint8_t key_len : {std::uint8_t{0}, std::uint8_t{17}}) {
    Bytes page;
    PutU32(&page, kSSTableMagic);
    PutU32(&page, 1);
    page.push_back(key_len);
    page.insert(page.end(), key_len, 'k');
    PutU64(&page, 42);
    PutU32(&page, 8);
    page.push_back(0);
    SSTableMeta meta;
    meta.first_lpn = kLsmLpnBase + 300 + key_len;
    meta.page_count = 1;
    ASSERT_TRUE(ftl_.Write(meta.first_lpn, ByteSpan(page), ftl::Stream::kLsm,
                           /*retain=*/true)
                    .ok());
    auto decoded = ReadSSTablePage(&ftl_, meta, 0);
    ASSERT_FALSE(decoded.ok()) << int{key_len};
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << int{key_len};
  }
}

TEST_F(LsmTreeTest, OverlongKeysMissAndSeekInStringOrder) {
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(Key(i * 3));
  keys.push_back("0000030000000000");  // 16 bytes: a prefix of a probe below.
  for (const std::string& key : keys) {
    ASSERT_TRUE(lsm_.Put(key, {1, 1, false}).ok());
  }
  std::sort(keys.begin(), keys.end());
  ASSERT_GT(lsm_.memtable_flushes(), 0u);
  auto iter = lsm_.NewIterator();
  ASSERT_TRUE(iter.ok());
  for (const std::string& probe :
       {Key(30) + "123456789", std::string("0000030000000000") + "0",
        Key(598) + "zzzzzzzzzzzzzz", std::string(20, '\xff')}) {
    ASSERT_GT(probe.size(), kMaxKeySize);
    EXPECT_TRUE(lsm_.Get(probe).status().IsNotFound());
    iter.value()->Seek(probe);
    auto want = std::lower_bound(keys.begin(), keys.end(), probe);
    ASSERT_EQ(iter.value()->Valid(), want != keys.end()) << probe;
    if (want != keys.end()) {
      EXPECT_EQ(iter.value()->key(), *want) << probe;
    }
  }
}

TEST_F(LsmTreeTest, PointLookupReadsAtMostOnePage) {
  // Far more entries than one page holds; drop in-memory caches by
  // round-tripping through the manifest.
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false}).ok());
  }
  ASSERT_TRUE(lsm_.Checkpoint(0).ok());
  LsmConfig config = Config();
  config.page_cache_pages = 0;  // Disable caching: count raw page reads.
  LsmTree cold(&ftl_, &metrics_, config);
  ASSERT_TRUE(cold.Restore().ok());
  for (int i = 100; i < 120; ++i) {
    const std::uint64_t before = nand_.pages_read();
    auto ref = cold.Get(Key(i));
    ASSERT_TRUE(ref.ok()) << i;
    EXPECT_EQ(ref.value().addr, static_cast<std::uint64_t>(i));
    // One page per probed table, and tables are disjoint past L0.
    EXPECT_LE(nand_.pages_read() - before, 3u) << i;
  }
}

TEST_F(LsmTreeTest, PageCacheServesRepeatLookups) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false}).ok());
  }
  ASSERT_TRUE(lsm_.Checkpoint(0).ok());
  LsmTree cold(&ftl_, &metrics_, Config());
  ASSERT_TRUE(cold.Restore().ok());
  ASSERT_TRUE(cold.Get(Key(500)).ok());
  const std::uint64_t after_first = nand_.pages_read();
  // Same key again: fully served from the decoded-page cache.
  ASSERT_TRUE(cold.Get(Key(500)).ok());
  EXPECT_EQ(nand_.pages_read(), after_first);
}

TEST_F(LsmTreeTest, PointLookupsMatchMapInEveryResidency) {
  // Keys that stress the point indexes: pairs sharing their first 8 bytes
  // or their first 15, a key and the same key with a trailing 0x00, and
  // 16-byte keys.
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    const std::string base = Key(i);
    const std::string fifteen = base + "-prefix";
    keys.insert(keys.end(), {base, base + '\0', base + '#', fifteen,
                             fifteen + 'x', fifteen + 'y'});
  }
  std::map<std::string, ValueRef> model;
  Xoshiro256 rng(0x5E51D);
  auto run = [&](LsmTree& tree, int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::string& key = keys[rng.Below(keys.size())];
      if (rng.Below(5) == 0) {
        ASSERT_TRUE(tree.Delete(key).ok());
        model[key] = ValueRef{0, 0, true};
      } else {
        const ValueRef ref{rng() >> 20, 1 + static_cast<std::uint32_t>(rng.Below(512)),
                           false};
        ASSERT_TRUE(tree.Put(key, ref).ok());
        model[key] = ref;
      }
    }
  };
  // Every key of the universe, plus in-range keys no Put ever writes.
  auto check = [&](LsmTree& tree, const char* stage) {
    for (const std::string& key : keys) {
      auto got = tree.Get(key);
      auto want = model.find(key);
      if (want == model.end() || want->second.tombstone) {
        ASSERT_TRUE(got.status().IsNotFound()) << stage << " " << key;
        continue;
      }
      ASSERT_TRUE(got.ok()) << stage << " " << key;
      EXPECT_EQ(got.value().addr, want->second.addr) << stage;
      EXPECT_EQ(got.value().size, want->second.size) << stage;
    }
    for (int i = 0; i < 500; i += 7) {
      EXPECT_TRUE(tree.Get(Key(i) + "-prefi").status().IsNotFound()) << stage;
      EXPECT_TRUE(tree.Get(Key(i) + "-prefixz").status().IsNotFound()) << stage;
    }
  };

  run(lsm_, 25);
  ASSERT_EQ(lsm_.memtable_flushes(), 0u);
  check(lsm_, "memtable");
  ASSERT_TRUE(lsm_.FlushMemTable().ok());
  ASSERT_EQ(lsm_.TableCount(0), 1u);
  check(lsm_, "resident L0");
  run(lsm_, 6000);
  ASSERT_GT(lsm_.compactions_run(), 0u);
  ASSERT_GT(lsm_.TableCount(2), 0u);
  check(lsm_, "resident levels");
  ASSERT_TRUE(lsm_.Checkpoint(1).ok());

  // A fresh tree over the same FTL holds no table in DRAM, and an L1
  // target this small makes its compactions read their victims back.
  LsmConfig config = Config();
  config.level_base_bytes = 1024;
  LsmTree restored(&ftl_, &metrics_, config);
  ASSERT_TRUE(restored.Restore().ok());
  check(restored, "restored");
  auto step = restored.CompactStep(1);
  ASSERT_TRUE(step.ok());
  ASSERT_TRUE(step.value());
  check(restored, "loaded by compaction");
  run(restored, 2000);
  check(restored, "restored, then written");
  ASSERT_TRUE(restored.NewIterator().ok());  // Loads every table.
  check(restored, "every table loaded");
}

TEST_F(LsmTreeTest, LargeResidentTableIndexMatchesOnlyItsOwnKeys) {
  // One resident table so large that an index slot keeps only 14 bits of
  // its key's hash: the absent keys (each sharing its first 8 bytes with a
  // present one) meet matching bits about once per ten thousand probes and
  // must still miss.
  constexpr int kKeys = 150000;
  LsmConfig config;
  config.sstable_target_bytes = 16 << 20;
  config.level_base_bytes = 64 << 20;
  LsmTree tree(&ftl_, &metrics_, config);
  for (int i = 0; i < kKeys; ++i) {
    const int k = static_cast<int>(static_cast<std::int64_t>(i) * 7919 % kKeys);
    ASSERT_TRUE(tree.Put(Key(k) + "p", {static_cast<std::uint64_t>(k), 4, false}).ok());
  }
  ASSERT_TRUE(tree.FlushMemTable().ok());
  ASSERT_EQ(tree.TableCount(1), 1u);
  ASSERT_GT(tree.table_meta(1, 0).entry_count, 1u << 17);
  for (int k = 0; k < kKeys; ++k) {
    auto ref = tree.Get(Key(k) + "p");
    ASSERT_TRUE(ref.ok()) << k;
    ASSERT_EQ(ref.value().addr, static_cast<std::uint64_t>(k));
    ASSERT_TRUE(tree.Get(Key(k) + "a").status().IsNotFound()) << k;
  }
}

// --------------------------- Bloom filter ----------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("bloomkey" + std::to_string(i));
    bloom.Add(keys.back());
  }
  for (const auto& key : keys) {
    EXPECT_TRUE(bloom.MayContain(key)) << key;
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.Add("in" + std::to_string(i));
  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (bloom.MayContain("out" + std::to_string(i))) ++false_positives;
  }
  // 10 bits/key, 7 probes: ~1 %; allow generous slack.
  EXPECT_LT(false_positives, probes / 25);
}

TEST(BloomFilterTest, EmptyFilterSaysMaybe) {
  BloomFilter bloom;
  EXPECT_TRUE(bloom.MayContain("anything"));
}

TEST(BloomFilterTest, SerializationRoundTrip) {
  BloomFilter bloom(100);
  for (int i = 0; i < 100; ++i) bloom.Add("k" + std::to_string(i));
  BloomFilter restored(Bytes(bloom.bits()));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(restored.MayContain("k" + std::to_string(i)));
  }
}

TEST_F(LsmTreeTest, BloomSkipsTableLoadsForAbsentKeys) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {1, 1, false}).ok());
  }
  // Probe far-away absent keys within the written key range: range checks
  // alone cannot skip, bloom filters must.
  const std::uint64_t reads_before = nand_.pages_read();
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(lsm_.Get(Key(i) + "x").status().IsNotFound());
  }
  const std::uint64_t reads_during = nand_.pages_read() - reads_before;
  EXPECT_GT(metrics_.CounterValue("lsm.bloom_skips"), 100u);
  // Nearly all misses avoided table loads (tables are also cached, so the
  // absolute read count stays tiny).
  EXPECT_LT(reads_during, 50u);
}

TEST_F(LsmTreeTest, BloomSurvivesManifestRoundTrip) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {static_cast<std::uint64_t>(i), 1, false}).ok());
  }
  ASSERT_TRUE(lsm_.Checkpoint(1).ok());
  LsmTree restored(&ftl_, &metrics_, Config());
  ASSERT_TRUE(restored.Restore().ok());
  const std::uint64_t skips_before = metrics_.CounterValue("lsm.bloom_skips");
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(restored.Get(Key(i) + "q").status().IsNotFound());
  }
  EXPECT_GT(metrics_.CounterValue("lsm.bloom_skips"), skips_before);
  // And present keys still resolve through the restored filters.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(restored.Get(Key(i)).ok()) << i;
  }
}

// ----------------------- Telemetry instrumentation -------------------------

TEST_F(LsmTreeTest, MemtableStallCountsAndEmitsEvents) {
  // A fresh tree wired to an event log; trigger 3 means the third flush
  // lands while L0 already holds 2 runs -> that flush is a stall.
  telemetry::EventLog log(&clock_, 64);
  LsmConfig cfg = Config();
  cfg.memtable_limit_bytes = 1 << 20;  // Flush manually, not by size.
  LsmTree tree(&ftl_, &metrics_, cfg, &log);

  for (int flush = 0; flush < 2; ++flush) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          tree.Put(Key(flush * 10 + i), {static_cast<std::uint64_t>(i), 4,
                                         false})
              .ok());
    }
    ASSERT_TRUE(tree.FlushMemTable().ok());
  }
  EXPECT_EQ(tree.memtable_stalls(), 0u);
  EXPECT_EQ(log.count(telemetry::EventType::kMemtableStall), 0u);

  ASSERT_TRUE(tree.Put(Key(99), {1, 4, false}).ok());
  ASSERT_TRUE(tree.FlushMemTable().ok());  // L0 was at 2: 2+1 >= trigger 3.
  EXPECT_EQ(tree.memtable_stalls(), 1u);
  EXPECT_EQ(metrics_.CounterValue("lsm.memtable_stalls"), 1u);
  EXPECT_EQ(log.count(telemetry::EventType::kMemtableStall), 1u);
  // The stall flush pushed L0 to the trigger, so it compacted down inline.
  EXPECT_GE(log.count(telemetry::EventType::kCompactionStart), 1u);
  EXPECT_EQ(log.count(telemetry::EventType::kCompactionStart),
            log.count(telemetry::EventType::kCompactionEnd));
  EXPECT_EQ(tree.CompactionDebtBytes(), 0u);  // Fully drained.
  EXPECT_FALSE(tree.flush_in_progress());
  EXPECT_FALSE(tree.compaction_in_progress());
}

TEST_F(LsmTreeTest, CompactionEventsCarryLevelAndBytes) {
  telemetry::EventLog log(&clock_, 256);
  LsmTree tree(&ftl_, &metrics_, Config(), &log);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false})
                    .ok());
  }
  ASSERT_TRUE(tree.FlushMemTable().ok());
  ASSERT_GE(log.count(telemetry::EventType::kCompactionStart), 1u);

  std::uint64_t end_bytes = 0;
  for (const auto& rec : log.records()) {
    if (rec.type == telemetry::EventType::kCompactionStart) {
      // a = source level, b = tables in the source level at entry.
      EXPECT_LT(rec.a, static_cast<std::uint64_t>(Config().max_levels));
      EXPECT_GE(rec.b, 1u);
    } else if (rec.type == telemetry::EventType::kCompactionEnd) {
      end_bytes += rec.b;  // b = SSTable bytes written by this compaction.
    }
  }
  EXPECT_GT(end_bytes, 0u);
  EXPECT_EQ(end_bytes, tree.compaction_bytes_written());
  EXPECT_EQ(metrics_.CounterValue("lsm.compaction_bytes_written"), end_bytes);
}

TEST_F(LsmTreeTest, CompactionDebtAppearsWhenPassBudgetExhausts) {
  // An L0 flood bigger than one 64-pass MaybeCompact can drain: trigger 100
  // runs of ~20 B encoded entries, split into 64-byte output tables. Debt
  // must become visible right after the flood flush, then drain back to
  // zero as later flushes spend their own compaction budgets.
  LsmConfig cfg;
  cfg.memtable_limit_bytes = 256;
  cfg.l0_compaction_trigger = 100;
  cfg.level_base_bytes = 256;
  cfg.sstable_target_bytes = 64;
  cfg.max_levels = 3;
  LsmTree tree(&ftl_, &metrics_, cfg);

  bool saw_debt = false;
  int i = 0;
  for (; i < 4000 && !saw_debt; ++i) {
    ASSERT_TRUE(tree.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false})
                    .ok());
    saw_debt = tree.CompactionDebtBytes() > 0;
  }
  ASSERT_TRUE(saw_debt) << "flood never exceeded the compaction budget";
  for (; i < 8000 && tree.CompactionDebtBytes() > 0; ++i) {
    ASSERT_TRUE(tree.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false})
                    .ok());
  }
  EXPECT_EQ(tree.CompactionDebtBytes(), 0u) << "debt never drained";
}

TEST_F(LsmTreeTest, PendingTrimTablesDropsToZeroAfterCheckpoint) {
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(
          lsm_.Put(Key(i), {static_cast<std::uint64_t>(round), 4, false})
              .ok());
    }
  }
  ASSERT_TRUE(lsm_.FlushMemTable().ok());
  // Churn replaced tables; their pages wait for a checkpoint to be trimmed.
  EXPECT_GT(lsm_.pending_trim_tables(), 0u);
  ASSERT_TRUE(lsm_.Checkpoint(0).ok());
  EXPECT_EQ(lsm_.pending_trim_tables(), 0u);
}

// ----------------------- Compaction contract -------------------------------

TEST_F(LsmTreeTest, CompactionStreamDigestIsPinned) {
  // A seeded Put/Delete/CompactStep/Checkpoint stream deep enough to
  // reach L3 with the tiny config. The digest covers every byte the tree
  // leaves on NAND, the manifest, the iterator's view and the clock, so
  // any change to what compaction writes (or when) moves it.
  Xoshiro256 rng(0xD16E57);
  for (int i = 0; i < 36000; ++i) {
    const std::uint64_t r = rng.Below(100);
    const std::string key = Key(static_cast<int>(rng.Below(16000)));
    if (r < 80) {
      ASSERT_TRUE(lsm_.Put(key, {rng() >> 20, 8, false}).ok());
    } else if (r < 90) {
      ASSERT_TRUE(lsm_.Delete(key).ok());
    } else if (r < 99) {
      ASSERT_TRUE(lsm_.CompactStep(rng.Below(4)).ok());
    } else {
      ASSERT_TRUE(lsm_.Checkpoint(static_cast<std::uint64_t>(i)).ok());
    }
  }
  ASSERT_TRUE(lsm_.Checkpoint(7).ok());
  ASSERT_GT(lsm_.TableCount(3), 0u);

  EXPECT_EQ(clock_.Now(), 1912400000u);
  Digest d;
  d.Add(lsm_.compactions_run());
  d.Add(lsm_.compaction_bytes_written());
  d.Add(clock_.Now());
  auto iter = lsm_.NewIterator();
  ASSERT_TRUE(iter.ok());
  for (auto& it = *iter.value(); it.Valid(); it.Next()) {
    d.Add(it.key());
    d.Add(it.ref().addr);
    d.Add(it.ref().size);
  }
  Bytes page(kNandPageSize);
  const std::uint64_t programs = metrics_.CounterValue("ftl.programs.lsm");
  std::uint64_t mapped = 0;
  for (std::uint64_t lpn = kLsmLpnBase; lpn < kLsmLpnBase + programs; ++lpn) {
    if (!ftl_.IsMapped(lpn)) continue;
    ASSERT_TRUE(ftl_.Read(lpn, MutByteSpan(page)).ok()) << lpn;
    d.Add(lpn);
    d.Add(page.data(), page.size());
    ++mapped;
  }
  for (std::uint64_t lpn = kManifestLpn; ftl_.IsMapped(lpn); ++lpn) {
    ASSERT_TRUE(ftl_.Read(lpn, MutByteSpan(page)).ok()) << lpn;
    d.Add(lpn);
    d.Add(page.data(), page.size());
  }
  // Recorded with the two-function, whole-run compactor: the streaming
  // path must leave every byte and every virtual nanosecond unchanged.
  EXPECT_EQ(lsm_.compactions_run(), 905u);
  EXPECT_EQ(lsm_.compaction_bytes_written(), 21818192u);
  EXPECT_EQ(mapped, 41u);
  EXPECT_EQ(d.h, 0xca8c1abe24c25467ULL);
}

TEST_F(LsmTreeTest, LookupStreamDigestIsPinned) {
  // A seeded Put/Delete/Get/CompactStep/Checkpoint stream, then GETs on a
  // tree restored from its manifest: the page cache and the decoded
  // filters serve the second half. The digest covers every GET result, the
  // bloom skips, the NAND pages read and the clock, so any change to when
  // a lookup reads a page (or what it returns) moves it.
  Digest d;
  auto get = [&](LsmTree& tree, const std::string& key) {
    auto ref = tree.Get(key);
    d.Add(static_cast<std::uint64_t>(ref.status().code()));
    if (ref.ok()) {
      d.Add(ref.value().addr);
      d.Add(ref.value().size);
    }
  };
  // One in four probes misses every table's key set but not its range.
  auto probe = [&](Xoshiro256& rng) {
    std::string key = Key(static_cast<int>(rng.Below(20000)));
    if (rng.Below(4) == 0) key += "q";
    return key;
  };
  Xoshiro256 rng(0x100C0B);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t r = rng.Below(100);
    if (r < 50) {
      ASSERT_TRUE(lsm_.Put(Key(static_cast<int>(rng.Below(20000))),
                           {rng() >> 20, 8, false})
                      .ok());
    } else if (r < 58) {
      ASSERT_TRUE(lsm_.Delete(Key(static_cast<int>(rng.Below(20000)))).ok());
    } else if (r < 95) {
      get(lsm_, probe(rng));
    } else if (r < 99) {
      ASSERT_TRUE(lsm_.CompactStep(rng.Below(4)).ok());
    } else {
      ASSERT_TRUE(lsm_.Checkpoint(static_cast<std::uint64_t>(i)).ok());
    }
  }
  ASSERT_TRUE(lsm_.Checkpoint(9).ok());
  // A cache far smaller than the tree, so pages are evicted and re-read.
  LsmConfig cold = Config();
  cold.page_cache_pages = 8;
  LsmTree restored(&ftl_, &metrics_, cold);
  ASSERT_TRUE(restored.Restore().ok());
  for (int i = 0; i < 6000; ++i) get(restored, probe(rng));

  const std::uint64_t skips = metrics_.CounterValue("lsm.bloom_skips");
  d.Add(skips);
  d.Add(nand_.pages_read());
  d.Add(clock_.Now());
  // Recorded with string keys and filters built in TableWriter::Finish.
  EXPECT_EQ(skips, 38046u);
  EXPECT_EQ(nand_.pages_read(), 1875u);
  EXPECT_EQ(clock_.Now(), 1115600000u);
  EXPECT_EQ(d.h, 0x2d0d876d1107e56bULL);
}

TEST_F(LsmTreeTest, FailedCompactionReadKeepsTheVictim) {
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(lsm_.Put(Key(i), {static_cast<std::uint64_t>(i), 4, false}).ok());
  }
  ASSERT_TRUE(lsm_.Checkpoint(0).ok());
  // A restored tree holds no table caches, and an L1 target this small
  // makes L1 due: CompactStep must read its victim from NAND.
  LsmConfig config = Config();
  config.level_base_bytes = 1024;
  LsmTree tree(&ftl_, &metrics_, config);
  ASSERT_TRUE(tree.Restore().ok());
  ASSERT_EQ(tree.TableCount(0), 0u);
  std::vector<std::size_t> layout;
  for (int l = 0; l < tree.level_count(); ++l) layout.push_back(tree.TableCount(l));
  ASSERT_GT(layout[1], 0u);

  fault::FaultConfig fail_next_read;
  fail_next_read.triggers = {{fault::FaultSite::kNandRead, 0}};
  faults_ = fault::FaultPlan(fail_next_read);
  auto step = tree.CompactStep(1);
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kMediaError);
  EXPECT_FALSE(tree.compaction_in_progress());
  for (int l = 0; l < tree.level_count(); ++l) {
    EXPECT_EQ(tree.TableCount(l), layout[static_cast<std::size_t>(l)]) << l;
  }
  for (int i = 0; i < 3000; ++i) {
    auto ref = tree.Get(Key(i));
    ASSERT_TRUE(ref.ok()) << Key(i);
    EXPECT_EQ(ref.value().addr, static_cast<std::uint64_t>(i));
  }

  faults_ = fault::FaultPlan();
  auto retry = tree.CompactStep(1);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry.value());
  EXPECT_FALSE(tree.compaction_in_progress());
  for (int i = 0; i < 3000; ++i) {
    auto ref = tree.Get(Key(i));
    ASSERT_TRUE(ref.ok()) << Key(i);
    EXPECT_EQ(ref.value().addr, static_cast<std::uint64_t>(i));
  }
}

}  // namespace
}  // namespace bandslim::lsm
