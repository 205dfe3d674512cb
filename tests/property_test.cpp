// Cross-stack property tests (DESIGN.md invariant #1): randomized operation
// sequences against a std::map reference model, parameterized over every
// transfer method x packing policy combination.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/kvssd.h"
#include "workload/value_gen.h"

namespace bandslim {
namespace {

struct Combo {
  driver::TransferMethod method;
  buffer::PackingPolicy policy;
};

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  return std::string(driver::MethodName(info.param.method)) + "_" +
         buffer::PolicyName(info.param.policy);
}

class FullStackPropertyTest : public ::testing::TestWithParam<Combo> {
 protected:
  std::unique_ptr<KvSsd> OpenDevice() {
    KvSsdOptions o;
    o.geometry.channels = 2;
    o.geometry.ways = 2;
    o.geometry.blocks_per_die = 256;
    o.geometry.pages_per_block = 32;
    o.buffer.num_entries = 16;
    o.buffer.dlt_entries = 16;
    o.lsm.memtable_limit_bytes = 8 * 1024;
    o.driver.method = GetParam().method;
    o.buffer.policy = GetParam().policy;
    return KvSsd::Open(o).value();
  }
};

TEST_P(FullStackPropertyTest, RandomOpsMatchReferenceModel) {
  auto ssd = OpenDevice();
  std::map<std::string, Bytes> model;
  Xoshiro256 rng(0xFACE);
  const int kKeySpace = 150;

  for (int i = 0; i < 1200; ++i) {
    const std::string key = "p" + std::to_string(rng.Below(kKeySpace));
    const double dice = rng.NextDouble();
    if (dice < 0.70) {
      // Size mix spanning every transfer path: tiny, multi-fragment,
      // page-size, hybrid.
      static constexpr std::size_t kSizes[] = {1,    8,    35,   36,  100,
                                               512,  2048, 4095, 4096, 4128,
                                               5000, 8192};
      const std::size_t size = kSizes[rng.Below(std::size(kSizes))];
      Bytes v = workload::MakeValue(size, 77, static_cast<std::uint64_t>(i));
      ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok()) << "op " << i;
      model[key] = std::move(v);
    } else if (dice < 0.85) {
      ASSERT_TRUE(ssd->Delete(key).ok());
      model.erase(key);
    } else {
      auto got = ssd->Get(key);
      auto expected = model.find(key);
      if (expected == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << "op " << i << " key " << key;
      } else {
        ASSERT_TRUE(got.ok()) << "op " << i << " key " << key << " "
                              << got.status().ToString();
        EXPECT_EQ(got.value(), expected->second) << "op " << i;
      }
    }
    if (i % 211 == 0) {
      ASSERT_TRUE(ssd->Flush().ok());
    }
  }

  // Final audit: every model entry readable, iterator sees exactly the
  // model's keys in order.
  for (const auto& [key, expected] : model) {
    auto got = ssd->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), expected) << key;
  }
  auto iter = ssd->Seek("");
  ASSERT_TRUE(iter.ok());
  auto expected_it = model.begin();
  for (auto& it = iter.value(); it.Valid();) {
    ASSERT_NE(expected_it, model.end());
    EXPECT_EQ(it.key(), expected_it->first);
    EXPECT_EQ(it.value(), expected_it->second);
    ++expected_it;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(expected_it, model.end());
}

TEST_P(FullStackPropertyTest, GcThenRecoveryPreservesModel) {
  auto ssd = OpenDevice();
  std::map<std::string, Bytes> model;
  Xoshiro256 rng(0xBEEF);
  for (int i = 0; i < 300; ++i) {
    const std::string key = "q" + std::to_string(rng.Below(80));
    Bytes v = workload::MakeValue(1 + rng.Below(3000), 88,
                                  static_cast<std::uint64_t>(i));
    ASSERT_TRUE(ssd->Put(key, ByteSpan(v)).ok());
    model[key] = std::move(v);
  }
  ASSERT_TRUE(ssd->Flush().ok());
  ASSERT_TRUE(ssd->CollectVlogGarbage().ok());
  ASSERT_TRUE(ssd->Flush().ok());
  ASSERT_TRUE(ssd->PowerCycle().ok());
  for (const auto& [key, expected] : model) {
    auto got = ssd->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), expected) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, FullStackPropertyTest,
    ::testing::Values(
        Combo{driver::TransferMethod::kPrp, buffer::PackingPolicy::kBlock},
        Combo{driver::TransferMethod::kPrp, buffer::PackingPolicy::kAll},
        Combo{driver::TransferMethod::kPiggyback, buffer::PackingPolicy::kBlock},
        Combo{driver::TransferMethod::kPiggyback, buffer::PackingPolicy::kAll},
        Combo{driver::TransferMethod::kAdaptive, buffer::PackingPolicy::kAll},
        Combo{driver::TransferMethod::kAdaptive, buffer::PackingPolicy::kSelective},
        Combo{driver::TransferMethod::kAdaptive,
              buffer::PackingPolicy::kSelectiveBackfill},
        Combo{driver::TransferMethod::kHybrid,
              buffer::PackingPolicy::kSelectiveBackfill}),
    ComboName);

}  // namespace
}  // namespace bandslim
