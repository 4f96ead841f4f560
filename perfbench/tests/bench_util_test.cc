// Unit tests of the benchmark harness's own helpers.
#include "bench_util.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

TEST(PercentileTest, KnownSamples) {
  std::vector<uint32_t> v(100);
  std::iota(v.begin(), v.end(), 1);  // 1..100
  std::vector<uint32_t> shuffled(v.rbegin(), v.rend());
  EXPECT_EQ(Percentile(&shuffled, 0.50), 50.0);
  EXPECT_EQ(Percentile(&shuffled, 0.99), 99.0);
  EXPECT_EQ(Percentile(&shuffled, 1.00), 100.0);
  EXPECT_EQ(Percentile(&shuffled, 0.0), 1.0);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(100000, 0.99), 1000u);
}

TEST(PercentileTest, SmallAndEmpty) {
  std::vector<uint32_t> empty;
  EXPECT_EQ(Percentile(&empty, 0.5), 0.0);
  std::vector<uint32_t> one = {7};
  EXPECT_EQ(Percentile(&one, 0.99), 7.0);
  std::vector<uint32_t> three = {30, 10, 20};
  EXPECT_EQ(Percentile(&three, 0.5), 20.0);
}

TEST(ValueCodecTest, RoundTrip) {
  for (uint64_t key : {0ull, 1ull, 123456789ull, ~0ull}) {
    for (uint64_t version : {1ull, (1ull << 40) | 5}) {
      const std::string v = EncodeValue(key, version);
      ASSERT_EQ(v.size(), kValueSize);
      uint64_t got = 0;
      EXPECT_TRUE(VerifyValue(key, v, &got));
      EXPECT_EQ(got, version);
    }
  }
}

TEST(ValueCodecTest, RejectsCorruptionAndWrongKey) {
  const std::string v = EncodeValue(42, 7);
  EXPECT_FALSE(VerifyValue(43, v));
  for (size_t i = 0; i < v.size(); i++) {
    std::string bad = v;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    EXPECT_FALSE(VerifyValue(42, bad)) << "flipped byte " << i;
  }
  EXPECT_FALSE(VerifyValue(42, v.substr(0, kValueSize - 1)));
  EXPECT_FALSE(VerifyValue(42, v + "x"));
}

TEST(SelfTimeTest, NestedSpans) {
  // root [0,100) -> a [10,40) -> a1 [15,25)
  //              -> b [50,90)
  // other root [200,210)
  std::vector<Span> spans(5);
  spans[0] = {0, 100, 1, 0, -1, 0};
  spans[1] = {10, 40, 1, 0, 0, 1};
  spans[2] = {15, 25, 1, 0, 1, 2};
  spans[3] = {50, 90, 1, 0, 0, 3};
  spans[4] = {200, 210, 2, 0, -1, 4};
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 30u);  // 100 - 30 - 40
  EXPECT_EQ(self[1], 20u);  // 30 - 10
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 40u);
  EXPECT_EQ(self[4], 10u);
  // Self times of one tree add up to its root's duration.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100u);

  const std::vector<int32_t> roots = RootsOf(spans);
  EXPECT_EQ(roots, (std::vector<int32_t>{0, 0, 0, 0, 4}));
}

TEST(SelfTimeTest, ChildOutsideParentIsClipped) {
  std::vector<Span> spans(2);
  spans[0] = {100, 200, 0, 0, -1, 0};
  spans[1] = {150, 260, 0, 0, 0, 1};  // overruns its parent by 60
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50u);
  EXPECT_EQ(self[1], 110u);
}

}  // namespace
}  // namespace perfbench
