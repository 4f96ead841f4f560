// Stats timers/counters and per-level read accounting.
#include "util/stats.h"

#include <gtest/gtest.h>

namespace lilsm {
namespace {

TEST(StatsTest, CountersAccumulate) {
  Stats stats;
  stats.Add(Counter::kPointLookups);
  stats.Add(Counter::kPointLookups, 9);
  EXPECT_EQ(stats.Count(Counter::kPointLookups), 10u);
  EXPECT_EQ(stats.Count(Counter::kRangeLookups), 0u);
}

TEST(StatsTest, TimersTrackTotalsAndMeans) {
  Stats stats;
  stats.AddTime(Timer::kDiskRead, 1000);
  stats.AddTime(Timer::kDiskRead, 3000);
  EXPECT_EQ(stats.TimeNanos(Timer::kDiskRead), 4000u);
  EXPECT_EQ(stats.TimerCount(Timer::kDiskRead), 2u);
  EXPECT_DOUBLE_EQ(stats.MeanMicros(Timer::kDiskRead), 2.0);
}

TEST(StatsTest, ScopedTimerRecordsElapsed) {
  Stats stats;
  Env* env = Env::Default();
  {
    ScopedTimer timer(&stats, Timer::kBloomCheck, env);
    volatile int x = 0;
    for (int i = 0; i < 10000; i++) x = x + i;
  }
  EXPECT_EQ(stats.TimerCount(Timer::kBloomCheck), 1u);
  EXPECT_GT(stats.TimeNanos(Timer::kBloomCheck), 0u);
}

TEST(StatsTest, NullTargetIsNoOp) {
  Env* env = Env::Default();
  ScopedTimer timer(nullptr, Timer::kBloomCheck, env);  // must not crash
}

TEST(StatsTest, LevelReadsAttributeByLevel) {
  Stats stats;
  stats.AddLevelRead(0, 100);
  stats.AddLevelRead(2, 300);
  stats.AddLevelRead(2, 200);
  EXPECT_EQ(stats.LevelReadNanos(0), 100u);
  EXPECT_EQ(stats.LevelReads(2), 2u);
  EXPECT_EQ(stats.LevelReadNanos(2), 500u);
  stats.AddLevelRead(99, 5);  // out of range: ignored, no crash
}

TEST(StatsTest, ResetClearsEverything) {
  Stats stats;
  stats.Add(Counter::kWrites, 5);
  stats.AddTime(Timer::kDiskRead, 100);
  stats.AddLevelRead(1, 10);
  stats.Reset();
  EXPECT_EQ(stats.Count(Counter::kWrites), 0u);
  EXPECT_EQ(stats.TimeNanos(Timer::kDiskRead), 0u);
  EXPECT_EQ(stats.LevelReads(1), 0u);
}

TEST(StatsTest, NamesAreStable) {
  EXPECT_STREQ(TimerName(Timer::kDiskRead), "disk_read");
  EXPECT_STREQ(TimerName(Timer::kCompactTrain), "compact_train");
  EXPECT_STREQ(CounterName(Counter::kBloomNegatives), "bloom_negatives");
  EXPECT_STREQ(TimerName(Timer::kMultiGet), "multiget");
  EXPECT_STREQ(CounterName(Counter::kMultiGetKeys), "multiget_keys");
  EXPECT_STREQ(CounterName(Counter::kMultiGetBatches), "multiget_batches");
  // Every enum value must have a real name (no "unknown" holes).
  for (int t = 0; t < static_cast<int>(Timer::kNumTimers); t++) {
    EXPECT_STRNE(TimerName(static_cast<Timer>(t)), "unknown") << t;
  }
  for (int c = 0; c < static_cast<int>(Counter::kNumCounters); c++) {
    EXPECT_STRNE(CounterName(static_cast<Counter>(c)), "unknown") << c;
  }
}

TEST(StatsTest, ToStringListsActiveEntries) {
  Stats stats;
  stats.Add(Counter::kFlushes, 3);
  stats.AddTime(Timer::kCompactTotal, 5000);
  const std::string out = stats.ToString();
  EXPECT_NE(out.find("flushes"), std::string::npos);
  EXPECT_NE(out.find("compact_total"), std::string::npos);
  EXPECT_EQ(out.find("disk_read"), std::string::npos);
}

// db_stats_sampling_test counts the clock reads; here an untimed op must
// record its counts and no time.
TEST(StatsTest, UntimedOpCountsWithoutTime) {
  Stats stats;
  Env* env = Env::Default();
  const OpStats untimed(&stats, /*time_scale=*/0);
  EXPECT_TRUE(static_cast<bool>(untimed));
  EXPECT_FALSE(untimed.timed());
  EXPECT_EQ(untimed.Start(env), 0u);
  {
    ScopedTimer timer(untimed, Timer::kBloomCheck, env);
  }
  untimed.StopLevelRead(2, env, untimed.Start(env));
  untimed.Add(Counter::kTablesConsulted);
  EXPECT_EQ(stats.TimerCount(Timer::kBloomCheck), 1u);
  EXPECT_EQ(stats.TimeNanos(Timer::kBloomCheck), 0u);
  EXPECT_EQ(stats.LevelReads(2), 1u);
  EXPECT_EQ(stats.LevelReadNanos(2), 0u);
  EXPECT_EQ(stats.Count(Counter::kTablesConsulted), 1u);
}

TEST(StatsTest, SampledOpScalesItsDurations) {
  Stats stats;
  Env* env = Env::Default();
  const OpStats sampled(&stats, /*time_scale=*/16);
  EXPECT_TRUE(sampled.timed());
  const uint64_t start = env->NowNanos() - 1000;  // a span of >= 1 us
  sampled.Stop(Timer::kDiskRead, env, start);
  sampled.StopLevelRead(1, env, start);
  EXPECT_EQ(stats.TimerCount(Timer::kDiskRead), 1u);
  EXPECT_GE(stats.TimeNanos(Timer::kDiskRead), 16u * 1000);
  EXPECT_EQ(stats.TimeNanos(Timer::kDiskRead) % 16, 0u);
  EXPECT_EQ(stats.LevelReads(1), 1u);
  EXPECT_EQ(stats.LevelReadNanos(1) % 16, 0u);
}

TEST(StatsTest, NullOpStatsRecordsNothing) {
  const OpStats none;
  EXPECT_FALSE(static_cast<bool>(none));
  EXPECT_FALSE(none.timed());
  none.Add(Counter::kWrites);  // must not crash
  ScopedTimer timer(none, Timer::kBloomCheck, Env::Default());
}

TEST(StatsTest, SampleOpTimesAboutOneInTheRate) {
  Stats stats;
  constexpr int kOps = 160000;
  int timed = 0;
  for (int i = 0; i < kOps; i++) {
    const OpStats op = stats.SampleOp();
    ASSERT_TRUE(static_cast<bool>(op));
    if (op.timed()) timed++;
  }
  const double expected = static_cast<double>(kOps) / kTimerSampleRate;
  EXPECT_NEAR(timed, expected, 0.05 * expected);
}

TEST(StatsTest, MergeAddsEveryCell) {
  Stats a, b;
  a.Add(Counter::kWrites, 2);
  a.AddTime(Timer::kDiskRead, 100);
  b.Add(Counter::kWrites, 3);
  b.AddTimerCount(Timer::kDiskRead);
  b.AddLevelRead(3, 50);
  b.AddLevelReadCount(3);
  a.Merge(b);
  EXPECT_EQ(a.Count(Counter::kWrites), 5u);
  EXPECT_EQ(a.TimerCount(Timer::kDiskRead), 2u);
  EXPECT_EQ(a.TimeNanos(Timer::kDiskRead), 100u);
  EXPECT_EQ(a.LevelReads(3), 2u);
  EXPECT_EQ(a.LevelReadNanos(3), 50u);
  EXPECT_EQ(b.Count(Counter::kWrites), 3u);  // the source is unchanged
}

}  // namespace
}  // namespace lilsm
