// Sampled stage timers on the DB-wide Stats sink. A Get or MultiGet that
// records to DB::stats() times its stages once in kTimerSampleRate
// operations (durations scaled by the rate) and only counts the rest; a
// per-call ReadOptions::stats sink times every operation. These suites
// check the three halves of that contract: every count stays exact, an
// untimed lookup reads no clock, and the scaled durations are unbiased.
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/db.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 56;

/// Forwards everything to the default Env, except that its clock counts
/// its calls and steps a fixed amount per call. Under this clock every
/// span's duration is the step times the clock reads it encloses, so a
/// timed operation measures exactly what the same operation measures on
/// a per-call sink.
class SteppingClockEnv : public Env {
 public:
  static constexpr uint64_t kStepNanos = 100;

  uint64_t clock_reads() const {
    return clock_reads_.load(std::memory_order_relaxed);
  }
  void ResetClockReads() { clock_reads_.store(0, std::memory_order_relaxed); }

  uint64_t NowNanos() override {
    clock_reads_.fetch_add(1, std::memory_order_relaxed);
    return now_.fetch_add(kStepNanos, std::memory_order_relaxed) + kStepNanos;
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  Env* const base_ = Env::Default();
  std::atomic<uint64_t> clock_reads_{0};
  std::atomic<uint64_t> now_{0};
};

std::string ValueFor(Key key, int version) {
  return DeriveValue(key ^ (0x5EED5EEDu + version), kValueSize);
}

DBOptions TreeOptions(Env* env) {
  DBOptions options;
  options.env = env;
  options.write_buffer_size = 64 << 10;
  options.sstable_target_size = 32 << 10;
  options.size_ratio = 4;
  options.l0_compaction_trigger = 8;  // keep the overwrite flushes in L0
  options.value_size = kValueSize;
  return options;
}

/// Even keys with pseudo-random gaps, so key + 1 is always absent.
std::vector<Key> EvenKeys(size_t n, uint64_t seed) {
  std::vector<Key> keys = RandomGapKeys(n, seed);
  for (Key& key : keys) key *= 2;
  return keys;
}

/// `order` shuffled in place, deterministically.
void Shuffle(std::vector<size_t>* order, uint64_t seed) {
  Random rnd(seed);
  for (size_t i = order->size(); i > 1; i--) {
    std::swap((*order)[i - 1], (*order)[rnd.Uniform(i)]);
  }
}

/// A point_lookup-shaped tree: the keys, loaded in shuffled order and
/// compacted down to L1..L3, then shuffled overwrites of every fourth key
/// flushed into L0 files that each span the key range, and a few keys
/// left in the memtable.
void BuildTree(DB* db, const std::vector<Key>& keys) {
  std::vector<size_t> load(keys.size());
  for (size_t i = 0; i < load.size(); i++) load[i] = i;
  Shuffle(&load, 41);
  for (size_t i : load) {
    ASSERT_LILSM_OK(db->Put(keys[i], ValueFor(keys[i], 0)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());
  std::vector<size_t> overwrite;
  for (size_t i = 0; i < keys.size(); i += 4) overwrite.push_back(i);
  Shuffle(&overwrite, 43);
  for (size_t i : overwrite) {
    ASSERT_LILSM_OK(db->Put(keys[i], ValueFor(keys[i], 1)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());
  for (size_t i = 1; i < keys.size(); i += 997) {
    ASSERT_LILSM_OK(db->Put(keys[i], ValueFor(keys[i], 2)));
  }
}

int ExpectedVersion(size_t i) {
  if (i % 997 == 1) return 2;
  return i % 4 == 0 ? 1 : 0;
}

/// Gets of present and absent keys, then MultiGet batches of both, all
/// through `ropts`. Answers are checked, not just counted.
void RunSequence(DB* db, const ReadOptions& ropts,
                 const std::vector<Key>& keys) {
  std::string value;
  for (size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_LILSM_OK(db->Get(ropts, keys[i], &value));
    ASSERT_EQ(value, ValueFor(keys[i], ExpectedVersion(i)));
    ASSERT_TRUE(db->Get(ropts, keys[i] + 1, &value).IsNotFound());
  }
  std::vector<Key> batch;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  for (size_t i = 0; i < keys.size(); i += 5) {
    batch.push_back(keys[i]);
    if (batch.size() == 16 || i + 5 >= keys.size()) {
      batch.push_back(keys[i] + 1);
      ASSERT_LILSM_OK(db->MultiGet(ropts, batch, &values, &statuses));
      for (size_t j = 0; j + 1 < batch.size(); j++) {
        ASSERT_LILSM_OK(statuses[j]);
      }
      ASSERT_TRUE(statuses.back().IsNotFound());
      batch.clear();
    }
  }
}

/// Expects every count of the two sinks to match.
void ExpectSameCounts(const Stats& per_call, const Stats& db_wide) {
  for (int c = 0; c < static_cast<int>(Counter::kNumCounters); c++) {
    const Counter counter = static_cast<Counter>(c);
    EXPECT_EQ(db_wide.Count(counter), per_call.Count(counter))
        << CounterName(counter);
  }
  for (int t = 0; t < static_cast<int>(Timer::kNumTimers); t++) {
    const Timer timer = static_cast<Timer>(t);
    EXPECT_EQ(db_wide.TimerCount(timer), per_call.TimerCount(timer))
        << TimerName(timer);
  }
  for (int level = 0; level < Stats::kMaxLevels; level++) {
    EXPECT_EQ(db_wide.LevelReads(level), per_call.LevelReads(level))
        << "level " << level;
  }
}

struct CountCase {
  const char* name;
  IndexGranularity granularity;
  int io_depth;
};

class StatsSamplingCountsTest : public ::testing::TestWithParam<CountCase> {};

TEST_P(StatsSamplingCountsTest, DbWideCountsMatchPerCallSink) {
  const CountCase& param = GetParam();
  ScratchDir dir(std::string("sampling_") + param.name);
  DBOptions options = TreeOptions(Env::Default());
  options.index_granularity = param.granularity;
  options.io_depth = param.io_depth;
  options.block_cache_bytes = 256 << 10;  // hits, misses and evictions
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path(), &db));
  const std::vector<Key> keys = EvenKeys(20000, 29);
  BuildTree(db.get(), keys);
  ASSERT_GE(db->NumFilesAtLevel(0), 1);

  // Warm-up: opens every reader and builds the level models, so the two
  // measured runs see only the lookups themselves.
  RunSequence(db.get(), ReadOptions(), keys);

  Stats per_call;
  ReadOptions call_opts;
  call_opts.stats = &per_call;
  db->ClearBlockCache();
  db->stats()->Reset();
  RunSequence(db.get(), call_opts, keys);
  // A per-call sink redirects: nothing reached the DB-wide sink.
  EXPECT_EQ(db->stats()->Count(Counter::kPointLookups), 0u);
  EXPECT_EQ(db->stats()->TimerCount(Timer::kBloomCheck), 0u);

  db->ClearBlockCache();
  db->stats()->Reset();
  RunSequence(db.get(), ReadOptions(), keys);
  const Stats db_wide = *db->stats();

  ExpectSameCounts(per_call, db_wide);
  EXPECT_GT(per_call.Count(Counter::kBlockCacheEvictions), 0u);
  EXPECT_GT(per_call.LevelReads(0), 0u);
  EXPECT_GT(per_call.LevelReads(2), 0u);
  if (param.io_depth > 1) {
    EXPECT_GT(per_call.TimerCount(Timer::kAsyncReap), 0u);
  }
  // The DB-wide run did time a sample of its operations.
  EXPECT_GT(db_wide.TimeNanos(Timer::kBloomCheck), 0u);
  EXPECT_GT(db_wide.TimeNanos(Timer::kMultiGet), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, StatsSamplingCountsTest,
    ::testing::Values(CountCase{"file_sync", IndexGranularity::kFile, 1},
                      CountCase{"file_async", IndexGranularity::kFile, 8},
                      CountCase{"level_sync", IndexGranularity::kLevel, 1},
                      CountCase{"level_async", IndexGranularity::kLevel, 8}),
    [](const ::testing::TestParamInfo<CountCase>& info) {
      return std::string(info.param.name);
    });

/// Every span `stats` recorded: timer events plus level reads.
uint64_t RecordedSpans(const Stats& stats) {
  uint64_t spans = 0;
  for (int t = 0; t < static_cast<int>(Timer::kNumTimers); t++) {
    spans += stats.TimerCount(static_cast<Timer>(t));
  }
  for (int level = 0; level < Stats::kMaxLevels; level++) {
    spans += stats.LevelReads(level);
  }
  return spans;
}

constexpr Timer kReadStages[] = {Timer::kMemtableGet,  Timer::kTableLookup,
                                 Timer::kBloomCheck,   Timer::kIndexPredict,
                                 Timer::kDiskRead,     Timer::kBinarySearch};

TEST(StatsSamplingCostTest, UntimedGetsReadNoClockAndScaledTimesAreUnbiased) {
  ScratchDir dir("sampling_cost");
  SteppingClockEnv env;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(TreeOptions(&env), dir.path(), &db));
  const std::vector<Key> keys = EvenKeys(20000, 31);
  BuildTree(db.get(), keys);
  ASSERT_GE(db->NumFilesAtLevel(0), 1);
  ASSERT_GE(db->NumFilesAtLevel(1), 1);
  ASSERT_GE(db->NumFilesAtLevel(2), 1);

  // 128k Gets, one in ten absent (the point_lookup mix), in a fixed order.
  constexpr size_t kGets = 131072;
  std::vector<Key> requests;
  requests.reserve(kGets);
  Random rnd(37);
  for (size_t i = 0; i < kGets; i++) {
    const Key key = keys[rnd.Uniform(keys.size())];
    requests.push_back(i % 10 == 9 ? key + 1 : key);
  }
  auto run = [&](const ReadOptions& ropts) {
    std::string value;
    for (Key key : requests) {
      Status s = db->Get(ropts, key, &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  };
  run(ReadOptions());  // open every reader

  Stats per_call;
  ReadOptions call_opts;
  call_opts.stats = &per_call;
  env.ResetClockReads();
  run(call_opts);
  const uint64_t call_reads = env.clock_reads();

  db->stats()->Reset();
  env.ResetClockReads();
  run(ReadOptions());
  const double db_wide_reads = static_cast<double>(env.clock_reads()) / kGets;
  const Stats db_wide = *db->stats();

  // A per-call sink times every stage of every Get, exactly as every Get
  // did before the DB-wide sink sampled: this tree's mix costs 24.38 clock
  // reads per Get, two for each span recorded — a level no file covers
  // opens no span. The DB-wide sink times one Get in kTimerSampleRate and
  // reads no clock on the rest, so its mean is about 24 / 16.
  EXPECT_EQ(call_reads, 3195798u);
  EXPECT_EQ(call_reads, 2 * RecordedSpans(per_call));
  EXPECT_LE(db_wide_reads, 2.0);
  EXPECT_GT(db_wide_reads, 0.0);

  ExpectSameCounts(per_call, db_wide);
  // Every stage time is an unbiased estimate of the per-call total.
  for (Timer t : kReadStages) {
    const double exact = static_cast<double>(per_call.TimeNanos(t));
    ASSERT_GT(exact, 0.0) << TimerName(t);
    EXPECT_NEAR(static_cast<double>(db_wide.TimeNanos(t)), exact, 0.10 * exact)
        << TimerName(t);
  }
  for (int level = 0; level <= 2; level++) {
    const double exact = static_cast<double>(per_call.LevelReadNanos(level));
    ASSERT_GT(exact, 0.0) << "level " << level;
    EXPECT_NEAR(static_cast<double>(db_wide.LevelReadNanos(level)), exact,
                0.10 * exact)
        << "level " << level;
  }
}

// MultiGet records the same way: a level that none of a batch's keys falls
// in opens no span, so a per-call sink reads exactly two clocks per span.
TEST(StatsSamplingCostTest, MultiGetReadsTwoClocksPerSpan) {
  ScratchDir dir("sampling_multiget");
  SteppingClockEnv env;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(TreeOptions(&env), dir.path(), &db));
  const std::vector<Key> keys = EvenKeys(20000, 31);
  BuildTree(db.get(), keys);

  // Four-key batches with one absent key each, then one batch past the
  // last key of every file.
  std::vector<std::vector<Key>> batches;
  Random rnd(53);
  for (int b = 0; b < 4000; b++) {
    std::vector<Key> batch;
    for (int i = 0; i < 4; i++) {
      const Key key = keys[rnd.Uniform(keys.size())];
      batch.push_back(i == 3 ? key + 1 : key);
    }
    batches.push_back(std::move(batch));
  }
  batches.push_back({keys.back() + 2});

  Stats per_call;
  ReadOptions ropts;
  ropts.stats = &per_call;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  for (int pass = 0; pass < 2; pass++) {  // the first pass opens readers
    per_call.Reset();
    env.ResetClockReads();
    for (const std::vector<Key>& batch : batches) {
      ASSERT_LILSM_OK(db->MultiGet(ropts, batch, &values, &statuses));
    }
  }
  EXPECT_GT(per_call.LevelReads(0), 0u);
  EXPECT_EQ(env.clock_reads(), 2 * RecordedSpans(per_call));
}

// An empty L0 costs no clock read: with every key in one level below it,
// a timed Get reads the clock exactly twice per span it records.
TEST(StatsSamplingCostTest, EmptyLevel0ReadsNoClock) {
  ScratchDir dir("sampling_empty_l0");
  SteppingClockEnv env;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(TreeOptions(&env), dir.path(), &db));
  const std::vector<Key> keys = EvenKeys(5000, 47);
  for (Key key : keys) ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 0)));
  ASSERT_LILSM_OK(db->CompactAll());
  ASSERT_EQ(db->NumFilesAtLevel(0), 0);

  Stats per_call;
  ReadOptions ropts;
  ropts.stats = &per_call;
  std::string value;
  for (int pass = 0; pass < 2; pass++) {  // the first pass opens readers
    per_call.Reset();
    env.ResetClockReads();
    for (size_t i = 0; i < keys.size(); i += 7) {
      ASSERT_LILSM_OK(db->Get(ropts, keys[i], &value));
    }
  }
  EXPECT_EQ(per_call.LevelReads(0), 0u);
  EXPECT_EQ(env.clock_reads(), 2 * RecordedSpans(per_call));
}

// A scan Seeks every table child (predicting in each whose key range
// holds the target) and reads windows as it goes, so a table iterator's
// kIndexPredict and, with a block cache, kDiskRead timers sample on the
// DB-wide sink as a Get's stages do: counts stay exact, and one call in
// kTimerSampleRate reads the clock.
TEST(StatsSamplingCostTest, ScansSampleTheirTableTimers) {
  for (const size_t cache_bytes : {size_t{0}, size_t{64} << 10}) {
    SCOPED_TRACE("block cache bytes " + std::to_string(cache_bytes));
    ScratchDir dir("sampling_scan");
    SteppingClockEnv env;
    DBOptions options = TreeOptions(&env);
    options.write_buffer_size = 4 << 20;  // flushes only when asked
    options.sstable_target_size = 4 << 20;
    options.block_cache_bytes = cache_bytes;
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(options, dir.path(), &db));

    // Four L0 files, file f holding keys[i] for i % 4 == f, so each spans
    // nearly the whole key range.
    constexpr size_t kFiles = 4;
    const std::vector<Key> keys = EvenKeys(20000, 59);
    for (size_t f = 0; f < kFiles; f++) {
      for (size_t i = f; i < keys.size(); i += kFiles) {
        ASSERT_LILSM_OK(db->Put(keys[i], ValueFor(keys[i], 0)));
      }
      ASSERT_LILSM_OK(db->FlushMemTable());
    }
    ASSERT_EQ(db->NumFilesAtLevel(0), static_cast<int>(kFiles));

    // Seek targets, present and absent, and the table Seeks that predict:
    // a table predicts when min_key < target <= max_key.
    constexpr size_t kSeeks = 16384;
    std::vector<Key> targets;
    uint64_t predicting_seeks = 0;
    Random rnd(61);
    for (size_t s = 0; s < kSeeks; s++) {
      const Key key = keys[rnd.Uniform(keys.size())];
      const Key target = s % 2 == 1 ? key + 1 : key;
      targets.push_back(target);
      for (size_t f = 0; f < kFiles; f++) {
        const size_t last = (keys.size() - 1 - f) / kFiles * kFiles + f;
        if (keys[f] < target && target <= keys[last]) predicting_seeks++;
      }
    }

    std::unique_ptr<Iterator> iter = db->NewIterator();
    iter->Seek(keys[keys.size() / 2]);  // opens every reader
    ASSERT_TRUE(iter->Valid());
    db->stats()->Reset();
    env.ResetClockReads();
    for (Key target : targets) {
      iter->Seek(target);
      for (int n = 0; n < 4 && iter->Valid(); n++) iter->Next();
      ASSERT_LILSM_OK(iter->status());
    }
    const uint64_t clock_reads = env.clock_reads();
    const Stats& stats = *db->stats();

    // Every predicting table Seek counts, and every window read that
    // missed the cache (an uncached table's reads stay untimed).
    EXPECT_EQ(stats.TimerCount(Timer::kIndexPredict), predicting_seeks);
    const uint64_t disk_reads = stats.TimerCount(Timer::kDiskRead);
    if (cache_bytes == 0) {
      EXPECT_EQ(disk_reads, 0u);
    } else {
      EXPECT_GT(disk_reads, kSeeks);
    }
    // A timed span reads two clocks, one step apart, and records that
    // step scaled by the rate.
    const uint64_t weight = kTimerSampleRate * SteppingClockEnv::kStepNanos;
    const uint64_t timed = (stats.TimeNanos(Timer::kIndexPredict) +
                            stats.TimeNanos(Timer::kDiskRead)) /
                           weight;
    EXPECT_EQ(clock_reads, 2 * timed);
    EXPECT_GT(timed, 0u);
    EXPECT_LT(timed, (predicting_seeks + disk_reads) / 8);
    // The scaled times are unbiased estimates of timing every call.
    for (Timer t : {Timer::kIndexPredict, Timer::kDiskRead}) {
      const double exact = static_cast<double>(stats.TimerCount(t) *
                                               SteppingClockEnv::kStepNanos);
      EXPECT_NEAR(static_cast<double>(stats.TimeNanos(t)), exact,
                  0.10 * exact)
          << TimerName(t);
    }
  }
}

}  // namespace
}  // namespace lilsm
