// Read-path counter pins: a fixed lookup sequence over a settled tree must
// issue exactly the recorded device reads and stage counts. Point reads
// and batched reads share one lookup body (a Get is a one-key MultiGet at
// the DB layer, and a table lookup is a Prepare/Finish plan), so any
// change to how lookups screen, predict, or fetch shows up here as a
// moved count — SimEnv counts every pread and its bytes.
#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/db.h"
#include "tests/test_util.h"
#include "util/sim_env.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 56;

constexpr size_t kNumCounts = 11;
constexpr std::array<const char*, kNumCounts> kCountNames = {
    "random_reads",        "random_read_bytes",    "segments_fetched",
    "tables_consulted",    "bloom_negatives",      "bloom_true_positive",
    "bloom_false_positive", "index_predict_timings", "disk_read_timings",
    "async_reads",         "async_batches"};

/// One pinned configuration and the counts (in kCountNames order) its
/// lookup sequence records.
struct ReadPin {
  const char* name;
  IndexGranularity granularity;
  int io_depth;
  std::array<uint64_t, kNumCounts> counts;
};

std::string ValueFor(Key key, int version) {
  return DeriveValue(key ^ (0xA5A5A5A5u + version), kValueSize);
}

// Which keys (by index) the L0 file deletes or overwrites; disjoint.
bool Deleted(size_t i) { return i % 11 == 3; }
bool Overwritten(size_t i) { return i % 13 == 5 && !Deleted(i); }

/// Builds the settled tree: every key compacted below L0, then one L0
/// file holding tombstones for some keys and overwrites of others.
void BuildTree(DB* db, const std::vector<Key>& keys) {
  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());
  ASSERT_LILSM_OK(db->CompactAll());
  for (size_t i = 0; i < keys.size(); i++) {
    if (Deleted(i)) ASSERT_LILSM_OK(db->Delete(keys[i]));
    if (Overwritten(i)) ASSERT_LILSM_OK(db->Put(keys[i], ValueFor(keys[i], 1)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());
}

/// The fixed sequence: Gets of present, absent and deleted keys, then one
/// MultiGet batch mixing all three. Answers are checked, not just counted.
void RunSequence(DB* db, const std::vector<Key>& keys) {
  std::string value;
  for (size_t i = 0; i < keys.size(); i += 7) {
    Status s = db->Get(keys[i], &value);
    if (Deleted(i)) {
      EXPECT_TRUE(s.IsNotFound()) << keys[i];
    } else {
      ASSERT_LILSM_OK(s);
      EXPECT_EQ(value, ValueFor(keys[i], Overwritten(i) ? 1 : 0));
    }
    EXPECT_TRUE(db->Get(keys[i] + 1, &value).IsNotFound());
  }
  std::vector<Key> batch;
  for (size_t i = 0; i < keys.size(); i += 5) {
    batch.push_back(keys[i]);
    if (i % 3 == 0) batch.push_back(keys[i] + 1);
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_LILSM_OK(db->MultiGet(batch, &values, &statuses));
  for (size_t j = 0; j < batch.size(); j += 2) {
    std::string expected;
    Status s = db->Get(batch[j], &expected);
    EXPECT_EQ(statuses[j].ToString(), s.ToString()) << batch[j];
    if (s.ok()) {
      EXPECT_EQ(values[j], expected) << batch[j];
    }
  }
}

class DbReadCountersTest : public ::testing::TestWithParam<ReadPin> {};

TEST_P(DbReadCountersTest, LookupSequenceMatchesPinnedCounts) {
  const ReadPin& pin = GetParam();
  ScratchDir dir(std::string("readpin_") + pin.name);
  SimEnvOptions sim_options;
  sim_options.read_base_latency_ns = 0;  // count I/O, don't simulate it
  sim_options.read_per_byte_ns = 0.0;
  SimEnv env(Env::Default(), sim_options);

  DBOptions options;
  options.env = &env;
  options.write_buffer_size = 64 << 10;
  options.sstable_target_size = 32 << 10;
  options.l0_compaction_trigger = 2;
  options.value_size = kValueSize;
  options.index_granularity = pin.granularity;
  options.io_depth = pin.io_depth;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path(), &db));

  const std::vector<Key> keys = RandomGapKeys(3000, 17);
  BuildTree(db.get(), keys);
  ASSERT_GE(db->NumFilesAtLevel(0), 1);

  // The first pass opens every reader and builds the level models; the
  // pinned second pass sees only the lookups themselves.
  RunSequence(db.get(), keys);
  env.io_stats()->Reset();
  db->stats()->Reset();
  RunSequence(db.get(), keys);

  const Stats& st = *db->stats();
  const std::array<uint64_t, kNumCounts> got = {
      env.io_stats()->random_reads.load(),
      env.io_stats()->random_read_bytes.load(),
      st.Count(Counter::kSegmentsFetched),
      st.Count(Counter::kTablesConsulted),
      st.Count(Counter::kBloomNegatives),
      st.Count(Counter::kBloomTruePositive),
      st.Count(Counter::kBloomFalsePositive),
      st.TimerCount(Timer::kIndexPredict),
      st.TimerCount(Timer::kDiskRead),
      st.Count(Counter::kAsyncReads),
      st.Count(Counter::kAsyncBatches)};
  for (size_t i = 0; i < kNumCounts; i++) {
    EXPECT_EQ(got[i], pin.counts[i]) << kCountNames[i];
  }
}

// The counts were recorded when each table reader still had separate
// point-read entry points, and kept when the sync MultiGet became the
// inline Prepare/Finish plan and Get a one-key MultiGet. At io_depth 8 a
// level with two or more runs reads through one batch (async_reads,
// async_batches); every other plan, L0 and every Get included, is inline.
INSTANTIATE_TEST_SUITE_P(
    Pinned, DbReadCountersTest,
    ::testing::Values(
        ReadPin{"segmented_file", IndexGranularity::kFile, 1,
                {924, 8350096, 924, 2387, 1595, 906, 18, 924, 924, 0, 0}},
        ReadPin{"segmented_level", IndexGranularity::kLevel, 1,
                {924, 8431176, 924, 2387, 1595, 906, 18, 155, 924, 0, 0}},
        ReadPin{"segmented_file_async", IndexGranularity::kFile, 8,
                {867, 8117016, 867, 2387, 1787, 1343, 18, 1361, 858, 9, 1}},
        ReadPin{"segmented_level_async", IndexGranularity::kLevel, 8,
                {867, 8165272, 867, 2387, 1787, 1343, 18, 155, 858, 9, 1}}),
    [](const ::testing::TestParamInfo<ReadPin>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace lilsm
