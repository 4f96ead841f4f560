// End-to-end engine tests: write/read/delete semantics, flush and
// compaction invariants, recovery (WAL + MANIFEST replay), iterators,
// range lookups, reconfiguration across all index types and granularities,
// all validated against a std::map reference model.
#include "lsm/db.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>

#include "tests/test_util.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 48;

DBOptions SmallDbOptions() {
  DBOptions options;
  options.write_buffer_size = 64 << 10;   // tiny: force frequent flushes
  options.sstable_target_size = 32 << 10; // many small tables
  options.l0_compaction_trigger = 2;
  options.value_size = kValueSize;
  options.key_size = 24;
  return options;
}

std::string ValueFor(Key key, uint64_t version) {
  return DeriveValue(key ^ (version * 0x9E3779B9), kValueSize);
}

class DbTest : public ::testing::Test {
 protected:
  void Open(DBOptions options = SmallDbOptions()) {
    db_.reset();
    ASSERT_LILSM_OK(DB::Open(options, dir_.path() + "/db", &db_));
  }

  void Reopen(DBOptions options = SmallDbOptions()) {
    db_.reset();
    ASSERT_LILSM_OK(DB::Open(options, dir_.path() + "/db", &db_));
  }

  /// Full verification of the DB against the model: every model key via
  /// Get, every deleted key NotFound, and the iterator scan matches.
  void VerifyAgainstModel(const std::map<Key, std::string>& model,
                          const std::vector<Key>& deleted = {}) {
    std::string value;
    for (const auto& [key, expected] : model) {
      ASSERT_LILSM_OK(db_->Get(key, &value));
      ASSERT_EQ(value, expected) << "key " << key;
    }
    for (Key key : deleted) {
      if (model.count(key)) continue;
      ASSERT_TRUE(db_->Get(key, &value).IsNotFound()) << "key " << key;
    }
    auto iter = db_->NewIterator();
    auto it = model.begin();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++it) {
      ASSERT_NE(it, model.end());
      ASSERT_EQ(iter->key(), it->first);
      ASSERT_EQ(iter->value().ToString(), it->second);
    }
    ASSERT_EQ(it, model.end());
    ASSERT_LILSM_OK(iter->status());
  }

  ScratchDir dir_{"db"};
  std::unique_ptr<DB> db_;
};

TEST_F(DbTest, EmptyDbBehaves) {
  Open();
  std::string value;
  EXPECT_TRUE(db_->Get(123, &value).IsNotFound());
  auto iter = db_->NewIterator();
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  EXPECT_EQ(db_->LastSequence(), 0u);
}

TEST_F(DbTest, PutGetOverwriteDelete) {
  Open();
  std::string value;
  ASSERT_LILSM_OK(db_->Put(1, ValueFor(1, 0)));
  ASSERT_LILSM_OK(db_->Get(1, &value));
  EXPECT_EQ(value, ValueFor(1, 0));

  ASSERT_LILSM_OK(db_->Put(1, ValueFor(1, 1)));
  ASSERT_LILSM_OK(db_->Get(1, &value));
  EXPECT_EQ(value, ValueFor(1, 1));

  ASSERT_LILSM_OK(db_->Delete(1));
  EXPECT_TRUE(db_->Get(1, &value).IsNotFound());

  ASSERT_LILSM_OK(db_->Put(1, ValueFor(1, 2)));
  ASSERT_LILSM_OK(db_->Get(1, &value));
  EXPECT_EQ(value, ValueFor(1, 2));
}

TEST_F(DbTest, WriteBatchIsAtomicallyVisible) {
  Open();
  WriteBatch batch;
  for (Key k = 100; k < 150; k++) batch.Put(k, ValueFor(k, 0));
  batch.Delete(120);
  ASSERT_LILSM_OK(db_->Write(&batch));
  std::string value;
  ASSERT_LILSM_OK(db_->Get(119, &value));
  EXPECT_TRUE(db_->Get(120, &value).IsNotFound());
  EXPECT_EQ(db_->LastSequence(), 51u);
}

// The segmented format stores fixed-size values: a wrong-size Put must be
// refused at admission, before the WAL, so it can never fail a flush or a
// reopen's recovery flush. The DB stays writable and reopens cleanly.
TEST_F(DbTest, WrongSizeValueIsRejectedAtAdmission) {
  Open();
  ASSERT_LILSM_OK(db_->Put(1, ValueFor(1, 0)));
  const SequenceNumber seq = db_->LastSequence();
  EXPECT_TRUE(db_->Put(2, "short").IsInvalidArgument());
  EXPECT_TRUE(db_->Put(3, std::string(kValueSize + 1, 'x'))
                  .IsInvalidArgument());
  WriteBatch mixed;  // one bad value rejects the whole batch
  mixed.Put(4, ValueFor(4, 0));
  mixed.Put(5, "");
  EXPECT_TRUE(db_->Write(&mixed).IsInvalidArgument());
  EXPECT_EQ(db_->LastSequence(), seq);

  std::string value;
  EXPECT_TRUE(db_->Get(4, &value).IsNotFound());
  ASSERT_LILSM_OK(db_->Put(6, ValueFor(6, 0)));
  ASSERT_LILSM_OK(db_->Delete(1));  // tombstones carry no value
  ASSERT_LILSM_OK(db_->FlushMemTable());
  Reopen();
  ASSERT_LILSM_OK(db_->Get(6, &value));
  EXPECT_EQ(value, ValueFor(6, 0));
  EXPECT_TRUE(db_->Get(1, &value).IsNotFound());
  EXPECT_TRUE(db_->Get(2, &value).IsNotFound());
}

TEST_F(DbTest, FlushAndCompactionPreserveData) {
  Open();
  std::map<Key, std::string> model;
  std::vector<Key> keys = RandomGapKeys(3000, 21);
  for (size_t i = 0; i < keys.size(); i++) {
    const std::string value = ValueFor(keys[i], 0);
    ASSERT_LILSM_OK(db_->Put(keys[i], value));
    model[keys[i]] = value;
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());
  EXPECT_GT(db_->stats()->Count(Counter::kFlushes), 0u);
  VerifyAgainstModel(model);
}

// kInline runs flushes and compactions on the writing thread, dropping
// the mutex during each merge: concurrent writer threads must still
// compact one at a time (two merges of the same inputs would free tables
// under each other) and lose nothing.
TEST_F(DbTest, InlineWritersFromManyThreadsCompactSafely) {
  DBOptions options = SmallDbOptions();
  options.write_buffer_size = 8 << 10;
  options.sstable_target_size = 8 << 10;
  Open(options);
  constexpr int kThreads = 4;
  constexpr Key kPerThread = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([this, t] {
      for (Key i = 0; i < kPerThread; i++) {
        const Key key = i * kThreads + t;
        ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 0)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(db_->stats()->Count(Counter::kCompactions), 0u);
  std::map<Key, std::string> model;
  for (Key key = 0; key < kThreads * kPerThread; key++) {
    model[key] = ValueFor(key, 0);
  }
  VerifyAgainstModel(model);
}

TEST_F(DbTest, RandomOpsMatchReferenceModel) {
  Open();
  std::map<Key, std::string> model;
  std::vector<Key> deleted;
  Random rnd(1234);
  const std::vector<Key> key_space = RandomGapKeys(800, 55);
  for (int op = 0; op < 12000; op++) {
    const Key key = key_space[rnd.Uniform(key_space.size())];
    if (rnd.Uniform(4) == 0) {
      ASSERT_LILSM_OK(db_->Delete(key));
      model.erase(key);
      deleted.push_back(key);
    } else {
      const std::string value = ValueFor(key, op);
      ASSERT_LILSM_OK(db_->Put(key, value));
      model[key] = value;
    }
  }
  VerifyAgainstModel(model, deleted);
  ASSERT_LILSM_OK(db_->FlushMemTable());
  VerifyAgainstModel(model, deleted);
}

TEST_F(DbTest, LevelsStaySortedAndDisjoint) {
  Open();
  std::vector<Key> keys = RandomGapKeys(5000, 31);
  Random rnd(7);
  for (size_t i = keys.size(); i > 1; i--) {
    std::swap(keys[i - 1], keys[rnd.Uniform(i)]);
  }
  for (Key key : keys) {
    ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());
  // Deeper levels must exist with the tiny buffer, proving compactions ran.
  int populated = 0;
  for (int level = 0; level < kNumLevels; level++) {
    if (db_->NumFilesAtLevel(level) > 0) populated++;
  }
  EXPECT_GE(populated, 1);
  EXPECT_GT(db_->stats()->Count(Counter::kCompactions), 0u);
}

TEST_F(DbTest, RangeLookupMatchesModel) {
  Open();
  std::map<Key, std::string> model;
  std::vector<Key> keys = RandomGapKeys(2000, 77);
  for (Key key : keys) {
    const std::string value = ValueFor(key, 0);
    ASSERT_LILSM_OK(db_->Put(key, value));
    model[key] = value;
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());

  Random rnd(9);
  for (int trial = 0; trial < 50; trial++) {
    const Key start = keys[rnd.Uniform(keys.size())] + rnd.Uniform(3);
    const size_t len = 1 + rnd.Uniform(64);
    std::vector<std::pair<Key, std::string>> out;
    ASSERT_LILSM_OK(db_->RangeLookup(start, len, &out));
    auto it = model.lower_bound(start);
    for (const auto& [key, value] : out) {
      ASSERT_NE(it, model.end());
      ASSERT_EQ(key, it->first);
      ASSERT_EQ(value, it->second);
      ++it;
    }
    const size_t expected =
        std::min<size_t>(len, std::distance(model.lower_bound(start),
                                            model.end()));
    ASSERT_EQ(out.size(), expected);
  }
}

TEST_F(DbTest, RecoversFromWalAfterReopen) {
  Open();
  std::map<Key, std::string> model;
  for (Key key = 1; key <= 500; key++) {
    const std::string value = ValueFor(key, 1);
    ASSERT_LILSM_OK(db_->Put(key, value));
    model[key] = value;
  }
  ASSERT_LILSM_OK(db_->Delete(100));
  model.erase(100);
  const SequenceNumber seq_before = db_->LastSequence();
  // No explicit flush: reopen must replay the WAL.
  Reopen();
  EXPECT_GE(db_->LastSequence(), seq_before);
  VerifyAgainstModel(model, {100});
}

TEST_F(DbTest, RecoversManifestStateAcrossReopens) {
  Open();
  std::map<Key, std::string> model;
  std::vector<Key> keys = RandomGapKeys(4000, 41);
  for (Key key : keys) {
    const std::string value = ValueFor(key, 0);
    ASSERT_LILSM_OK(db_->Put(key, value));
    model[key] = value;
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());
  Reopen();
  VerifyAgainstModel(model);
  // Write more after recovery; the file-number space must not collide.
  for (Key key : RandomGapKeys(500, 43)) {
    const std::string value = ValueFor(key, 9);
    ASSERT_LILSM_OK(db_->Put(key, value));
    model[key] = value;
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());
  VerifyAgainstModel(model);
}

TEST_F(DbTest, RepeatedReopenIsStable) {
  std::map<Key, std::string> model;
  Open();
  for (int round = 0; round < 4; round++) {
    for (Key key = round * 100; key < (round + 1) * 100u; key++) {
      const std::string value = ValueFor(key, round);
      ASSERT_LILSM_OK(db_->Put(key, value));
      model[key] = value;
    }
    Reopen();
    VerifyAgainstModel(model);
  }
}

TEST_F(DbTest, TornWalTailIsDiscardedCleanly) {
  Open();
  for (Key key = 1; key <= 200; key++) {
    ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 0)));
  }
  db_.reset();
  // Truncate the newest WAL mid-record to simulate a crash during write.
  Env* env = Env::Default();
  std::vector<std::string> children;
  ASSERT_LILSM_OK(env->GetChildren(dir_.path() + "/db", &children));
  std::string wal_name;
  uint64_t best = 0;
  for (const std::string& name : children) {
    uint64_t number = 0;
    if (ParseFileName(name, &number) == FileKind::kWalFile &&
        number >= best) {
      best = number;
      wal_name = name;
    }
  }
  ASSERT_FALSE(wal_name.empty());
  const std::string wal_path = dir_.path() + "/db/" + wal_name;
  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(env, wal_path, &contents));
  ASSERT_GT(contents.size(), 10u);
  contents.resize(contents.size() - 5);
  ASSERT_LILSM_OK(WriteStringToFile(env, contents, wal_path));

  Reopen();
  // The final record is lost but everything before it must be intact.
  std::string value;
  ASSERT_LILSM_OK(db_->Get(1, &value));
  EXPECT_EQ(value, ValueFor(1, 0));
  ASSERT_LILSM_OK(db_->Get(198, &value));
}

// A kBackground reopen that finds an unflushed WAL turns it into a fresh
// L0 table. Open must offer that flush, and an L0 a previous session left
// past its trigger, to the background jobs: otherwise every such reopen
// adds an L0 file nothing compacts, until L0 passes the slowdown trigger
// and every write sleeps.
TEST_F(DbTest, BackgroundReopenCompactsRecoveredL0) {
  DBOptions options;
  options.concurrency = ConcurrencyMode::kBackground;
  options.value_size = kValueSize;
  std::map<Key, std::string> model;
  for (Key session = 0; session < 10; session++) {
    Reopen(options);
    for (Key i = 0; i < 100; i++) {
      const Key key = session * 100 + i;
      const std::string value = ValueFor(key, session);
      ASSERT_LILSM_OK(db_->Put(key, value));
      model[key] = value;
    }
  }
  Reopen(options);
  // Watch for the background work to settle without starting any:
  // FlushMemTable or CompactUntilStable would settle the tree themselves.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db_->NumFilesAtLevel(0) >= options.l0_compaction_trigger &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_LT(db_->NumFilesAtLevel(0), options.l0_compaction_trigger);

  const uint64_t slowdowns = db_->stats()->Count(Counter::kWriteSlowdowns);
  for (Key key = 5000; key < 5100; key++) {
    const std::string value = ValueFor(key, 0);
    ASSERT_LILSM_OK(db_->Put(key, value));
    model[key] = value;
  }
  EXPECT_EQ(db_->stats()->Count(Counter::kWriteSlowdowns), slowdowns);
  VerifyAgainstModel(model);
}

TEST_F(DbTest, CompactAllDrainsUpperLevels) {
  Open();
  for (Key key : RandomGapKeys(4000, 51)) {
    ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db_->CompactAll());
  EXPECT_EQ(db_->NumFilesAtLevel(0), 0);
}

TEST_F(DbTest, TombstonesAreDroppedAtBottomLevel) {
  Open();
  std::vector<Key> keys = RandomGapKeys(2000, 61);
  for (Key key : keys) {
    ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 0)));
  }
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_LILSM_OK(db_->Delete(keys[i]));
  }
  ASSERT_LILSM_OK(db_->CompactAll());
  ASSERT_LILSM_OK(db_->CompactAll());
  uint64_t total_entries = 0;
  for (int level = 0; level < kNumLevels; level++) {
    total_entries += db_->EntriesAtLevel(level);
  }
  // Tombstones compacted into the bottom level disappear entirely.
  EXPECT_LE(total_entries, keys.size() - keys.size() / 2 + 16);
  std::string value;
  EXPECT_TRUE(db_->Get(keys[0], &value).IsNotFound());
  ASSERT_LILSM_OK(db_->Get(keys[1], &value));
}

// ---- parameterized over index types ----

class DbIndexTypeTest : public ::testing::TestWithParam<IndexType> {};

TEST_P(DbIndexTypeTest, FullWorkloadWithEachIndexType) {
  ScratchDir dir("dbtype");
  DBOptions options = SmallDbOptions();
  options.index_type = GetParam();
  options.index_config = IndexConfig::FromPositionBoundary(32);
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path() + "/db", &db));

  std::map<Key, std::string> model;
  std::vector<Key> keys = RandomGapKeys(3000, 71);
  Random rnd(13);
  for (size_t i = keys.size(); i > 1; i--) {
    std::swap(keys[i - 1], keys[rnd.Uniform(i)]);
  }
  for (Key key : keys) {
    const std::string value = ValueFor(key, 3);
    ASSERT_LILSM_OK(db->Put(key, value));
    model[key] = value;
  }
  ASSERT_LILSM_OK(db->FlushMemTable());
  std::string value;
  for (const auto& [key, expected] : model) {
    ASSERT_LILSM_OK(db->Get(key, &value));
    ASSERT_EQ(value, expected);
  }
  EXPECT_GT(db->TotalIndexMemory(), 0u);
  EXPECT_GT(db->TotalFilterMemory(), 0u);
}

TEST_P(DbIndexTypeTest, ReconfigureToEveryOtherType) {
  ScratchDir dir("dbreconf");
  DBOptions options = SmallDbOptions();
  options.index_type = GetParam();
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path() + "/db", &db));
  std::vector<Key> keys = RandomGapKeys(2000, 81);
  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());

  std::string value;
  for (IndexType target : kAllIndexTypes) {
    ASSERT_LILSM_OK(db->ReconfigureIndexes(
        target, IndexConfig::FromPositionBoundary(16)));
    for (size_t i = 0; i < keys.size(); i += 37) {
      SCOPED_TRACE(std::string("after reconfigure to ") +
                   IndexTypeName(target));
      ASSERT_LILSM_OK(db->Get(keys[i], &value));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, DbIndexTypeTest, ::testing::ValuesIn(kAllIndexTypes),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return std::string(IndexTypeName(info.param));
    });

TEST(DbLevelGranularityTest, LevelModelsAnswerLookups) {
  ScratchDir dir("dblevel");
  DBOptions options = SmallDbOptions();
  options.index_granularity = IndexGranularity::kLevel;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path() + "/db", &db));

  std::vector<Key> keys = RandomGapKeys(4000, 91);
  Random rnd(17);
  for (size_t i = keys.size(); i > 1; i--) {
    std::swap(keys[i - 1], keys[rnd.Uniform(i)]);
  }
  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());

  std::string value;
  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Get(key, &value));
    ASSERT_EQ(value, ValueFor(key, 0));
  }
  // Level models must actually have been built and be cheaper than
  // per-file indexes on the same tree.
  const size_t level_memory = db->TotalIndexMemory();
  EXPECT_GT(level_memory, 0u);
  db->SetIndexGranularity(IndexGranularity::kFile);
  const size_t file_memory = db->TotalIndexMemory();
  EXPECT_LE(level_memory, file_memory * 2);  // sanity: same order or less
  EXPECT_GT(db->stats()->TimerCount(Timer::kLevelIndexBuild), 0u);
}

TEST(DbStatsTest, LookupCountersTrackOperations) {
  ScratchDir dir("dbstats");
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(SmallDbOptions(), dir.path() + "/db", &db));
  for (Key key = 0; key < 2000; key++) {
    ASSERT_LILSM_OK(db->Put(key * 10, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());
  db->stats()->Reset();

  std::string value;
  for (Key key = 0; key < 100; key++) {
    ASSERT_LILSM_OK(db->Get(key * 10, &value));
  }
  EXPECT_EQ(db->stats()->Count(Counter::kPointLookups), 100u);
  EXPECT_GT(db->stats()->TimerCount(Timer::kIndexPredict), 0u);
  EXPECT_GT(db->stats()->TimerCount(Timer::kDiskRead), 0u);
  EXPECT_GT(db->stats()->TimerCount(Timer::kBinarySearch), 0u);
}

// ---- per-call options structs, MultiGet, DBOptions::Validate ----

TEST(DbOptionsValidateTest, RejectsEachInvalidConfiguration) {
  ScratchDir dir("dbvalidate");
  std::unique_ptr<DB> db;
  auto expect_rejected = [&](DBOptions options, const char* what) {
    Status s = DB::Open(options, dir.path() + "/db", &db);
    EXPECT_TRUE(s.IsInvalidArgument()) << what << ": " << s.ToString();
    EXPECT_EQ(db, nullptr) << what;
  };

  {
    DBOptions o = SmallDbOptions();
    o.value_size = 0;  // fixed-size entries need a size
    expect_rejected(o, "value_size == 0");
  }
  {
    DBOptions o = SmallDbOptions();
    o.size_ratio = 0;
    expect_rejected(o, "size_ratio == 0");
  }
  {
    DBOptions o = SmallDbOptions();
    o.size_ratio = -10;
    expect_rejected(o, "negative size_ratio");
  }
  {
    DBOptions o = SmallDbOptions();
    o.l0_compaction_trigger = 0;
    expect_rejected(o, "l0_compaction_trigger == 0");
  }
  {
    DBOptions o = SmallDbOptions();
    o.l0_slowdown_trigger = -1;
    expect_rejected(o, "negative l0_slowdown_trigger");
  }
  {
    DBOptions o = SmallDbOptions();
    o.l0_stop_trigger = 0;
    expect_rejected(o, "l0_stop_trigger == 0");
  }
  {
    DBOptions o = SmallDbOptions();
    o.max_open_tables = 0;  // would thrash open/close on every lookup
    expect_rejected(o, "max_open_tables == 0");
  }
  {
    DBOptions o = SmallDbOptions();
    o.key_size = 7;  // cannot round-trip the 8-byte uint64_t Key
    expect_rejected(o, "key_size < 8");
  }
  {
    DBOptions o = SmallDbOptions();
    o.key_size = 65;  // past the table reader's 64-byte key buffer
    expect_rejected(o, "key_size > 64");
  }
}

/// MultiGet equivalence harness shared by the granularity variants:
/// builds a tree with flushed, compacted, memtable-resident, overwritten,
/// deleted, and absent keys, then checks randomized batches bit-for-bit
/// against per-key Get.
class DbMultiGetTest : public ::testing::TestWithParam<IndexGranularity> {
 protected:
  void LoadMixedTree(DB* db) {
    loaded_ = RandomGapKeys(6000, 33);
    std::vector<Key> order = loaded_;
    Random rnd(91);
    for (size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[rnd.Uniform(i)]);
    }
    for (Key key : order) {
      ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 0)));
    }
    // Deletions and overwrites that go through flush + compaction.
    for (size_t i = 0; i < loaded_.size(); i += 5) {
      ASSERT_LILSM_OK(db->Delete(loaded_[i]));
    }
    for (size_t i = 1; i < loaded_.size(); i += 7) {
      ASSERT_LILSM_OK(db->Put(loaded_[i], ValueFor(loaded_[i], 1)));
    }
    ASSERT_LILSM_OK(db->FlushMemTable());
    ASSERT_LILSM_OK(db->CompactUntilStable());
    // A memtable-resident tail (fresh values, plus deletes shadowing
    // flushed entries) so the batch's memtable pass is exercised.
    for (size_t i = 2; i < loaded_.size(); i += 11) {
      ASSERT_LILSM_OK(db->Put(loaded_[i], ValueFor(loaded_[i], 2)));
    }
    for (size_t i = 3; i < loaded_.size(); i += 13) {
      ASSERT_LILSM_OK(db->Delete(loaded_[i]));
    }
  }

  /// A request pool of present, deleted, overwritten, and absent keys.
  std::vector<Key> RequestPool() const {
    std::vector<Key> pool = loaded_;
    for (size_t i = 0; i < loaded_.size(); i += 3) {
      pool.push_back(loaded_[i] + 1);  // gaps are >= 1: usually absent
    }
    pool.push_back(0);
    pool.push_back(~uint64_t{0});
    return pool;
  }

  void CheckBatchesMatchGet(DB* db) {
    const std::vector<Key> pool = RequestPool();
    Random rnd(277);
    std::vector<std::string> values;
    std::vector<Status> statuses;
    std::string expected;
    for (size_t batch_size : {1u, 3u, 128u, 2048u, 10000u}) {
      std::vector<Key> batch;
      batch.reserve(batch_size);
      for (size_t i = 0; i < batch_size; i++) {
        batch.push_back(pool[rnd.Uniform(pool.size())]);
      }
      ASSERT_LILSM_OK(db->MultiGet(ReadOptions(), batch, &values,
                                   &statuses));
      ASSERT_EQ(values.size(), batch.size());
      ASSERT_EQ(statuses.size(), batch.size());
      for (size_t i = 0; i < batch.size(); i++) {
        Status ref = db->Get(batch[i], &expected);
        ASSERT_EQ(statuses[i].ok(), ref.ok())
            << "key " << batch[i] << " batch_size " << batch_size;
        if (ref.ok()) {
          ASSERT_EQ(values[i], expected) << "key " << batch[i];
        } else {
          ASSERT_TRUE(statuses[i].IsNotFound()) << statuses[i].ToString();
          ASSERT_TRUE(values[i].empty());
        }
      }
    }
  }

  std::vector<Key> loaded_;
};

TEST_P(DbMultiGetTest, MatchesGetOnRandomizedBatches) {
  ScratchDir dir("dbmultiget");
  DBOptions options = SmallDbOptions();
  options.index_granularity = GetParam();
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path() + "/db", &db));
  LoadMixedTree(db.get());
  CheckBatchesMatchGet(db.get());

  // Batch instrumentation fired.
  EXPECT_GT(db->stats()->Count(Counter::kMultiGetBatches), 0u);
  EXPECT_GT(db->stats()->Count(Counter::kMultiGetKeys), 0u);
  EXPECT_GT(db->stats()->TimerCount(Timer::kMultiGet), 0u);
}

TEST_P(DbMultiGetTest, VerifyFoundAgreesOnEveryBatch) {
  ScratchDir dir("dbmultiget_verify");
  DBOptions options = SmallDbOptions();
  options.index_granularity = GetParam();
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path() + "/db", &db));
  LoadMixedTree(db.get());

  ReadOptions verify;
  verify.verify_found = true;
  const std::vector<Key> pool = RequestPool();
  Random rnd(407);
  std::vector<Key> batch;
  for (size_t i = 0; i < 512; i++) {
    batch.push_back(pool[rnd.Uniform(pool.size())]);
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_LILSM_OK(db->MultiGet(verify, batch, &values, &statuses));
  for (const Status& s : statuses) {
    ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
  }
  // Single-key verify mode too, on hits and misses.
  std::string value;
  for (size_t i = 0; i < 64; i++) {
    Status s = db->Get(verify, pool[rnd.Uniform(pool.size())], &value);
    ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Granularities, DbMultiGetTest,
    ::testing::Values(IndexGranularity::kFile, IndexGranularity::kLevel),
    [](const ::testing::TestParamInfo<IndexGranularity>& info) {
      return info.param == IndexGranularity::kFile ? "file" : "level";
    });

TEST_F(DbTest, MultiGetHonorsSnapshots) {
  Open();
  for (Key key = 1; key <= 500; key++) {
    ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());
  const Snapshot* snap = db_->GetSnapshot();
  for (Key key = 1; key <= 500; key++) {
    ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 1)));
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());

  std::vector<Key> batch;
  for (Key key = 1; key <= 500; key += 7) batch.push_back(key);
  std::vector<std::string> values;
  std::vector<Status> statuses;

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  ASSERT_LILSM_OK(db_->MultiGet(at_snap, batch, &values, &statuses));
  for (size_t i = 0; i < batch.size(); i++) {
    ASSERT_LILSM_OK(statuses[i]);
    EXPECT_EQ(values[i], ValueFor(batch[i], 0)) << "key " << batch[i];
  }
  ASSERT_LILSM_OK(db_->MultiGet(ReadOptions(), batch, &values, &statuses));
  for (size_t i = 0; i < batch.size(); i++) {
    ASSERT_LILSM_OK(statuses[i]);
    EXPECT_EQ(values[i], ValueFor(batch[i], 1)) << "key " << batch[i];
  }
  db_->ReleaseSnapshot(snap);
}

TEST_F(DbTest, RangeLookupHonorsSnapshots) {
  Open();
  for (Key key = 10; key <= 100; key += 10) {
    ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_LILSM_OK(db_->Delete(50));
  ASSERT_LILSM_OK(db_->Put(55, ValueFor(55, 0)));

  std::vector<std::pair<Key, std::string>> out;
  ReadOptions at_snap;
  at_snap.snapshot = snap;
  ASSERT_LILSM_OK(db_->RangeLookup(at_snap, 45, 3, &out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, 50u);  // still visible through the snapshot
  EXPECT_EQ(out[1].first, 60u);
  EXPECT_EQ(out[2].first, 70u);

  ASSERT_LILSM_OK(db_->RangeLookup(ReadOptions(), 45, 3, &out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, 55u);  // 50 deleted, 55 inserted since
  EXPECT_EQ(out[1].first, 60u);
  EXPECT_EQ(out[2].first, 70u);
  db_->ReleaseSnapshot(snap);
}

TEST_F(DbTest, WriteOptionsDisableWalIsLostWithoutFlush) {
  Open();
  ASSERT_LILSM_OK(db_->Put(1, ValueFor(1, 0)));  // logged
  WriteOptions no_wal;
  no_wal.disable_wal = true;
  ASSERT_LILSM_OK(db_->Put(no_wal, 2, ValueFor(2, 0)));
  Reopen();  // simulated crash: only the WAL survives the memtable
  std::string value;
  ASSERT_LILSM_OK(db_->Get(1, &value));
  EXPECT_EQ(value, ValueFor(1, 0));
  EXPECT_TRUE(db_->Get(2, &value).IsNotFound());

  // Flushed WAL-less writes are durable.
  ASSERT_LILSM_OK(db_->Put(no_wal, 3, ValueFor(3, 0)));
  ASSERT_LILSM_OK(db_->FlushMemTable());
  Reopen();
  ASSERT_LILSM_OK(db_->Get(3, &value));
  EXPECT_EQ(value, ValueFor(3, 0));
}

TEST_F(DbTest, WriteOptionsSyncOverridesDbDefault) {
  // Functional smoke in both directions: a per-call sync against a lazy
  // DB and a per-call no-sync against a durable DB both land.
  DBOptions durable = SmallDbOptions();
  durable.sync_wal = true;
  Open(durable);
  WriteOptions lazy;
  lazy.sync = false;
  ASSERT_LILSM_OK(db_->Put(lazy, 1, ValueFor(1, 0)));
  WriteOptions synced;
  synced.sync = true;
  ASSERT_LILSM_OK(db_->Put(synced, 2, ValueFor(2, 0)));
  Reopen(durable);
  std::string value;
  ASSERT_LILSM_OK(db_->Get(1, &value));
  ASSERT_LILSM_OK(db_->Get(2, &value));
}

TEST_F(DbTest, PerCallStatsSinkRedirectsInstrumentation) {
  Open();
  for (Key key = 1; key <= 2000; key++) {
    ASSERT_LILSM_OK(db_->Put(key * 3, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());
  db_->stats()->Reset();

  Stats local;
  ReadOptions tracked;
  tracked.stats = &local;
  std::string value;
  for (Key key = 1; key <= 50; key++) {
    ASSERT_LILSM_OK(db_->Get(tracked, key * 3, &value));
  }
  EXPECT_EQ(local.Count(Counter::kPointLookups), 50u);
  EXPECT_GT(local.TimerCount(Timer::kMemtableGet), 0u);
  // The redirect is exclusive: the DB-wide sink saw none of it.
  EXPECT_EQ(db_->stats()->Count(Counter::kPointLookups), 0u);
  EXPECT_EQ(db_->stats()->TimerCount(Timer::kBloomCheck), 0u);

  // MultiGet redirects the batch instrumentation the same way.
  std::vector<Key> batch = {3, 6, 9, 12, 1};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_LILSM_OK(db_->MultiGet(tracked, batch, &values, &statuses));
  EXPECT_EQ(local.Count(Counter::kMultiGetBatches), 1u);
  EXPECT_EQ(local.Count(Counter::kMultiGetKeys), batch.size());
  EXPECT_EQ(db_->stats()->Count(Counter::kMultiGetBatches), 0u);
}

/// The read-only introspection surface is const: this compiles only if
/// every observer method is callable through `const DB&`.
size_t ObserveConstSurface(const DB& db) {
  size_t total = db.TotalIndexMemory() + db.TotalFilterMemory();
  for (int level = 0; level < kNumLevels; level++) {
    total += static_cast<size_t>(db.NumFilesAtLevel(level));
    total += static_cast<size_t>(db.BytesAtLevel(level));
    total += static_cast<size_t>(db.EntriesAtLevel(level));
    total += db.LevelIndexMemory(level);
  }
  total += static_cast<size_t>(db.LastSequence());
  total += static_cast<size_t>(db.stats()->Count(Counter::kWrites));
  return total;
}

TEST_F(DbTest, ConstObserverSeesIntrospectionSurface) {
  Open();
  for (Key key = 1; key <= 1000; key++) {
    ASSERT_LILSM_OK(db_->Put(key * 2, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db_->FlushMemTable());
  const DB& observer = *db_;
  EXPECT_GT(ObserveConstSurface(observer), 0u);
  EXPECT_EQ(observer.LastSequence(), 1000u);
  EXPECT_GT(observer.NumFilesAtLevel(0) + observer.NumFilesAtLevel(1), 0);
}

}  // namespace
}  // namespace lilsm
