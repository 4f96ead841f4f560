// Parallel write path tests: group-commit equivalence against serial
// application (mixed Put/Delete/WriteBatch under 1..16 concurrent writers,
// with WAL-replay verification after reopen), the sync-upgrade regression
// (a sync=true writer joining a sync=false-led group must still get its
// fsync), range-partitioned subcompaction equivalence against the
// single-threaded merge, and the multi-job scheduler under full load.
// Run under TSan in CI (see ci.yml).
#include <atomic>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/db.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::GatedEnv;
using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 48;

DBOptions ParallelDbOptions() {
  DBOptions options;
  options.concurrency = ConcurrencyMode::kBackground;
  options.write_buffer_size = 64 << 10;    // tiny: frequent switches
  options.sstable_target_size = 32 << 10;  // many small tables
  options.l0_compaction_trigger = 2;
  options.l0_slowdown_trigger = 4;
  options.l0_stop_trigger = 8;
  options.value_size = kValueSize;
  options.key_size = 24;
  // The TSan CI job reruns this suite with the shared block cache enabled
  // (db_parallel_write_test_blockcache in CMakeLists.txt) so the parallel
  // write path also races cache hits/misses/invalidation.
  if (const char* mb = std::getenv("LILSM_TEST_BLOCK_CACHE_MB")) {
    options.block_cache_bytes = std::strtoull(mb, nullptr, 10) << 20;
  }
  return options;
}

/// Writer w's i-th key: disjoint dense ranges per writer, so the final
/// state after any interleaving equals applying each writer's stream
/// serially.
Key KeyFor(uint64_t writer, uint64_t i) { return writer * 1'000'000 + i + 1; }

std::string ValueFor(Key key, uint64_t version) {
  return DeriveValue(key ^ (version * 0x9E3779B9), kValueSize);
}

/// One deterministic mutation in a writer's stream.
struct Op {
  enum Kind { kPut, kDelete, kBatch } kind;
  uint64_t slot;      // key index within the writer's stripe
  uint64_t version;   // value derivation seed
  bool sync;          // WriteOptions::sync for this call
  int batch_len;      // kBatch only: slots [slot, slot + batch_len)
};

/// The deterministic op stream for one writer: mixed Put/Delete/WriteBatch
/// with overwrites, deletes of earlier slots, and an occasional sync'd
/// call. Identical for every run with the same (writer, n).
std::vector<Op> MakeStream(uint64_t writer, int n) {
  Random rnd(0xC0FFEE + writer * 7919);
  std::vector<Op> ops;
  ops.reserve(n);
  for (int i = 0; i < n; i++) {
    Op op;
    op.slot = rnd.Uniform(static_cast<uint32_t>(n));
    op.version = 1 + rnd.Uniform(1000);
    op.sync = rnd.OneIn(16);
    op.batch_len = 0;
    const uint32_t roll = rnd.Uniform(10);
    if (roll < 6) {
      op.kind = Op::kPut;
    } else if (roll < 8) {
      op.kind = Op::kDelete;
    } else {
      op.kind = Op::kBatch;
      op.batch_len = 2 + rnd.Uniform(6);
    }
    ops.push_back(op);
  }
  return ops;
}

/// Applies one writer's stream to the DB. Returns false on any failure.
bool RunStream(DB* db, uint64_t writer, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    WriteOptions wopts;
    wopts.sync = op.sync;
    Status s;
    switch (op.kind) {
      case Op::kPut:
        s = db->Put(wopts, KeyFor(writer, op.slot),
                    ValueFor(KeyFor(writer, op.slot), op.version));
        break;
      case Op::kDelete:
        s = db->Delete(wopts, KeyFor(writer, op.slot));
        break;
      case Op::kBatch: {
        WriteBatch batch;
        for (int j = 0; j < op.batch_len; j++) {
          const Key key = KeyFor(writer, op.slot + j);
          if (j % 3 == 2) {
            batch.Delete(key);
          } else {
            batch.Put(key, ValueFor(key, op.version + j));
          }
        }
        s = db->Write(wopts, &batch);
        break;
      }
    }
    if (!s.ok()) return false;
  }
  return true;
}

/// The expected final state of one writer's stream: key -> value, or
/// nullopt for a deleted key (must be NotFound).
void ApplyToModel(uint64_t writer, const std::vector<Op>& ops,
                  std::map<Key, std::optional<std::string>>* model) {
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPut:
        (*model)[KeyFor(writer, op.slot)] =
            ValueFor(KeyFor(writer, op.slot), op.version);
        break;
      case Op::kDelete:
        (*model)[KeyFor(writer, op.slot)] = std::nullopt;
        break;
      case Op::kBatch:
        for (int j = 0; j < op.batch_len; j++) {
          const Key key = KeyFor(writer, op.slot + j);
          if (j % 3 == 2) {
            (*model)[key] = std::nullopt;
          } else {
            (*model)[key] = ValueFor(key, op.version + j);
          }
        }
        break;
    }
  }
}

/// Asserts the DB's live contents match the model exactly: every live
/// model key present with the right value (checked via the iterator dump),
/// every deleted key NotFound (checked via Get).
void ExpectMatchesModel(
    DB* db, const std::map<Key, std::optional<std::string>>& model) {
  auto iter = db->NewIterator();
  auto it = model.begin();
  iter->SeekToFirst();
  while (iter->Valid()) {
    while (it != model.end() && !it->second.has_value()) ++it;
    ASSERT_NE(it, model.end()) << "extra key " << iter->key();
    ASSERT_EQ(iter->key(), it->first);
    ASSERT_EQ(iter->value().ToString(), *it->second) << "key " << iter->key();
    ++it;
    iter->Next();
  }
  while (it != model.end() && !it->second.has_value()) ++it;
  ASSERT_EQ(it, model.end()) << "missing key " << it->first;

  std::string value;
  for (const auto& [key, expected] : model) {
    if (!expected.has_value()) {
      ASSERT_TRUE(db->Get(key, &value).IsNotFound()) << "key " << key;
    }
  }
}

class DbParallelWriteTest : public ::testing::Test {
 protected:
  void Open(const DBOptions& options, const std::string& sub) {
    db_.reset();
    ASSERT_LILSM_OK(DB::Open(options, dir_.path() + "/" + sub, &db_));
  }

  ScratchDir dir_{"db_parallel_write"};
  std::unique_ptr<DB> db_;
};

// The core equivalence claim: through the writer queue, N concurrent
// writers with disjoint key stripes produce exactly the state serial
// application of their streams would, both live and after a close/reopen
// WAL replay.
TEST_F(DbParallelWriteTest, GroupCommitEquivalentToSerialApplication) {
  for (int writers : {1, 4, 16, 64}) {
    DBOptions options = ParallelDbOptions();
    const std::string sub = "gc" + std::to_string(writers);
    Open(options, sub);

    const int ops_per_writer =
        writers >= 64 ? 100 : (writers >= 16 ? 400 : 1500);
    std::vector<std::vector<Op>> streams;
    std::map<Key, std::optional<std::string>> model;
    for (int w = 0; w < writers; w++) {
      streams.push_back(MakeStream(w, ops_per_writer));
      ApplyToModel(w, streams.back(), &model);
    }

    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; w++) {
      threads.emplace_back([&, w] {
        if (!RunStream(db_.get(), w, streams[w])) failed.store(true);
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_FALSE(failed.load());

    const uint64_t groups = db_->stats()->Count(Counter::kGroupCommits);
    const uint64_t served =
        db_->stats()->Count(Counter::kGroupCommitBatchSize);
    ASSERT_GT(groups, 0u);
    ASSERT_GE(served, groups);  // every group serves >= 1 writer

    ExpectMatchesModel(db_.get(), model);

    // Close without flushing: the reopened state comes from WAL replay.
    Open(options, sub);
    ExpectMatchesModel(db_.get(), model);

    // And it survives settling the tree.
    ASSERT_LILSM_OK(db_->CompactUntilStable());
    ExpectMatchesModel(db_.get(), model);
    db_.reset();
  }
}

// Regression (PR 6 bugfix): a sync=true write that joins a group whose
// leader has sync=false must still be fsync'd before it is acknowledged —
// the leader upgrades the group's sync bit to the OR of its members.
// Deterministic setup: park leader Z inside its WAL append behind a gate,
// queue A (sync=false) then B (sync=true) behind it, release the gate, and
// check B's durability plus the group accounting.
TEST_F(DbParallelWriteTest, SyncJoinerUpgradesGroupSync) {
  GatedEnv env(Env::Default(), ".log");
  DBOptions options;  // kInline: no background work muddies the counters
  options.env = &env;
  options.value_size = kValueSize;
  Open(options, "sync_upgrade");

  env.CloseGate();
  std::thread z([&] {
    ASSERT_LILSM_OK(db_->Put(WriteOptions(), 1, ValueFor(1, 1)));
  });
  env.AwaitBlockedAppender();  // Z is leader, parked mid-append

  std::atomic<bool> a_done{false}, b_done{false};
  std::thread a([&] {
    WriteOptions wopts;
    wopts.sync = false;
    ASSERT_LILSM_OK(db_->Put(wopts, 2, ValueFor(2, 1)));
    a_done.store(true);
  });
  std::thread b([&] {
    WriteOptions wopts;
    wopts.sync = true;
    ASSERT_LILSM_OK(db_->Put(wopts, 3, ValueFor(3, 1)));
    b_done.store(true);
  });
  // Give A and B time to enqueue behind the parked leader. They cannot
  // finish while the gate is closed (A leads the next group and blocks in
  // its own append), so after the sleep both are queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_FALSE(a_done.load());
  ASSERT_FALSE(b_done.load());

  env.OpenGate();
  z.join();
  a.join();
  b.join();

  // B was acknowledged => the WAL was fsync'd despite A (sync=false)
  // leading the group. Checked before any close-path syncs can run.
  ASSERT_GE(env.gated_syncs(), 1u);
  // Two groups formed: {Z} then {A, B} under A's leadership.
  ASSERT_EQ(db_->stats()->Count(Counter::kGroupCommits), 2u);
  ASSERT_EQ(db_->stats()->Count(Counter::kGroupCommitBatchSize), 3u);
  db_.reset();  // before the Env it borrows goes out of scope
}

// Range-partitioned subcompactions must produce the same logical database
// as the single-threaded merge: same iterator dump, same Gets, same
// level-model answers — only file cut points may differ.
TEST_F(DbParallelWriteTest, SubcompactionsMatchSingleThreadedMerge) {
  DBOptions base;  // kInline: both runs are deterministic
  base.write_buffer_size = 64 << 10;
  base.sstable_target_size = 16 << 10;  // many next-level files to shard on
  base.l0_compaction_trigger = 2;
  base.value_size = kValueSize;
  // Level-granularity maintained models: shard outputs must stitch into
  // the level model exactly as a single-threaded compaction's would.
  base.index_granularity = IndexGranularity::kLevel;
  base.level_model_policy = LevelModelPolicy::kCompactionMaintained;

  auto load = [&](DB* db) {
    Random rnd(42);
    for (int i = 0; i < 12000; i++) {
      const Key key = 1 + rnd.Uniform(6000);
      if (rnd.OneIn(8)) {
        ASSERT_LILSM_OK(db->Delete(key));
      } else {
        ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 1 + i % 7)));
      }
    }
    ASSERT_LILSM_OK(db->FlushMemTable());
    ASSERT_LILSM_OK(db->CompactUntilStable());
  };

  DBOptions serial = base;
  serial.max_subcompactions = 1;
  Open(serial, "subc_serial");
  load(db_.get());
  ASSERT_EQ(db_->stats()->Count(Counter::kSubcompactions), 0u);
  std::vector<std::pair<Key, std::string>> expected;
  {
    auto iter = db_->NewIterator();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      expected.emplace_back(iter->key(), iter->value().ToString());
    }
  }
  ASSERT_FALSE(expected.empty());

  DBOptions sharded = base;
  sharded.max_subcompactions = 4;
  std::unique_ptr<DB> db2;
  ASSERT_LILSM_OK(DB::Open(sharded, dir_.path() + "/subc_sharded", &db2));
  load(db2.get());
  ASSERT_GT(db2->stats()->Count(Counter::kSubcompactions), 0u);

  // Identical logical contents...
  {
    auto iter = db2->NewIterator();
    size_t i = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
      ASSERT_LT(i, expected.size());
      ASSERT_EQ(iter->key(), expected[i].first);
      ASSERT_EQ(iter->value().ToString(), expected[i].second);
    }
    ASSERT_EQ(i, expected.size());
  }
  // ...and identical point-lookup answers through the stitched models.
  std::string v1, v2;
  for (Key key = 1; key <= 6000; key += 13) {
    Status s1 = db_->Get(key, &v1);
    Status s2 = db2->Get(key, &v2);
    ASSERT_EQ(s1.ok(), s2.ok()) << "key " << key;
    if (s1.ok()) {
      ASSERT_EQ(v1, v2) << "key " << key;
    }
  }

  // The sharded DB's manifest round-trips: reopen and re-verify a sample.
  db2.reset();
  ASSERT_LILSM_OK(DB::Open(sharded, dir_.path() + "/subc_sharded", &db2));
  for (Key key = 1; key <= 6000; key += 97) {
    Status s1 = db_->Get(key, &v1);
    Status s2 = db2->Get(key, &v2);
    ASSERT_EQ(s1.ok(), s2.ok()) << "key " << key;
    if (s1.ok()) {
      ASSERT_EQ(v1, v2) << "key " << key;
    }
  }
}

// The whole stack at once: group commit + concurrent background jobs +
// subcompactions, with foreground FlushMemTable barriers racing the
// writer queue. Exercised under TSan in CI.
TEST_F(DbParallelWriteTest, FullParallelStackUnderLoad) {
  DBOptions options = ParallelDbOptions();
  options.max_background_jobs = 3;
  options.max_subcompactions = 2;
  Open(options, "full_stack");

  constexpr int kWriters = 4;
  constexpr int kOps = 1200;
  std::vector<std::vector<Op>> streams;
  std::map<Key, std::optional<std::string>> model;
  for (int w = 0; w < kWriters; w++) {
    streams.push_back(MakeStream(w, kOps));
    ApplyToModel(w, streams.back(), &model);
  }

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      if (!RunStream(db_.get(), w, streams[w])) failed.store(true);
    });
  }
  // Foreground flushes force memtable switches through the writer-queue
  // barrier while the group-commit leaders are mid-flight.
  std::thread flusher([&] {
    while (!done.load() && !failed.load()) {
      if (!db_->FlushMemTable().ok()) failed.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  for (int w = 0; w < kWriters; w++) threads[w].join();
  done.store(true);
  flusher.join();
  ASSERT_FALSE(failed.load());

  ASSERT_GT(db_->stats()->Count(Counter::kGroupCommits), 0u);
  ASSERT_LILSM_OK(db_->CompactUntilStable());
  ExpectMatchesModel(db_.get(), model);

  // Reopen: manifest + WAL replay reproduce the same state.
  Open(options, "full_stack");
  ExpectMatchesModel(db_.get(), model);
}

// The new knobs are validated like every other option.
TEST_F(DbParallelWriteTest, ValidateRejectsNonPositiveParallelism) {
  DBOptions options;
  options.max_background_jobs = 0;
  ASSERT_FALSE(options.Validate().ok());
  options.max_background_jobs = 1;
  options.max_subcompactions = -1;
  ASSERT_FALSE(options.Validate().ok());
  options.max_subcompactions = 1;
  ASSERT_LILSM_OK(options.Validate());
}

}  // namespace
}  // namespace lilsm
