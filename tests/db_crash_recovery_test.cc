// Randomized kill-restart torture and targeted crash regressions over
// FaultEnv: after any simulated power cut, the recovered DB must hold an
// exact prefix of the committed write sequence — nothing invented, no
// gaps, and (under sync_wal) nothing acked lost. Also the CURRENT-install
// step-crash matrix, the typed mid-log corruption refusal, and the
// maintained open that stitches level models from each table's own index
// (zero key scans; a corrupt index blob fails only its own table).
//
// Schedule count: LILSM_TORTURE_SCHEDULES (default 1000). CI's sanitizer
// jobs bound it; a local `LILSM_TORTURE_SCHEDULES=20000 ./db_crash_
// recovery_test` runs a deeper soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "table/format.h"
#include "table/table.h"
#include "tests/test_util.h"
#include "util/fault_env.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 16;

int Schedules() {
  const char* env = std::getenv("LILSM_TORTURE_SCHEDULES");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1000;
}

// The committed value for the i-th write of a schedule: ties the payload
// to both the key and the write index so distinct states differ.
std::string ValueAt(Key key, uint64_t index) {
  return DeriveValue(key ^ (index * 0x9E3779B97F4A7C15ull), kValueSize);
}

DBOptions TortureOptions(Env* env, Random* rnd) {
  DBOptions options;
  options.env = env;
  options.key_size = 24;
  options.value_size = kValueSize;
  // Tiny, randomized geometry so schedules crash inside flushes,
  // compactions, and WAL rolls — not just between Puts.
  options.write_buffer_size = 1024 << rnd->Uniform(7);  // 1 KiB .. 64 KiB
  options.sstable_target_size = 8 << 10;
  options.l0_compaction_trigger = 2;
  return options;
}

// One serial kill-restart schedule. Writes key i = 0, 1, 2, ... (values
// bound to i), cuts power mid-stream via a random ops- or bytes-limit,
// materializes the crash, recovers, and asserts the surviving state is
// model(p) for a single prefix length p with floor <= p <= attempted.
void RunSerialSchedule(uint64_t seed) {
  Random rnd(seed);
  ScratchDir dir("crash");
  FaultEnv env(Env::Default());
  const std::string dbname = dir.file("db");
  const bool sync = rnd.OneIn(2);
  const uint64_t target_writes = 40 + rnd.Uniform(200);

  uint64_t acked = 0;
  bool failed = false;
  {
    DBOptions options = TortureOptions(&env, &rnd);
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
    // Arm the fault after Open so the cut lands in the write path (the
    // open/recovery path gets its own step matrix below).
    if (rnd.OneIn(2)) {
      env.SetFailAfterOps(1 + rnd.Uniform(120));
    } else {
      env.SetFailAfterBytes(256 + rnd.Uniform(24 << 10));
    }
    WriteOptions wopts;
    wopts.sync = sync;
    for (uint64_t i = 0; i < target_writes; i++) {
      if (!db->Put(wopts, i, ValueAt(i, i)).ok()) {
        failed = true;
        break;
      }
      acked++;
    }
    env.CutPower();  // limit never reached: crash right here instead
  }
  const uint64_t attempted = acked + (failed ? 1 : 0);
  const CrashSurvival survival = static_cast<CrashSurvival>(rnd.Uniform(3));
  ASSERT_LILSM_OK(env.MaterializeCrash(survival, rnd.Next()));

  // Recover and hunt for the prefix point.
  DBOptions options = TortureOptions(&env, &rnd);
  std::unique_ptr<DB> db;
  Status open_status = DB::Open(options, dbname, &db);
  ASSERT_TRUE(open_status.ok()) << "schedule " << seed << " failed to recover: "
                                << open_status.ToString();
  uint64_t p = 0;
  std::string value;
  while (p < attempted) {
    Status s = db->Get(p, &value);
    if (s.IsNotFound()) break;
    ASSERT_TRUE(s.ok()) << "schedule " << seed << " key " << p << ": "
                        << s.ToString();
    ASSERT_EQ(value, ValueAt(p, p))
        << "schedule " << seed << " recovered a wrong value for key " << p;
    p++;
  }
  // No gaps: everything past the prefix point must be absent.
  for (uint64_t i = p; i < attempted + 4; i++) {
    Status s = db->Get(i, &value);
    ASSERT_TRUE(s.IsNotFound())
        << "schedule " << seed << ": key " << i
        << " survived past the recovery prefix p=" << p;
  }
  const uint64_t floor = sync ? acked : 0;
  ASSERT_GE(p, floor) << "schedule " << seed
                      << " lost acked synced writes (acked=" << acked << ")";
  ASSERT_LE(p, attempted) << "schedule " << seed << " invented writes";
}

TEST(DbCrashTortureTest, SerialSchedulesRecoverAPrefix) {
  const int schedules = Schedules();
  for (int i = 0; i < schedules; i++) {
    RunSerialSchedule(0x5EED0000u + static_cast<uint64_t>(i));
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "stopping after first divergent schedule";
    }
  }
}

// Read-block schedule: a memtable too large to flush, so the whole
// schedule lives in one WAL, written as batches of 1..64 Puts with now and
// then one larger than a read block. Power is cut once the log spans at
// least three of the reader's read blocks: half the cuts land within 32
// bytes of the third or fourth block boundary, the rest anywhere past the
// third. A torn unsynced suffix (kRandomPrefix) then cuts the log anywhere
// before that, so replay meets records torn at and across every boundary
// it stitches. The recovered keys must still be an exact prefix.
void RunBlockSpanSchedule(uint64_t seed) {
  constexpr uint64_t kBlock = LogReader::kBlockSize;
  Random rnd(seed);
  ScratchDir dir("crashblk");
  FaultEnv env(Env::Default());
  const std::string dbname = dir.file("db");
  DBOptions options;
  options.env = &env;
  options.key_size = 24;
  options.value_size = kValueSize;
  options.write_buffer_size = 8 << 20;
  const bool sync = rnd.OneIn(2);
  const uint64_t wal_target = 4 * kBlock + rnd.Uniform(kBlock);

  uint64_t acked = 0;
  uint64_t attempted = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
    // Nothing flushes, so every byte appended from here on is WAL.
    if (rnd.OneIn(2)) {
      const uint64_t boundary = kBlock * (3 + rnd.Uniform(2));
      env.SetFailAfterBytes(boundary - 32 + rnd.Uniform(65));
    } else {
      env.SetFailAfterBytes(3 * kBlock + rnd.Uniform(wal_target - 3 * kBlock));
    }
    WriteOptions wopts;
    wopts.sync = sync;
    uint64_t logged = 0;
    while (logged < wal_target) {
      const uint64_t n =
          rnd.OneIn(200) ? 3000 + rnd.Uniform(2000) : 1 + rnd.Uniform(64);
      WriteBatch batch;
      for (uint64_t k = acked; k < acked + n; k++) {
        batch.Put(k, ValueAt(k, k));
      }
      logged += 8 + batch.ApproximateSize();
      attempted = acked + n;
      if (!db->Write(wopts, &batch).ok()) break;
      acked = attempted;
    }
    ASSERT_EQ(db->NumFilesAtLevel(0), 0) << "schedule " << seed;
    env.CutPower();
  }
  ASSERT_LILSM_OK(
      env.MaterializeCrash(static_cast<CrashSurvival>(rnd.Uniform(3)),
                           rnd.Next()));

  std::unique_ptr<DB> db;
  Status open_status = DB::Open(options, dbname, &db);
  ASSERT_TRUE(open_status.ok()) << "schedule " << seed << " failed to recover: "
                                << open_status.ToString();
  uint64_t p = 0;
  std::string value;
  while (p < attempted) {
    Status s = db->Get(p, &value);
    if (s.IsNotFound()) break;
    ASSERT_TRUE(s.ok()) << "schedule " << seed << " key " << p << ": "
                        << s.ToString();
    ASSERT_EQ(value, ValueAt(p, p))
        << "schedule " << seed << " recovered a wrong value for key " << p;
    p++;
  }
  for (uint64_t k = p; k < attempted + 4; k++) {
    ASSERT_TRUE(db->Get(k, &value).IsNotFound())
        << "schedule " << seed << ": key " << k
        << " survived past the recovery prefix p=" << p;
  }
  ASSERT_GE(p, sync ? acked : 0)
      << "schedule " << seed << " lost acked synced writes (acked=" << acked
      << ")";
}

TEST(DbCrashTortureTest, BlockSpanningWalSchedulesRecoverAPrefix) {
  const int schedules = std::max(Schedules() / 20, 5);
  for (int i = 0; i < schedules; i++) {
    RunBlockSpanSchedule(0xB10C0000u + static_cast<uint64_t>(i));
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "stopping after first divergent schedule";
    }
  }
}

// Group-commit schedule: four writers with disjoint key ranges race
// sync_wal'd Puts into the group-commit queue while a random fault cuts
// power. Batches from different writers share WAL records, so this
// exercises crashes on group boundaries; per writer, the recovered keys
// must still be an exact prefix of its sequence covering every ack.
void RunGroupCommitSchedule(uint64_t seed) {
  constexpr int kWriters = 4;
  constexpr uint64_t kStride = 1u << 20;  // disjoint per-writer key ranges
  Random rnd(seed);
  ScratchDir dir("crashgc");
  FaultEnv env(Env::Default());
  const std::string dbname = dir.file("db");
  const uint64_t per_writer = 20 + rnd.Uniform(60);

  uint64_t acked[kWriters] = {};
  {
    DBOptions options = TortureOptions(&env, &rnd);
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
    env.SetFailAfterOps(1 + rnd.Uniform(200));
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; w++) {
      threads.emplace_back([&, w] {
        WriteOptions wopts;
        wopts.sync = true;
        for (uint64_t i = 0; i < per_writer; i++) {
          const Key key = static_cast<Key>(w) * kStride + i;
          if (!db->Put(wopts, key, ValueAt(key, i)).ok()) break;
          acked[w]++;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    env.CutPower();
  }
  ASSERT_LILSM_OK(
      env.MaterializeCrash(static_cast<CrashSurvival>(rnd.Uniform(3)),
                           rnd.Next()));

  DBOptions options = TortureOptions(&env, &rnd);
  std::unique_ptr<DB> db;
  Status open_status = DB::Open(options, dbname, &db);
  ASSERT_TRUE(open_status.ok()) << "schedule " << seed << " failed to recover: "
                                << open_status.ToString();
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    uint64_t p = 0;
    while (p < per_writer) {
      const Key key = static_cast<Key>(w) * kStride + p;
      Status s = db->Get(key, &value);
      if (s.IsNotFound()) break;
      ASSERT_LILSM_OK(s);
      ASSERT_EQ(value, ValueAt(key, p)) << "schedule " << seed;
      p++;
    }
    for (uint64_t i = p; i < per_writer; i++) {
      const Key key = static_cast<Key>(w) * kStride + i;
      ASSERT_TRUE(db->Get(key, &value).IsNotFound())
          << "schedule " << seed << " writer " << w << ": gap before key "
          << key;
    }
    // Group commit syncs before acking: every acked write must survive;
    // at most the single in-flight write may land beyond the acks.
    ASSERT_GE(p, acked[w]) << "schedule " << seed << " writer " << w
                           << " lost acked writes";
    ASSERT_LE(p, acked[w] + 1) << "schedule " << seed << " writer " << w
                               << " invented writes";
  }
}

TEST(DbCrashTortureTest, GroupCommitSchedulesKeepEveryAck) {
  const int schedules = std::max(Schedules() / 10, 5);
  for (int i = 0; i < schedules; i++) {
    RunGroupCommitSchedule(0x6C0DE000u + static_cast<uint64_t>(i));
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "stopping after first divergent schedule";
    }
  }
}

// With a volatile write cache (syncs dropped), a crash may lose any
// suffix — the contract degrades to "recovers cleanly, invents nothing,
// correct values for whatever survives". Prefix equality is deliberately
// NOT asserted: dropped syncs can legally tear each WAL independently.
TEST(DbCrashTortureTest, DroppedSyncsStillRecoverCleanly) {
  const int schedules = std::max(Schedules() / 10, 5);
  for (int i = 0; i < schedules; i++) {
    const uint64_t seed = 0xD20Bu + static_cast<uint64_t>(i);
    Random rnd(seed);
    ScratchDir dir("crashds");
    FaultEnvOptions fopts;
    fopts.drop_syncs = true;
    FaultEnv env(Env::Default(), fopts);
    const std::string dbname = dir.file("db");
    const uint64_t writes = 40 + rnd.Uniform(120);
    {
      DBOptions options = TortureOptions(&env, &rnd);
      std::unique_ptr<DB> db;
      ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
      WriteOptions wopts;
      wopts.sync = true;  // acked-and-synced... into the lying cache
      for (uint64_t k = 0; k < writes; k++) {
        ASSERT_LILSM_OK(db->Put(wopts, k, ValueAt(k, k)));
      }
      env.CutPower();
    }
    ASSERT_LILSM_OK(env.MaterializeCrash(
        static_cast<CrashSurvival>(rnd.Uniform(3)), rnd.Next()));

    DBOptions options = TortureOptions(&env, &rnd);
    std::unique_ptr<DB> db;
    Status open_status = DB::Open(options, dbname, &db);
    ASSERT_TRUE(open_status.ok()) << "schedule " << seed
                                  << " failed to recover: "
                                  << open_status.ToString();
    std::string value;
    for (uint64_t k = 0; k < writes + 4; k++) {
      Status s = db->Get(k, &value);
      if (s.IsNotFound()) continue;
      ASSERT_TRUE(s.ok()) << "schedule " << seed << ": " << s.ToString();
      ASSERT_TRUE(k < writes && value == ValueAt(k, k))
          << "schedule " << seed << " invented or corrupted key " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// CURRENT-install step-crash matrix (the tmp-write + rename + dir-fsync
// protocol): crash after every k-th env op of a reopen, materialize the
// adversarial image, and require full recovery of the committed data.
// ---------------------------------------------------------------------------

TEST(DbCrashRecoveryTest, CurrentInstallSurvivesEveryStepCrash) {
  ScratchDir dir("crash");
  FaultEnv env(Env::Default());
  const std::string dbname = dir.file("db");
  constexpr uint64_t kKeys = 64;

  {
    DBOptions options;
    options.env = &env;
    options.value_size = kValueSize;
    options.write_buffer_size = 1 << 10;  // several flushes + compactions
    options.sstable_target_size = 8 << 10;
    options.l0_compaction_trigger = 2;
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
    WriteOptions wopts;
    wopts.sync = true;
    for (uint64_t k = 0; k < kKeys; k++) {
      ASSERT_LILSM_OK(db->Put(wopts, k, ValueAt(k, k)));
    }
  }

  bool completed = false;
  for (uint64_t budget = 1; budget <= 400 && !completed; budget++) {
    env.SetFailAfterOps(budget);
    DBOptions options;
    options.env = &env;
    options.value_size = kValueSize;
    {
      // A reopen replays WALs, rewrites MANIFEST, and swaps CURRENT; the
      // budget walks a power cut through every step of that protocol.
      std::unique_ptr<DB> db;
      completed = DB::Open(options, dbname, &db).ok();
    }
    ASSERT_LILSM_OK(env.MaterializeCrash(CrashSurvival::kDurableOnly,
                                         /*seed=*/budget));
    std::unique_ptr<DB> db;
    Status open_status = DB::Open(options, dbname, &db);
    ASSERT_TRUE(open_status.ok())
        << "unrecoverable image after crashing at op " << budget << ": "
        << open_status.ToString();
    std::string value;
    for (uint64_t k = 0; k < kKeys; k++) {
      Status get_status = db->Get(k, &value);
      ASSERT_TRUE(get_status.ok()) << "crash at op " << budget << " lost key "
                                   << k << ": " << get_status.ToString();
      ASSERT_EQ(value, ValueAt(k, k)) << "crash at op " << budget;
    }
  }
  EXPECT_TRUE(completed) << "open never ran to completion within the matrix";
}

// Mid-log WAL damage (intact records beyond it) must fail recovery with
// Corruption — silently truncating there would drop acked writes.
TEST(DbCrashRecoveryTest, MidWalCorruptionRefusesToOpen) {
  ScratchDir dir("crash");
  const std::string dbname = dir.file("db");
  {
    DBOptions options;
    options.value_size = kValueSize;
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
    for (uint64_t k = 0; k < 8; k++) {
      ASSERT_LILSM_OK(db->Put(k, ValueAt(k, k)));
    }
  }
  // Find the live WAL and flip one byte of the FIRST record's payload.
  std::vector<std::string> children;
  ASSERT_LILSM_OK(Env::Default()->GetChildren(dbname, &children));
  std::string wal;
  for (const std::string& name : children) {
    uint64_t number = 0;
    if (ParseFileName(name, &number) == FileKind::kWalFile) {
      wal = dbname + "/" + name;
    }
  }
  ASSERT_FALSE(wal.empty());
  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), wal, &contents));
  ASSERT_GT(contents.size(), 16u);
  contents[9] = static_cast<char>(contents[9] ^ 0x01);
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, wal));

  DBOptions options;
  options.value_size = kValueSize;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(options, dbname, &db).IsCorruption());
}

// ---------------------------------------------------------------------------
// Persisted learned models: each table's index blob, stitched at open.
// ---------------------------------------------------------------------------

DBOptions ModelOptions(LevelModelPolicy policy) {
  DBOptions options;
  options.value_size = kValueSize;
  options.write_buffer_size = 8 << 10;
  options.sstable_target_size = 16 << 10;
  options.l0_compaction_trigger = 2;
  options.index_granularity = IndexGranularity::kLevel;
  options.level_model_policy = policy;
  options.index_type = IndexType::kPGM;
  return options;
}

// Builds a compacted, maintained-model DB; returns the keys.
std::vector<Key> BuildMaintainedDb(const std::string& dbname) {
  std::vector<Key> keys = testing_util::RandomGapKeys(1200, 77);
  std::unique_ptr<DB> db;
  EXPECT_LILSM_OK(DB::Open(
      ModelOptions(LevelModelPolicy::kCompactionMaintained), dbname, &db));
  for (Key k : keys) EXPECT_LILSM_OK(db->Put(k, ValueAt(k, 0)));
  EXPECT_LILSM_OK(db->CompactAll());
  EXPECT_EQ(db->NumFilesAtLevel(0), 0);
  return keys;
}

TEST(PersistedModelTest, MaintainedOpenStitchesWithZeroKeyScans) {
  ScratchDir dir("models");
  const std::string dbname = dir.file("db");
  const std::vector<Key> keys = BuildMaintainedDb(dbname);

  // Open: level models stitched from the tables' own indexes, zero
  // key-scan bytes, one model_load span.
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(
      ModelOptions(LevelModelPolicy::kCompactionMaintained), dbname, &db));
  EXPECT_GT(db->stats()->Count(Counter::kModelsStitched), 0u);
  EXPECT_EQ(db->stats()->Count(Counter::kModelBuildBytesRead), 0u)
      << "maintained open scanned keys";
  EXPECT_EQ(db->stats()->TimerCount(Timer::kModelLoad), 1u);
  EXPECT_GT(db->stats()->TimerCount(Timer::kRecover), 0u);

  std::vector<std::string> maintained_values(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_LILSM_OK(db->Get(keys[i], &maintained_values[i]));
  }
  EXPECT_EQ(db->stats()->Count(Counter::kModelBuildBytesRead), 0u)
      << "maintained reads retrained a level";

  // The stitched models serve bit-identical results to level models
  // trained from a full key scan (a lazy open's first reads).
  db.reset();
  ASSERT_LILSM_OK(
      DB::Open(ModelOptions(LevelModelPolicy::kLazyRebuild), dbname, &db));
  EXPECT_EQ(db->stats()->Count(Counter::kModelsStitched), 0u);
  std::string value;
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_LILSM_OK(db->Get(keys[i], &value));
    ASSERT_EQ(value, maintained_values[i]) << "key " << keys[i];
  }
  EXPECT_GT(db->stats()->Count(Counter::kModelBuildBytesRead), 0u)
      << "lazy reads trained no level model";
}

TEST(PersistedModelTest, CorruptIndexBlobFailsOnlyItsTable) {
  ScratchDir dir("models");
  const std::string dbname = dir.file("db");
  const std::vector<Key> keys = BuildMaintainedDb(dbname);

  // The first table file (all tables are at L>=1 after CompactAll): read
  // its keys, then flip one byte inside its index blob, leaving the
  // rest of the file intact.
  std::vector<std::string> children;
  ASSERT_LILSM_OK(Env::Default()->GetChildren(dbname, &children));
  std::sort(children.begin(), children.end());
  std::string path;
  int tables = 0;
  for (const std::string& name : children) {
    uint64_t number = 0;
    if (ParseFileName(name, &number) != FileKind::kTableFile) continue;
    if (path.empty()) path = dbname + "/" + name;
    tables++;
  }
  ASSERT_GT(tables, 1);
  TableOptions table_options;
  table_options.env = Env::Default();
  table_options.value_size = kValueSize;
  std::vector<Key> corrupt_keys;
  Footer footer;
  {
    std::unique_ptr<TableReader> reader;
    ASSERT_LILSM_OK(TableReader::Open(table_options, path, &reader));
    ASSERT_LILSM_OK(reader->ReadAllKeys(&corrupt_keys));
    uint64_t file_size = 0;
    ASSERT_LILSM_OK(Env::Default()->GetFileSize(path, &file_size));
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_LILSM_OK(Env::Default()->NewRandomAccessFile(path, &file));
    ASSERT_LILSM_OK(ReadFooter(file.get(), file_size, &footer));
  }
  ASSERT_FALSE(corrupt_keys.empty());
  ASSERT_LT(corrupt_keys.size(), keys.size());
  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), path, &contents));
  const size_t at = static_cast<size_t>(footer.index_handle.offset +
                                        footer.index_handle.size / 2);
  contents[at] = static_cast<char>(contents[at] ^ 0x01);
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, path));

  // Open still succeeds. The damaged table answers Corruption, never
  // NotFound or a wrong value; every other table serves.
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(
      ModelOptions(LevelModelPolicy::kCompactionMaintained), dbname, &db));
  std::string value;
  for (Key k : corrupt_keys) {
    Status s = db->Get(k, &value);
    ASSERT_TRUE(s.IsCorruption()) << "key " << k << ": " << s.ToString();
  }
  size_t served = 0;
  for (Key k : keys) {
    if (std::binary_search(corrupt_keys.begin(), corrupt_keys.end(), k)) {
      continue;
    }
    ASSERT_LILSM_OK(db->Get(k, &value));
    ASSERT_EQ(value, ValueAt(k, 0)) << "key " << k;
    served++;
  }
  EXPECT_EQ(served, keys.size() - corrupt_keys.size());
  // The damaged level's model could not be stitched at open; the first
  // read's full-level train met the Corruption, and no later read
  // rescanned the level.
  EXPECT_EQ(db->stats()->TimerCount(Timer::kLevelIndexBuild), 1u);
}

// The WAL-records-replayed counter is visible after a recovering open.
TEST(DbCrashRecoveryTest, ReplayCounterCountsRecords) {
  ScratchDir dir("crash");
  const std::string dbname = dir.file("db");
  {
    DBOptions options;
    options.value_size = kValueSize;
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
    for (uint64_t k = 0; k < 12; k++) {
      ASSERT_LILSM_OK(db->Put(k, ValueAt(k, k)));
    }
  }
  DBOptions options;
  options.value_size = kValueSize;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
  EXPECT_EQ(db->stats()->Count(Counter::kWalRecordsReplayed), 12u);
  EXPECT_GT(db->stats()->TimerCount(Timer::kRecover), 0u);
}

}  // namespace
}  // namespace lilsm
