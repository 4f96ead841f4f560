// Async batched I/O, DB level: MultiGet at io_depth > 1 is bit-identical
// to the synchronous paper path, cache on/off, and both index
// granularities; default knobs keep the async machinery fully disengaged
// (zero async counters, unchanged SimEnv read counts); scans size their
// own reads (ramped window reads, each block read once, zero reads when
// warm); and the SimEnv queue-depth model shows batched cold reads costing
// less modeled latency than the sequential path. Runs under TSan in CI —
// MultiGet at io_depth > 1 exercises the thread-pool ReadBatch backend.
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

DBOptions SmallOptions(int io_depth, size_t block_cache_bytes = 0) {
  DBOptions options;
  options.write_buffer_size = 64 << 10;
  options.sstable_target_size = 32 << 10;
  options.l0_compaction_trigger = 2;
  options.key_size = 24;
  options.value_size = kValueSize;
  options.block_cache_bytes = block_cache_bytes;
  options.io_depth = io_depth;
  return options;
}

std::string ValueFor(Key key) {
  return DeriveValue(key ^ 0xA5A5A5A5, kValueSize);
}

/// Loads `keys` and merges the tree down so levels >= 1 are populated —
/// the async MultiGet branch only engages below L0.
void LoadAndCompact(DB* db, const std::vector<Key>& keys) {
  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Put(key, ValueFor(key)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());
  ASSERT_LILSM_OK(db->CompactAll());
}

/// Runs identical randomized MultiGet batches (present + absent keys)
/// against both DBs and asserts element-wise identical statuses/values,
/// cross-checked against ValueFor.
void ExpectMultiGetEquivalent(DB* sync_db, DB* async_db,
                              const std::vector<Key>& keys, uint64_t seed) {
  Random rnd(seed);
  std::vector<Key> batch;
  for (int round = 0; round < 15; round++) {
    batch.clear();
    for (int j = 0; j < 96; j++) {
      // Mix hits with misses (written keys are odd multiples of gaps;
      // key+1 is absent with high probability).
      Key key = keys[rnd.Uniform(keys.size())];
      if (j % 5 == 0) key += 1;
      batch.push_back(key);
    }
    std::vector<std::string> sync_values, async_values;
    std::vector<Status> sync_statuses, async_statuses;
    ASSERT_LILSM_OK(sync_db->MultiGet(batch, &sync_values, &sync_statuses));
    ASSERT_LILSM_OK(
        async_db->MultiGet(batch, &async_values, &async_statuses));
    ASSERT_EQ(sync_values.size(), batch.size());
    ASSERT_EQ(async_values.size(), batch.size());
    for (size_t j = 0; j < batch.size(); j++) {
      EXPECT_EQ(sync_statuses[j].ToString(), async_statuses[j].ToString())
          << "key " << batch[j];
      EXPECT_EQ(sync_values[j], async_values[j]) << "key " << batch[j];
      if (sync_statuses[j].ok()) {
        EXPECT_EQ(sync_values[j], ValueFor(batch[j]));
      }
    }
  }
}

// The core contract: MultiGet at io_depth=8 answers bit-identically to
// io_depth=1 over identical trees, cache off and on, and the async DB
// actually takes the batched path (kAsyncBatches advances).
TEST(DbAsyncIoTest, AsyncMultiGetMatchesSyncBitExact) {
  ScratchDir dir("dbasync_equiv");
  const std::vector<Key> keys = RandomGapKeys(5000, 7);
  for (size_t cache_bytes : {size_t{0}, size_t{512 << 10}}) {
    const std::string tag =
        cache_bytes == 0 ? "/cold" : "/cached";
    std::unique_ptr<DB> sync_db, async_db;
    ASSERT_LILSM_OK(DB::Open(SmallOptions(1, cache_bytes),
                             dir.path() + tag + "_sync", &sync_db));
    ASSERT_LILSM_OK(DB::Open(SmallOptions(8, cache_bytes),
                             dir.path() + tag + "_async", &async_db));
    LoadAndCompact(sync_db.get(), keys);
    LoadAndCompact(async_db.get(), keys);

    ExpectMultiGetEquivalent(sync_db.get(), async_db.get(), keys,
                             31 + cache_bytes);
    EXPECT_GT(async_db->stats()->Count(Counter::kAsyncBatches), 0u);
    EXPECT_EQ(sync_db->stats()->Count(Counter::kAsyncBatches), 0u);
    if (cache_bytes == 0) {
      // Every block is cold, so batches must contain real reads.
      EXPECT_GT(async_db->stats()->Count(Counter::kAsyncReads), 0u);
    }
  }
}

SimEnvOptions CountingSimOptions() {
  SimEnvOptions sim_options;
  sim_options.read_base_latency_ns = 0;  // count I/O, don't simulate it
  sim_options.read_per_byte_ns = 0.0;
  return sim_options;
}

/// Every entry of a full scan, in order.
std::vector<std::pair<Key, std::string>> FullScan(DB* db) {
  std::vector<std::pair<Key, std::string>> out;
  auto iter = db->NewIterator();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    out.emplace_back(iter->key(), iter->value().ToString());
  }
  EXPECT_LILSM_OK(iter->status());
  return out;
}

// Full scans and range lookups return every entry in order, cache off and
// on, and their window reads count in the readahead counters.
TEST(DbAsyncIoTest, ScansReturnEveryEntry) {
  ScratchDir dir("dbasync_scan");
  const std::vector<Key> keys = RandomGapKeys(5000, 5);
  for (size_t cache_bytes : {size_t{0}, size_t{512 << 10}}) {
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(
        SmallOptions(1, cache_bytes),
        dir.path() + (cache_bytes == 0 ? "/cold" : "/cached"), &db));
    LoadAndCompact(db.get(), keys);

    const std::vector<std::pair<Key, std::string>> scan = FullScan(db.get());
    ASSERT_EQ(scan.size(), keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
      EXPECT_EQ(scan[i].first, keys[i]);
      EXPECT_EQ(scan[i].second, ValueFor(keys[i]));
    }
    EXPECT_GT(db->stats()->Count(Counter::kReadaheadHits), 0u);

    const size_t mid = keys.size() / 2;
    std::vector<std::pair<Key, std::string>> range;
    ASSERT_LILSM_OK(db->RangeLookup(ReadOptions(), keys[mid], 200, &range));
    EXPECT_EQ(range, decltype(range)(scan.begin() + mid,
                                     scan.begin() + mid + 200));
  }
}

// A settled tree's cold full scan (cache off) reads each data block once,
// in windows that double from one io block to kMaxScanReadBlocks per
// table: at most the tables' data bytes plus one io block per table, in
// at most 6 reads per table plus one per 16 data blocks.
TEST(DbAsyncIoTest, ColdScanReadsEachBlockOnceInRampedWindows) {
  ScratchDir dir("dbasync_ramp");
  SimEnv env(Env::Default(), CountingSimOptions());
  DBOptions options = SmallOptions(1);
  options.sstable_target_size = 256 << 10;  // ~64 io blocks per table
  options.env = &env;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path(), &db));
  const std::vector<Key> keys = RandomGapKeys(20000, 23);
  LoadAndCompact(db.get(), keys);
  uint64_t tables = 0, entries = 0;
  for (int level = 0; level < kNumLevels; level++) {
    tables += db->NumFilesAtLevel(level);
    entries += db->EntriesAtLevel(level);
  }
  ASSERT_EQ(entries, keys.size());
  ASSERT_GE(tables, 4u);
  const uint64_t block = kIoBlockSize;
  const uint64_t data_bytes = entries * (options.key_size + 8 + kValueSize);
  const uint64_t data_blocks = data_bytes / block + tables;  // upper bound

  ASSERT_EQ(FullScan(db.get()).size(), keys.size());  // opens every reader
  env.io_stats()->Reset();
  ASSERT_EQ(FullScan(db.get()).size(), keys.size());
  EXPECT_LE(env.io_stats()->random_read_bytes.load(),
            data_bytes + tables * block);
  EXPECT_LE(env.io_stats()->random_reads.load(),
            tables * 6 + data_blocks / TableReader::kMaxScanReadBlocks);

  // Seek resets the ramp: a short range read right after a full scan, on
  // a fresh iterator (RangeLookup) or on the scan's own, reads no more
  // bytes than the same range read before it.
  const Key start = keys[keys.size() / 3];
  std::vector<std::pair<Key, std::string>> range;
  auto range_reads = [&](auto&& read) {
    env.io_stats()->Reset();
    read();
    return env.io_stats()->random_read_bytes.load();
  };
  auto lookup = [&] {
    ASSERT_LILSM_OK(db->RangeLookup(ReadOptions(), start, 100, &range));
  };
  const uint64_t before = range_reads(lookup);
  ASSERT_EQ(FullScan(db.get()).size(), keys.size());
  EXPECT_LE(range_reads(lookup), before);

  auto iter = db->NewIterator();
  auto seek_range = [&] {
    iter->Seek(start);
    for (int i = 0; i < 100 && iter->Valid(); i++) iter->Next();
    ASSERT_LILSM_OK(iter->status());
  };
  const uint64_t iter_before = range_reads(seek_range);
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
  }
  ASSERT_LILSM_OK(iter->status());
  EXPECT_LE(range_reads(seek_range), iter_before);
}

// A window read probes the block cache before it reads: after a warm-up
// scan fills the cache, a full scan makes no Env read at all and returns
// the same entries.
TEST(DbAsyncIoTest, WarmCacheScanMakesNoReads) {
  ScratchDir dir("dbasync_warm");
  SimEnv env(Env::Default(), CountingSimOptions());
  const std::vector<Key> keys = RandomGapKeys(5000, 17);
  DBOptions options = SmallOptions(1, 8 << 20);  // holds every block
  options.env = &env;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path(), &db));
  LoadAndCompact(db.get(), keys);

  const std::vector<std::pair<Key, std::string>> warm = FullScan(db.get());
  env.io_stats()->Reset();
  EXPECT_EQ(FullScan(db.get()), warm);
  EXPECT_EQ(env.io_stats()->random_reads.load(), 0u);
  EXPECT_EQ(warm.size(), keys.size());
  EXPECT_GT(db->stats()->Count(Counter::kReadaheadHits), 0u);
}

// Level-granularity lookups (the paper's LevelModel axis) route through
// the same async branch with model-predicted bounds; results must stay
// bit-identical to the synchronous level-model path.
TEST(DbAsyncIoLevelModelTest, AsyncMultiGetMatchesSyncLevelGranularity) {
  ScratchDir dir("dbasync_level");
  const std::vector<Key> keys = RandomGapKeys(5000, 9);
  std::unique_ptr<DB> sync_db, async_db;
  DBOptions sync_opts = SmallOptions(1);
  DBOptions async_opts = SmallOptions(8);
  sync_opts.index_granularity = IndexGranularity::kLevel;
  async_opts.index_granularity = IndexGranularity::kLevel;
  ASSERT_LILSM_OK(DB::Open(sync_opts, dir.path() + "/sync", &sync_db));
  ASSERT_LILSM_OK(DB::Open(async_opts, dir.path() + "/async", &async_db));
  LoadAndCompact(sync_db.get(), keys);
  LoadAndCompact(async_db.get(), keys);

  ExpectMultiGetEquivalent(sync_db.get(), async_db.get(), keys, 77);
  EXPECT_GT(async_db->stats()->Count(Counter::kAsyncBatches), 0u);
}

// The default knob (io_depth=1) must keep the read path exactly
// synchronous: no async counter moves, a full scan reads every block it
// fetches, and the SimEnv device-read accounting matches a DB opened
// before the knob existed (i.e. with all-default options) to the exact
// read and byte count.
TEST(DbAsyncIoDefaultsTest, SyncDefaultsKeepExactReadCounts) {
  ScratchDir dir("dbasync_defaults");
  const SimEnvOptions sim_options = CountingSimOptions();
  const std::vector<Key> keys = RandomGapKeys(4000, 11);

  uint64_t reads[2], bytes[2];
  for (int explicit_knobs = 0; explicit_knobs < 2; explicit_knobs++) {
    SimEnv env(Env::Default(), sim_options);
    DBOptions options = SmallOptions(1);
    if (explicit_knobs == 1) {
      options.io_depth = 1;  // Explicitly spelled-out defaults.
    }
    options.env = &env;
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(
        options, dir.path() + "/d" + std::to_string(explicit_knobs), &db));
    LoadAndCompact(db.get(), keys);

    env.io_stats()->Reset();
    std::string value;
    ReadOptions ropts;
    for (size_t i = 0; i < keys.size(); i += 3) {
      ASSERT_LILSM_OK(db->Get(ropts, keys[i], &value));
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    std::vector<Key> batch(keys.begin(), keys.begin() + 512);
    ASSERT_LILSM_OK(db->MultiGet(ropts, batch, &values, &statuses));
    auto iter = db->NewIterator(ropts);
    size_t n = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
    ASSERT_LILSM_OK(iter->status());
    EXPECT_EQ(n, keys.size());
    reads[explicit_knobs] = env.io_stats()->random_reads.load();
    bytes[explicit_knobs] = env.io_stats()->random_read_bytes.load();

    EXPECT_EQ(db->stats()->Count(Counter::kAsyncBatches), 0u);
    EXPECT_EQ(db->stats()->Count(Counter::kAsyncReads), 0u);
    EXPECT_EQ(db->stats()->Count(Counter::kReadaheadWasted), 0u);
    EXPECT_EQ(db->stats()->TimerCount(Timer::kAsyncReap), 0u);
  }
  EXPECT_EQ(reads[0], reads[1]);
  EXPECT_EQ(bytes[0], bytes[1]);
}

// The perf claim under the deterministic queue model: a cold MultiGet
// sweep at io_depth=8 accrues strictly less modeled device wait than the
// identical sweep at io_depth=1 (overlapped reads cost max-per-wave, not
// sum), while returning the identical answers.
TEST(DbAsyncIoLatencyTest, BatchedColdReadsCostLessModeledLatency) {
  ScratchDir dir("dbasync_latency");
  const std::vector<Key> keys = RandomGapKeys(5000, 13);
  SimEnvOptions sim_options;  // Paper-calibrated defaults (~2.1us / 4KiB).

  uint64_t wait_ns[2];
  std::vector<std::string> answers[2];
  for (int depth8 = 0; depth8 < 2; depth8++) {
    SimEnv env(Env::Default(), sim_options);
    DBOptions options = SmallOptions(depth8 == 0 ? 1 : 8);
    options.env = &env;
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(
        options, dir.path() + "/d" + std::to_string(depth8), &db));
    LoadAndCompact(db.get(), keys);

    env.io_stats()->Reset();
    Random rnd(5);
    std::vector<Key> batch;
    for (int j = 0; j < 1024; j++) {
      batch.push_back(keys[rnd.Uniform(keys.size())]);
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    ASSERT_LILSM_OK(db->MultiGet(batch, &values, &statuses));
    for (size_t j = 0; j < batch.size(); j++) {
      ASSERT_LILSM_OK(statuses[j]);
      answers[depth8].push_back(std::move(values[j]));
    }
    wait_ns[depth8] = env.io_stats()->simulated_wait_ns.load();
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_LT(wait_ns[1], wait_ns[0]);
}

}  // namespace
}  // namespace lilsm
