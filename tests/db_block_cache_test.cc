// Shared block cache, DB level: cached results are bit-identical to the
// uncached paper path under randomized churn, eviction keeps the cache
// within budget, compaction invalidates deleted files' blocks, SimEnv I/O
// drops on skewed read-only workloads, and fill_cache=false scans leave
// the cache untouched. The concurrent test runs under TSan in CI.
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/db.h"
#include "tests/test_util.h"
#include "util/sim_env.h"
#include "workload/dataset.h"
#include "workload/zipf.h"

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 56;

DBOptions SmallOptions(size_t block_cache_bytes) {
  DBOptions options;
  options.write_buffer_size = 64 << 10;
  options.sstable_target_size = 32 << 10;
  options.l0_compaction_trigger = 2;
  options.key_size = 24;
  options.value_size = kValueSize;
  options.block_cache_bytes = block_cache_bytes;
  return options;
}

std::string ValueFor(Key key, uint64_t version) {
  return DeriveValue(key ^ (version * 0x9E3779B9), kValueSize);
}

/// Applies one pseudo-random mutation step to `db` and mirrors it in
/// `model`; identical seeds produce identical histories across DBs.
void ApplyChurnStep(DB* db, std::map<Key, std::string>* model,
                    const std::vector<Key>& keys, Random* rnd, uint64_t i) {
  const Key key = keys[rnd->Uniform(keys.size())];
  switch (rnd->Uniform(10)) {
    case 0:
      ASSERT_LILSM_OK(db->Delete(key));
      model->erase(key);
      break;
    case 1:
      if (i % 97 == 0) {
        ASSERT_LILSM_OK(db->FlushMemTable());
      }
      [[fallthrough]];
    default: {
      const std::string value = ValueFor(key, i);
      ASSERT_LILSM_OK(db->Put(key, value));
      (*model)[key] = value;
      break;
    }
  }
}

/// Full read-side comparison of `db` against the model: every live key by
/// Get, randomized MultiGet batches (present + absent keys), and a full
/// iterator scan.
void ExpectMatchesModel(DB* db, const std::map<Key, std::string>& model,
                        const std::vector<Key>& keys, uint64_t seed) {
  std::string value;
  for (const auto& [key, expected] : model) {
    ASSERT_LILSM_OK(db->Get(key, &value));
    EXPECT_EQ(value, expected) << "key " << key;
  }

  Random rnd(seed);
  std::vector<Key> batch;
  for (int round = 0; round < 20; round++) {
    batch.clear();
    for (int j = 0; j < 64; j++) {
      batch.push_back(keys[rnd.Uniform(keys.size())]);
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    ASSERT_LILSM_OK(db->MultiGet(batch, &values, &statuses));
    for (size_t j = 0; j < batch.size(); j++) {
      auto it = model.find(batch[j]);
      if (it == model.end()) {
        EXPECT_TRUE(statuses[j].IsNotFound()) << "key " << batch[j];
      } else {
        ASSERT_LILSM_OK(statuses[j]);
        EXPECT_EQ(values[j], it->second) << "key " << batch[j];
      }
    }
  }

  auto iter = db->NewIterator();
  auto expected = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(iter->key(), expected->first);
    EXPECT_EQ(iter->value().ToString(), expected->second);
  }
  ASSERT_LILSM_OK(iter->status());
  EXPECT_EQ(expected, model.end());
}

// The core bit-equivalence contract: a cached DB and an uncached DB fed
// the identical randomized churn history answer Get, MultiGet, and full
// scans identically (both also checked against an in-memory model).
TEST(DbBlockCacheTest, CachedMatchesUncachedUnderChurn) {
  ScratchDir dir("dbcache_equiv");
  std::unique_ptr<DB> cached, uncached;
  ASSERT_LILSM_OK(
      DB::Open(SmallOptions(512 << 10), dir.path() + "/cached", &cached));
  ASSERT_LILSM_OK(
      DB::Open(SmallOptions(0), dir.path() + "/uncached", &uncached));

  const std::vector<Key> keys = RandomGapKeys(4000, 7);
  std::map<Key, std::string> model_c, model_u;
  Random rnd_c(99), rnd_u(99);
  for (uint64_t i = 0; i < 12'000; i++) {
    ApplyChurnStep(cached.get(), &model_c, keys, &rnd_c, i);
    ApplyChurnStep(uncached.get(), &model_u, keys, &rnd_u, i);
  }
  ASSERT_EQ(model_c, model_u);  // identical histories by construction
  ASSERT_LILSM_OK(cached->FlushMemTable());
  ASSERT_LILSM_OK(uncached->FlushMemTable());

  ExpectMatchesModel(cached.get(), model_c, keys, 1);
  ExpectMatchesModel(uncached.get(), model_u, keys, 1);
  // Re-read so the second pass is served from a warm cache.
  ExpectMatchesModel(cached.get(), model_c, keys, 2);
  EXPECT_GT(cached->stats()->Count(Counter::kBlockCacheHits), 0u);
  EXPECT_EQ(uncached->stats()->Count(Counter::kBlockCacheHits), 0u);
  EXPECT_EQ(uncached->stats()->Count(Counter::kBlockCacheMisses), 0u);
  EXPECT_EQ(uncached->BlockCacheMemory(), 0u);
}

// A cache far smaller than the working set must evict (not grow past its
// budget) while every lookup stays correct.
TEST(DbBlockCacheEvictionTest, EvictionUnderCapacityPressure) {
  ScratchDir dir("dbcache_evict");
  constexpr size_t kCapacity = 32 << 10;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(SmallOptions(kCapacity), dir.path() + "/db", &db));

  const std::vector<Key> keys = RandomGapKeys(6000, 21);
  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());

  std::string value;
  for (int pass = 0; pass < 2; pass++) {
    for (size_t i = 0; i < keys.size(); i += 3) {
      ASSERT_LILSM_OK(db->Get(keys[i], &value));
      EXPECT_EQ(value, ValueFor(keys[i], 0));
    }
  }
  EXPECT_GT(db->stats()->Count(Counter::kBlockCacheEvictions), 0u);
  EXPECT_LE(db->BlockCacheMemory(), kCapacity);
  EXPECT_GT(db->BlockCacheMemory(), 0u);
}

// After compaction deletes input files, their blocks are purged: no stale
// block is served (reads see the post-compaction values) and the purged
// bytes are returned to the budget.
TEST(DbBlockCacheInvalidationTest, CompactionPurgesDeletedFilesBlocks) {
  ScratchDir dir("dbcache_inval");
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(
      DB::Open(SmallOptions(4 << 20), dir.path() + "/db", &db));

  const std::vector<Key> keys = RandomGapKeys(3000, 5);
  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());
  std::string value;
  for (Key key : keys) {  // warm the cache with the old files' blocks
    ASSERT_LILSM_OK(db->Get(key, &value));
  }
  const size_t warm = db->BlockCacheMemory();
  ASSERT_GT(warm, 0u);

  // Rewrite everything and merge the tree: the warmed files all die, and
  // obsolete-file GC purges their blocks as each compaction retires them.
  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 1)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());
  ASSERT_LILSM_OK(db->CompactAll());
  EXPECT_LT(db->BlockCacheMemory(), warm);

  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Get(key, &value));
    EXPECT_EQ(value, ValueFor(key, 1)) << "stale value for key " << key;
  }
  // Re-reads repopulated from the live files only.
  EXPECT_GT(db->BlockCacheMemory(), 0u);
}

// The acceptance criterion: on a zipfian read-only workload whose hot set
// fits in the cache, per-op Env reads drop measurably versus cache-off,
// with bit-identical results.
TEST(DbBlockCacheIoTest, ZipfianReadsCutEnvReads) {
  ScratchDir dir("dbcache_io");
  SimEnvOptions sim_options;
  sim_options.read_base_latency_ns = 0;  // count I/O, don't simulate it
  sim_options.read_per_byte_ns = 0.0;

  const std::vector<Key> keys = RandomGapKeys(8000, 13);
  ZipfGenerator zipf(keys.size(), 0.99, 17);
  std::vector<Key> requests;
  for (int i = 0; i < 20'000; i++) {
    requests.push_back(keys[zipf.NextScrambled()]);
  }

  uint64_t reads[2] = {0, 0};
  std::vector<std::string> results[2];
  for (int cached = 0; cached < 2; cached++) {
    SimEnv env(Env::Default(), sim_options);
    DBOptions options = SmallOptions(cached ? (8 << 20) : 0);
    options.env = &env;
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(
        options, dir.path() + (cached ? "/cached" : "/uncached"), &db));
    for (Key key : keys) {
      ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 0)));
    }
    ASSERT_LILSM_OK(db->FlushMemTable());
    ASSERT_LILSM_OK(db->CompactUntilStable());

    const uint64_t before = env.io_stats()->random_reads.load();
    std::string value;
    for (Key key : requests) {
      ASSERT_LILSM_OK(db->Get(key, &value));
      results[cached].push_back(value);
    }
    reads[cached] = env.io_stats()->random_reads.load() - before;
  }
  EXPECT_EQ(results[0], results[1]);  // bit-identical answers
  // The zipfian hot set fits: the cached run must do far fewer device
  // reads (empirically ~0 after warmup; assert a conservative 2x).
  EXPECT_LT(reads[1] * 2, reads[0]);
}

// fill_cache=false serves hits but never populates: a full cold scan with
// it set leaves the cache empty, and subsequent point lookups with the
// default options do populate it.
TEST(DbBlockCacheFillTest, FillCacheFalseDoesNotPopulate) {
  ScratchDir dir("dbcache_fill");
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(
      DB::Open(SmallOptions(4 << 20), dir.path() + "/db", &db));
  const std::vector<Key> keys = RandomGapKeys(3000, 3);
  for (Key key : keys) {
    ASSERT_LILSM_OK(db->Put(key, ValueFor(key, 0)));
  }
  ASSERT_LILSM_OK(db->FlushMemTable());

  ReadOptions no_fill;
  no_fill.fill_cache = false;
  {
    auto iter = db->NewIterator(no_fill);
    size_t n = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
    ASSERT_LILSM_OK(iter->status());
    EXPECT_EQ(n, keys.size());
  }
  std::string value;
  ASSERT_LILSM_OK(db->Get(no_fill, keys[0], &value));
  EXPECT_EQ(db->BlockCacheMemory(), 0u);

  ASSERT_LILSM_OK(db->Get(keys[0], &value));  // default: fills
  EXPECT_GT(db->BlockCacheMemory(), 0u);
}

// Concurrent hits, misses, evictions, and compaction-driven invalidation
// on a tiny cache; runs under TSan/ASan in CI. Asserts only per-thread
// read correctness (each writer's keys are disjoint and written once).
TEST(DbBlockCacheConcurrencyTest, ConcurrentHitMissChurnIsRaceFree) {
  ScratchDir dir("dbcache_conc");
  DBOptions options = SmallOptions(64 << 10);
  options.concurrency = ConcurrencyMode::kBackground;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path() + "/db", &db));

  constexpr uint64_t kPerWriter = 4000;
  auto key_for = [](uint64_t writer, uint64_t i) {
    return writer * 1'000'000 + i + 1;
  };
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (uint64_t w = 0; w < 2; w++) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter && !failed.load(); i++) {
        const Key key = key_for(w, i);
        if (!db->Put(key, ValueFor(key, 0)).ok()) failed.store(true);
      }
    });
  }
  for (int r = 0; r < 3; r++) {
    threads.emplace_back([&, r] {
      Random rnd(55 + r);
      std::string value;
      for (int i = 0; i < 6000 && !failed.load(); i++) {
        const uint64_t w = rnd.Uniform(2);
        const Key key = key_for(w, rnd.Uniform(kPerWriter));
        Status s = db->Get(key, &value);
        if (s.ok()) {
          if (value != ValueFor(key, 0)) failed.store(true);
        } else if (!s.IsNotFound()) {
          failed.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  ASSERT_LILSM_OK(db->FlushMemTable());
  std::string value;
  for (uint64_t w = 0; w < 2; w++) {
    for (uint64_t i = 0; i < kPerWriter; i += 7) {
      ASSERT_LILSM_OK(db->Get(key_for(w, i), &value));
      EXPECT_EQ(value, ValueFor(key_for(w, i), 0));
    }
  }
}

}  // namespace
}  // namespace lilsm
