// TableCache: reuse, LRU eviction, option propagation, block-cache
// invalidation, and the SetIndexOptions-vs-GetReader race regression
// (this suite runs under TSan in CI).
#include "lsm/table_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tests/test_util.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ReaderGet;
using testing_util::ScratchDir;

class TableCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("tcache");
    options_.env = Env::Default();
    options_.value_size = 16;
    for (uint64_t number = 1; number <= 6; number++) {
      std::unique_ptr<TableBuilder> builder;
      ASSERT_LILSM_OK(TableBuilder::Open(
          options_, TableFileName(dir_->path(), number), &builder));
      std::vector<Key> keys = RandomGapKeys(100, number);
      for (size_t i = 0; i < keys.size(); i++) {
        ASSERT_LILSM_OK(builder->Add(keys[i], PackTag(i + 1, kTypeValue),
                                     DeriveValue(keys[i], 16)));
      }
      ASSERT_LILSM_OK(builder->Finish());
    }
  }

  std::unique_ptr<ScratchDir> dir_;
  TableOptions options_;
};

TEST_F(TableCacheTest, ReusesOpenReaders) {
  TableCache cache(options_, dir_->path(), 8);
  std::shared_ptr<TableReader> a, b;
  ASSERT_LILSM_OK(cache.GetReader(1, &a));
  ASSERT_LILSM_OK(cache.GetReader(1, &b));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(TableCacheTest, EvictsBeyondCapacity) {
  TableCache cache(options_, dir_->path(), 3);
  std::shared_ptr<TableReader> reader;
  for (uint64_t number = 1; number <= 6; number++) {
    ASSERT_LILSM_OK(cache.GetReader(number, &reader));
  }
  EXPECT_EQ(cache.size(), 3u);
  // The evicted table reopens transparently.
  ASSERT_LILSM_OK(cache.GetReader(1, &reader));
  EXPECT_EQ(reader->NumEntries(), 100u);
}

TEST_F(TableCacheTest, LruKeepsRecentlyUsed) {
  TableCache cache(options_, dir_->path(), 2);
  std::shared_ptr<TableReader> r1, r2, r3, r1_again;
  ASSERT_LILSM_OK(cache.GetReader(1, &r1));
  ASSERT_LILSM_OK(cache.GetReader(2, &r2));
  ASSERT_LILSM_OK(cache.GetReader(1, &r1));   // touch 1
  ASSERT_LILSM_OK(cache.GetReader(3, &r3));   // evicts 2
  ASSERT_LILSM_OK(cache.GetReader(1, &r1_again));
  EXPECT_EQ(r1.get(), r1_again.get());  // 1 survived
}

TEST_F(TableCacheTest, ExplicitEvict) {
  TableCache cache(options_, dir_->path(), 8);
  std::shared_ptr<TableReader> a, b;
  ASSERT_LILSM_OK(cache.GetReader(1, &a));
  cache.Evict(1);
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_LILSM_OK(cache.GetReader(1, &b));
  EXPECT_NE(a.get(), b.get());
}

TEST_F(TableCacheTest, MissingFileReportsError) {
  TableCache cache(options_, dir_->path(), 8);
  std::shared_ptr<TableReader> reader;
  EXPECT_FALSE(cache.GetReader(999, &reader).ok());
}

TEST_F(TableCacheTest, MemoryAccountingSumsCachedReaders) {
  TableCache cache(options_, dir_->path(), 8);
  std::shared_ptr<TableReader> reader;
  EXPECT_EQ(cache.TotalIndexMemory(), 0u);
  ASSERT_LILSM_OK(cache.GetReader(1, &reader));
  const size_t one = cache.TotalIndexMemory();
  EXPECT_GT(one, 0u);
  ASSERT_LILSM_OK(cache.GetReader(2, &reader));
  EXPECT_GT(cache.TotalIndexMemory(), one);
  EXPECT_GT(cache.TotalFilterMemory(), 0u);
}

TEST_F(TableCacheTest, SetIndexOptionsAffectsNewOpens) {
  TableCache cache(options_, dir_->path(), 8);
  cache.SetIndexOptions(IndexType::kRMI,
                        IndexConfig::FromPositionBoundary(16));
  EXPECT_EQ(cache.options().index_type, IndexType::kRMI);
  EXPECT_EQ(cache.options().index_config.epsilon, 8u);
}

// Regression: SetIndexOptions used to mutate options_ without mu_ while
// concurrent GetReader calls read it for cache misses ("quiescent-only"
// by convention). Both now go through the mutex; this hammers misses
// (capacity 2 over 6 files guarantees reopen churn) against a
// reconfiguration loop and must be TSan-clean.
TEST_F(TableCacheTest, ConcurrentGetReaderAndSetIndexOptions) {
  TableCache cache(options_, dir_->path(), 2);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::thread reconfigurer([&] {
    const IndexType types[] = {IndexType::kPGM, IndexType::kPLR,
                               IndexType::kRMI};
    for (int i = 0; i < 400; i++) {
      cache.SetIndexOptions(types[i % 3],
                            IndexConfig::FromPositionBoundary(16u << (i % 3)));
      (void)cache.options();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      uint64_t number = 1 + t;
      while (!stop.load()) {
        std::shared_ptr<TableReader> reader;
        if (!cache.GetReader(1 + number % 6, &reader).ok() ||
            reader->NumEntries() != 100u) {
          failed.store(true);
          return;
        }
        number++;
      }
    });
  }
  reconfigurer.join();
  for (auto& thread : readers) thread.join();
  EXPECT_FALSE(failed.load());
}

// Evicting a file (it was deleted by compaction GC) purges its blocks
// from the shared block cache; other files' blocks survive.
TEST_F(TableCacheTest, EvictPurgesBlockCacheEntries) {
  TableOptions options = options_;
  options.block_cache = std::make_shared<BlockCache>(4 << 20);
  TableCache cache(options, dir_->path(), 8);
  std::shared_ptr<TableReader> r1, r2;
  ASSERT_LILSM_OK(cache.GetReader(1, &r1));
  ASSERT_LILSM_OK(cache.GetReader(2, &r2));
  std::string value;
  uint64_t tag = 0;
  bool found = false;
  std::vector<Key> keys1, keys2;
  ASSERT_LILSM_OK(r1->ReadAllKeys(&keys1));
  ASSERT_LILSM_OK(r2->ReadAllKeys(&keys2));
  ASSERT_LILSM_OK(ReaderGet(r1.get(), keys1[0], &value, &tag, &found));
  ASSERT_LILSM_OK(ReaderGet(r2.get(), keys2[0], &value, &tag, &found));
  const size_t warm = options.block_cache->MemoryUsage();
  ASSERT_GT(warm, 0u);

  cache.Evict(1);
  const size_t after = options.block_cache->MemoryUsage();
  EXPECT_LT(after, warm);
  EXPECT_GT(after, 0u);  // file 2's blocks survive

  cache.Clear();
  EXPECT_EQ(options.block_cache->MemoryUsage(), 0u);
}

}  // namespace
}  // namespace lilsm
