// BlockCache: charged-capacity eviction, recency order, replacement,
// per-file invalidation, counters, refs that outlive eviction and storage
// reuse, and a TSan-exercised concurrent mixed-operation test that checks
// every block's bytes (this suite runs in the TSan CI job).
#include "util/lru_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/random.h"

namespace lilsm {
namespace {

// Every block is charged its length plus this much bookkeeping.
constexpr size_t kOverhead = 64;

// A block whose charge is exactly `charge` bytes.
std::string BlockOfCharge(size_t charge, char fill) {
  return std::string(charge - kOverhead, fill);
}

// Bytes derived from the key and length, so a reader can tell a block's
// contents from any other block's.
std::string Pattern(uint64_t file, uint64_t offset, size_t len) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; i++) {
    s[i] = static_cast<char>(file * 131 + offset / 4096 * 31 + len * 7 + i);
  }
  return s;
}

// The capacity tests use caches below 512 KiB: those have a single shard,
// so the capacity applies exactly.
TEST(LruCacheTest, LookupReturnsInsertedValue) {
  BlockCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, "one");
  auto v = cache.Lookup(1, 0);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, "one");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, InsertReplacesExistingKey) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, BlockOfCharge(100, 'o'));
  cache.Insert(1, 0, BlockOfCharge(70, 'n'));
  EXPECT_EQ(*cache.Lookup(1, 0), BlockOfCharge(70, 'n'));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.MemoryUsage(), 70u);
}

TEST(LruCacheTest, EvictsColdEntriesWhenOverCharge) {
  BlockCache cache(350);
  for (uint64_t i = 0; i < 10; i++) {
    cache.Insert(1, i, BlockOfCharge(100, 'x'));  // capacity holds 3
  }
  EXPECT_LE(cache.MemoryUsage(), 350u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);  // coldest are gone
  ASSERT_NE(cache.Lookup(1, 9), nullptr);  // hottest survive
  EXPECT_EQ(cache.evictions(), 7u);
}

TEST(LruCacheTest, LookupRefreshesRecency) {
  BlockCache cache(300);  // holds 3 entries of charge 100
  cache.Insert(1, 1, BlockOfCharge(100, 'a'));
  cache.Insert(1, 2, BlockOfCharge(100, 'b'));
  cache.Insert(1, 3, BlockOfCharge(100, 'c'));
  ASSERT_NE(cache.Lookup(1, 1), nullptr);  // touch 1: now 2 is coldest
  EXPECT_EQ(cache.Insert(1, 4, BlockOfCharge(100, 'd')), 1u);  // evicts 2
  EXPECT_NE(cache.Lookup(1, 1), nullptr);
  EXPECT_EQ(cache.Lookup(1, 2), nullptr);
  EXPECT_NE(cache.Lookup(1, 3), nullptr);
  EXPECT_NE(cache.Lookup(1, 4), nullptr);
}

TEST(LruCacheTest, OversizedEntryIsEvictedButReturnedValueSurvives) {
  BlockCache cache(100);
  // The entry cannot be cached, but nothing crashes and the cache stays
  // within budget.
  EXPECT_EQ(cache.Insert(1, 0, BlockOfCharge(500, 'h')), 1u);
  EXPECT_EQ(cache.MemoryUsage(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
}

TEST(LruCacheTest, EvictedValueStaysAliveForHolders) {
  BlockCache cache(200);
  cache.Insert(1, 1, BlockOfCharge(100, 'p'));
  auto pinned = cache.Lookup(1, 1);
  cache.Insert(1, 2, BlockOfCharge(100, 'b'));
  cache.Insert(1, 3, BlockOfCharge(100, 'c'));  // evicts 1
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  ASSERT_NE(pinned, nullptr);  // the ref keeps the block alive
  EXPECT_EQ(*pinned, BlockOfCharge(100, 'p'));
}

TEST(LruCacheTest, EraseAndClear) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, "a");
  cache.Insert(2, 0, "b");
  cache.EraseFile(1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(2, 0), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.MemoryUsage(), 0u);
}

TEST(BlockCacheTest, KeysAreScopedPerFile) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, "file1-block0");
  cache.Insert(2, 0, "file2-block0");
  ASSERT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(*cache.Lookup(1, 0), "file1-block0");
  EXPECT_EQ(*cache.Lookup(2, 0), "file2-block0");
  EXPECT_EQ(cache.Lookup(1, 4096), nullptr);
}

TEST(BlockCacheTest, EraseFilePurgesOnlyThatFile) {
  BlockCache cache(1 << 20);
  for (uint64_t off = 0; off < 10 * 4096; off += 4096) {
    cache.Insert(7, off, std::string(64, 'a'));
    cache.Insert(8, off, std::string(64, 'b'));
  }
  cache.EraseFile(7);
  for (uint64_t off = 0; off < 10 * 4096; off += 4096) {
    EXPECT_EQ(cache.Lookup(7, off), nullptr);
    EXPECT_NE(cache.Lookup(8, off), nullptr);
  }
  EXPECT_EQ(cache.size(), 10u);
}

TEST(BlockCacheTest, EraseFilesPurgesTheWholeBatchInOneScan) {
  BlockCache cache(1 << 20);
  for (uint64_t file = 1; file <= 5; file++) {
    for (uint64_t off = 0; off < 4 * 4096; off += 4096) {
      cache.Insert(file, off, std::string(64, 'x'));
    }
  }
  cache.EraseFiles({2, 4, 5});
  for (uint64_t off = 0; off < 4 * 4096; off += 4096) {
    EXPECT_NE(cache.Lookup(1, off), nullptr);
    EXPECT_EQ(cache.Lookup(2, off), nullptr);
    EXPECT_NE(cache.Lookup(3, off), nullptr);
    EXPECT_EQ(cache.Lookup(4, off), nullptr);
    EXPECT_EQ(cache.Lookup(5, off), nullptr);
  }
  cache.EraseFiles({});  // no-op
  EXPECT_EQ(cache.size(), 8u);
}

TEST(BlockCacheTest, ChargesIncludeEntryOverhead) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, std::string(4096, 'x'));
  EXPECT_EQ(cache.MemoryUsage(), 4096u + kOverhead);
  cache.Clear();
  EXPECT_EQ(cache.MemoryUsage(), 0u);
}

TEST(BlockCacheTest, TableHoldsManyBlocksPerShard) {
  // Enough keys to grow every shard's hash table several times over.
  BlockCache cache(64 << 20);
  for (uint64_t file = 1; file <= 4; file++) {
    for (uint64_t off = 0; off < 1000 * 4096; off += 4096) {
      cache.Insert(file, off, Pattern(file, off, 100));
    }
  }
  EXPECT_EQ(cache.size(), 4000u);
  EXPECT_EQ(cache.evictions(), 0u);
  for (uint64_t file = 1; file <= 4; file++) {
    for (uint64_t off = 0; off < 1000 * 4096; off += 4096) {
      auto ref = cache.Lookup(file, off);
      ASSERT_NE(ref, nullptr);
      ASSERT_EQ(*ref, Pattern(file, off, 100));
    }
  }
}

TEST(BlockCacheTest, PinnedRefKeepsItsBytesThroughRecycling) {
  constexpr size_t kBlock = 4096;
  constexpr size_t kCapacity = 16 * (kBlock + kOverhead);  // one shard
  BlockCache cache(kCapacity);
  cache.Insert(1, 0, Pattern(1, 0, kBlock));
  BlockCache::BlockRef pinned = cache.Lookup(1, 0);
  ASSERT_NE(pinned, nullptr);
  // Two capacities' worth of inserts: the pinned entry is evicted early
  // and every later insert runs on recycled storage.
  for (uint64_t i = 1; i <= 32; i++) {
    cache.Insert(2, i * kBlock, Pattern(2, i * kBlock, kBlock));
  }
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(*pinned, Pattern(1, 0, kBlock));
  for (uint64_t i = 17; i <= 32; i++) {
    auto ref = cache.Lookup(2, i * kBlock);
    ASSERT_NE(ref, nullptr);
    EXPECT_NE(ref->data(), pinned->data());
    EXPECT_EQ(*ref, Pattern(2, i * kBlock, kBlock));
  }
}

TEST(BlockCacheTest, ReplacingAKeyLeavesAHeldRefIntact) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, Pattern(1, 0, 4096));
  BlockCache::BlockRef old = cache.Lookup(1, 0);
  cache.Insert(1, 0, std::string(4096, 'n'));
  cache.Insert(1, 0, std::string(4096, 'm'));
  EXPECT_EQ(*old, Pattern(1, 0, 4096));
  EXPECT_EQ(*cache.Lookup(1, 0), std::string(4096, 'm'));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCacheTest, EvictedStorageIsReusedForTheNextInsert) {
  BlockCache cache(2 * (4096 + kOverhead));  // one shard, two blocks
  cache.Insert(1, 0, Pattern(1, 0, 4096));
  cache.Insert(1, 4096, Pattern(1, 4096, 4096));
  const char* first = cache.Lookup(1, 0)->data();  // ref released here
  cache.Insert(1, 8192, Pattern(1, 8192, 4096));   // evicts 4096
  cache.Insert(1, 12288, Pattern(1, 12288, 4096));  // evicts 0
  // Block 0 was evicted with no holder, so its storage serves a later
  // insert instead of going back to the allocator.
  cache.Insert(1, 16384, Pattern(1, 16384, 4096));
  auto reused = cache.Lookup(1, 16384);
  ASSERT_NE(reused, nullptr);
  EXPECT_EQ(reused->data(), first);
  EXPECT_EQ(*reused, Pattern(1, 16384, 4096));
}

TEST(BlockCacheTest, CopiedRefsShareOneBlock) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, "shared");
  BlockCache::BlockRef a = cache.Lookup(1, 0);
  BlockCache::BlockRef b = a;
  BlockCache::BlockRef c = std::move(b);
  cache.Clear();
  a = nullptr;
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(*c, "shared");
  EXPECT_EQ(c->size(), 6u);
  EXPECT_FALSE(c->empty());
}

// Concurrent mixed operations over a small cache: lookups, inserts,
// per-file purges, and memory reads race across shards. Every block a
// lookup returns must hold exactly the bytes inserted under its key and
// length, so a block recycled under a reader fails here (and under TSan
// and ASan in CI).
TEST(BlockCacheTest, ConcurrentMixedOperationsAreRaceFree) {
  BlockCache cache(64 << 10);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cache, t] {
      Random rnd(1234 + t);
      for (int i = 0; i < kOpsPerThread; i++) {
        const uint64_t file = rnd.Uniform(8);
        const uint64_t offset = rnd.Uniform(64) * 4096;
        switch (rnd.Uniform(8)) {
          case 0:
            cache.EraseFile(file);
            break;
          case 1:
            (void)cache.MemoryUsage();
            break;
          case 2:
          case 3:
            cache.Insert(file, offset,
                         Pattern(file, offset, 128 + rnd.Uniform(512)));
            break;
          default: {
            BlockCache::BlockRef ref = cache.Lookup(file, offset);
            if (ref != nullptr) {
              ASSERT_GE(ref->size(), 128u);
              ASSERT_EQ(*ref, Pattern(file, offset, ref->size()));
            }
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.MemoryUsage(), (64u << 10));
  EXPECT_GT(cache.hits() + cache.misses(), 0u);
}

}  // namespace
}  // namespace lilsm
