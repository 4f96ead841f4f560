// Heap allocations of the read path. This binary replaces the global
// operator new with one that counts the allocations made on the calling
// thread, so a test can count exactly what one Get or MultiGet allocates.
// After warm-up (readers open, level models built, per-thread lookup
// buffers grown), a one-key Get allocates nothing — block cache off or
// fully warm, per-file or per-level models — and a MultiGet allocates only
// the output it hands back.
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/db.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace {
// Trivially constructed, so counting works during thread start-up too.
thread_local uint64_t t_allocations = 0;
}  // namespace

// GCC flags the free() below once the replaced operators inline into a
// new/delete pair, though both ends are this file's malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 56;  // beyond std::string's inline buffer

std::string ValueFor(Key key, int version) {
  return DeriveValue(key ^ (0xA5A5A5A5u + version), kValueSize);
}

/// Allocations `fn` makes on this thread.
template <typename Fn>
uint64_t AllocationsOf(Fn&& fn) {
  const uint64_t before = t_allocations;
  fn();
  return t_allocations - before;
}

// The hook counts this thread's allocations and no other's.
TEST(AllocationHookTest, CountsTheCallingThreadOnly) {
  // Direct calls, which the compiler may not elide as it may a paired
  // new-expression and delete.
  auto allocate_twice = [] {
    for (int i = 0; i < 2; i++) {
      void* volatile p = ::operator new(16);
      ::operator delete(p);
    }
  };
  EXPECT_EQ(AllocationsOf(allocate_twice), 2u);
  std::thread other;
  const uint64_t spawn =
      AllocationsOf([&] { other = std::thread(allocate_twice); });
  other.join();
  EXPECT_LE(spawn, 1u);  // the thread's start state, not its allocations
}

struct AllocCase {
  const char* name;
  IndexGranularity granularity;
  size_t block_cache_bytes;
};

class DbReadAllocTest : public ::testing::TestWithParam<AllocCase> {
 protected:
  void SetUp() override {
    const AllocCase& param = GetParam();
    dir_ = std::make_unique<ScratchDir>(std::string("readalloc_") +
                                        param.name);
    DBOptions options;
    options.write_buffer_size = 64 << 10;
    options.sstable_target_size = 32 << 10;
    options.value_size = kValueSize;
    options.index_granularity = param.granularity;
    options.block_cache_bytes = param.block_cache_bytes;
    ASSERT_LILSM_OK(DB::Open(options, dir_->path(), &db_));

    // Every key compacted below L0, overwrites of every ninth key in an
    // L0 file, and a few more in the memtable: lookups end at every kind
    // of source.
    keys_ = RandomGapKeys(4000, 19);
    for (Key& key : keys_) key *= 2;  // key + 1 is always absent
    for (Key key : keys_) ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 0)));
    ASSERT_LILSM_OK(db_->FlushMemTable());
    ASSERT_LILSM_OK(db_->CompactAll());
    for (size_t i = 0; i < keys_.size(); i += 9) {
      ASSERT_LILSM_OK(db_->Put(keys_[i], ValueFor(keys_[i], 1)));
    }
    ASSERT_LILSM_OK(db_->FlushMemTable());
    for (size_t i = 5; i < keys_.size(); i += 401) {
      ASSERT_LILSM_OK(db_->Put(keys_[i], ValueFor(keys_[i], 2)));
    }
    ASSERT_GE(db_->NumFilesAtLevel(0), 1);
    ASSERT_GE(db_->NumFilesAtLevel(1), 1);
  }

  int Version(size_t i) const {
    if (i % 401 == 5) return 2;
    return i % 9 == 0 ? 1 : 0;
  }

  std::unique_ptr<ScratchDir> dir_;
  std::unique_ptr<DB> db_;
  std::vector<Key> keys_;
};

TEST_P(DbReadAllocTest, WarmGetAllocatesNothing) {
  // Present keys (each source) and absent ones (the point_lookup mix).
  std::vector<Key> requests;
  std::vector<std::string> expected;  // empty: absent
  for (size_t i = 0; i < keys_.size(); i += 3) {
    requests.push_back(keys_[i]);
    expected.push_back(ValueFor(keys_[i], Version(i)));
    if (i % 2 == 0) {
      requests.push_back(keys_[i] + 1);
      expected.emplace_back();
    }
  }
  std::string value;
  for (int pass = 0; pass < 2; pass++) {  // warm-up
    for (Key key : requests) {
      Status s = db_->Get(key, &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
  }

  const uint64_t misses_before =
      db_->stats()->Count(Counter::kBlockCacheMisses);
  uint64_t total = 0;
  size_t found = 0;
  for (size_t r = 0; r < requests.size(); r++) {
    Status s;
    const uint64_t allocations =
        AllocationsOf([&] { s = db_->Get(requests[r], &value); });
    if (expected[r].empty()) {
      ASSERT_TRUE(s.IsNotFound()) << s.ToString();
    } else {
      ASSERT_LILSM_OK(s);
      ASSERT_EQ(value, expected[r]);
      found++;
    }
    EXPECT_EQ(allocations, 0u) << "Get(" << requests[r] << ")";
    total += allocations;
  }
  EXPECT_EQ(total, 0u);
  EXPECT_GT(found, requests.size() / 2);
  if (GetParam().block_cache_bytes > 0) {
    // Fully warm: the measured pass missed the cache nowhere.
    EXPECT_EQ(db_->stats()->Count(Counter::kBlockCacheMisses), misses_before);
    EXPECT_GT(db_->stats()->Count(Counter::kBlockCacheHits), 0u);
  }
}

TEST_P(DbReadAllocTest, MultiGetAllocatesOnlyItsOutput) {
  // 16-key batches in random order: present keys and every fourth absent.
  Random rnd(23);
  std::vector<std::vector<Key>> batches(64);
  for (std::vector<Key>& batch : batches) {
    for (int k = 0; k < 16; k++) {
      const Key key = keys_[rnd.Uniform(keys_.size())];
      batch.push_back(k % 4 == 3 ? key + 1 : key);
    }
  }

  // Output vectors the caller reuses: once every buffer has grown, a
  // batch allocates nothing at all.
  std::vector<std::string> values;
  std::vector<Status> statuses;
  for (int pass = 0; pass < 4; pass++) {  // warm-up
    for (const std::vector<Key>& batch : batches) {
      ASSERT_LILSM_OK(db_->MultiGet(batch, &values, &statuses));
    }
  }
  for (const std::vector<Key>& batch : batches) {
    Status s;
    const uint64_t allocations =
        AllocationsOf([&] { s = db_->MultiGet(batch, &values, &statuses); });
    ASSERT_LILSM_OK(s);
    EXPECT_EQ(allocations, 0u);
  }

  // Fresh output vectors: the two vectors and each hit's value are the
  // only allocations.
  for (const std::vector<Key>& batch : batches) {
    uint64_t allocations = 0;
    size_t hits = 0;
    {
      std::vector<std::string> fresh_values;
      std::vector<Status> fresh_statuses;
      Status s;
      allocations = AllocationsOf(
          [&] { s = db_->MultiGet(batch, &fresh_values, &fresh_statuses); });
      ASSERT_LILSM_OK(s);
      for (size_t k = 0; k < batch.size(); k++) {
        if (!fresh_statuses[k].ok()) continue;
        hits++;
        EXPECT_EQ(fresh_values[k].size(), kValueSize);
      }
    }
    EXPECT_GE(allocations, 2u);
    EXPECT_LE(allocations, 2 + hits);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DbReadAllocTest,
    ::testing::Values(
        AllocCase{"file_nocache", IndexGranularity::kFile, 0},
        AllocCase{"file_warmcache", IndexGranularity::kFile, 64 << 20},
        AllocCase{"level_nocache", IndexGranularity::kLevel, 0},
        AllocCase{"level_warmcache", IndexGranularity::kLevel, 64 << 20}),
    [](const ::testing::TestParamInfo<AllocCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace lilsm
