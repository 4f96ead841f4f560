#include "util/lru_cache.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "util/mutex.h"
#include "util/thread_annotations.h"

#if defined(__SANITIZE_ADDRESS__)
#define LILSM_BLOCK_CACHE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LILSM_BLOCK_CACHE_ASAN 1
#endif
#endif

#ifdef LILSM_BLOCK_CACHE_ASAN
#include <sanitizer/asan_interface.h>
#define POISON_BYTES(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define UNPOISON_BYTES(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define POISON_BYTES(addr, size) ((void)(addr), (void)(size))
#define UNPOISON_BYTES(addr, size) ((void)(addr), (void)(size))
#endif

namespace lilsm {

namespace {

/// Parked blocks kept per shard for reuse. Steady-state churn evicts
/// about one block per insert, so a few slots are enough; more would
/// only hold uncharged memory.
constexpr size_t kMaxParked = 4;

}  // namespace

/// Cache-line aligned so neighbouring shard mutexes do not false-share.
struct alignas(64) BlockCache::Shard {
  Mutex mu;
  /// LRU sentinel: lru.next_ is the hottest block, lru.prev_ the coldest.
  Block lru GUARDED_BY(mu);
  /// Chained hash table, power-of-two sized, indexed by hash bits above
  /// the ones that chose the shard.
  std::vector<Block*> buckets GUARDED_BY(mu);
  size_t count GUARDED_BY(mu) = 0;
  size_t usage GUARDED_BY(mu) = 0;  // charged bytes
  /// Dropped blocks nobody else references, kept for the next Insert.
  /// Their bytes are poisoned under ASan while they wait here.
  Block* parked[kMaxParked] GUARDED_BY(mu) = {};
  size_t num_parked GUARDED_BY(mu) = 0;
  uint64_t hits GUARDED_BY(mu) = 0;
  uint64_t misses GUARDED_BY(mu) = 0;
  uint64_t evictions GUARDED_BY(mu) = 0;

  Shard() : buckets(16, nullptr) {
    lru.next_ = &lru;
    lru.prev_ = &lru;
  }

  static size_t Bucket(uint64_t hash, size_t num_buckets) {
    return static_cast<size_t>(hash >> 32) & (num_buckets - 1);
  }

  Block** FindSlot(uint64_t file_number, uint64_t offset, uint64_t hash)
      REQUIRES(mu) {
    Block** slot = &buckets[Bucket(hash, buckets.size())];
    while (*slot != nullptr && ((*slot)->file_number_ != file_number ||
                                (*slot)->offset_ != offset)) {
      slot = &(*slot)->next_hash_;
    }
    return slot;
  }

  void LruPushFront(Block* b) REQUIRES(mu) {
    b->next_ = lru.next_;
    b->prev_ = &lru;
    b->next_->prev_ = b;
    lru.next_ = b;
  }

  static void LruRemove(Block* b) {
    b->prev_->next_ = b->next_;
    b->next_->prev_ = b->prev_;
  }

  /// Adds `b` as the hottest block. The key must not be present.
  void Link(Block* b) REQUIRES(mu) {
    if (count >= buckets.size()) Grow();
    Block*& head = buckets[Bucket(b->hash_, buckets.size())];
    b->next_hash_ = head;
    head = b;
    LruPushFront(b);
    count++;
    usage += b->size_ + kEntryOverhead;
  }

  /// Removes `b` (found at `slot`) from the table and the LRU list; the
  /// cache's reference is still held and must be dropped next.
  void Unlink(Block** slot, Block* b) REQUIRES(mu) {
    *slot = b->next_hash_;
    LruRemove(b);
    count--;
    usage -= b->size_ + kEntryOverhead;
  }

  void Unlink(Block* b) REQUIRES(mu) {
    Unlink(FindSlot(b->file_number_, b->offset_, b->hash_), b);
  }

  /// Drops the cache's reference to an unlinked block. If nobody else
  /// holds it, its storage is parked for reuse. The check is sound
  /// because every new reference to a resident block is taken in Lookup
  /// under this mutex, and copying a BlockRef needs a reference to copy:
  /// a count of 1 seen here means no BlockRef exists or can appear.
  void Drop(Block* b) REQUIRES(mu) {
    if (b->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) Park(b);
  }

  void Park(Block* b) REQUIRES(mu) {
    if (num_parked == kMaxParked) {
      Free(b);
      return;
    }
    POISON_BYTES(b->bytes(), b->capacity_);
    parked[num_parked++] = b;
  }

  /// A parked block with room for `len` bytes, or null.
  Block* Unpark(size_t len) REQUIRES(mu) {
    for (size_t i = 0; i < num_parked; i++) {
      Block* b = parked[i];
      if (b->capacity_ >= len) {
        parked[i] = parked[--num_parked];
        UNPOISON_BYTES(b->bytes(), b->capacity_);
        return b;
      }
    }
    return nullptr;
  }

  void FreeParked() REQUIRES(mu) {
    while (num_parked > 0) Free(parked[--num_parked]);
  }

  void Grow() REQUIRES(mu) {
    std::vector<Block*> grown(buckets.size() * 2, nullptr);
    for (Block* head : buckets) {
      while (head != nullptr) {
        Block* next = head->next_hash_;
        Block*& slot = grown[Bucket(head->hash_, grown.size())];
        head->next_hash_ = slot;
        slot = head;
        head = next;
      }
    }
    buckets.swap(grown);
  }
};

uint64_t BlockCache::HashKey(uint64_t file_number, uint64_t offset) {
  // 64-bit mix (splitmix64 finalizer) over the xor-folded pair; both
  // fields are low-entropy counters, so a plain xor would collide shards.
  uint64_t x = file_number * 0x9e3779b97f4a7c15ull ^ offset;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

size_t BlockCache::ShardsForCapacity(size_t capacity_bytes) {
  // Keep every shard slice at >= 256 KiB (~64 typical 4 KiB blocks) so
  // the per-slice eviction loop has real LRU depth to work with.
  size_t shards = 1;
  while (shards < 16 && capacity_bytes / (shards * 2) >= (256u << 10)) {
    shards *= 2;
  }
  return shards;
}

BlockCache::Block* BlockCache::Allocate(size_t capacity) {
  void* mem = ::operator new(sizeof(Block) + capacity);
  Block* b = new (mem) Block;
  b->capacity_ = capacity;
  return b;
}

void BlockCache::Free(Block* block) {
  UNPOISON_BYTES(block->bytes(), block->capacity_);
  block->~Block();
  ::operator delete(block);
}

BlockCache::BlockCache(size_t capacity_bytes)
    : capacity_(capacity_bytes),
      per_shard_capacity_(capacity_bytes / ShardsForCapacity(capacity_bytes)),
      shard_mask_(ShardsForCapacity(capacity_bytes) - 1),
      shards_(std::make_unique<Shard[]>(shard_mask_ + 1)) {}

BlockCache::~BlockCache() { Clear(); }

BlockCache::Shard& BlockCache::ShardFor(uint64_t hash) const {
  return shards_[hash & shard_mask_];
}

BlockCache::BlockRef BlockCache::Lookup(uint64_t file_number,
                                        uint64_t offset) {
  const uint64_t hash = HashKey(file_number, offset);
  Shard& shard = ShardFor(hash);
  MutexLock lock(&shard.mu);
  Block* b = *shard.FindSlot(file_number, offset, hash);
  if (b == nullptr) {
    shard.misses++;
    return nullptr;
  }
  if (shard.lru.next_ != b) {
    Shard::LruRemove(b);
    shard.LruPushFront(b);
  }
  shard.hits++;
  b->refs_.fetch_add(1, std::memory_order_relaxed);
  return BlockRef(b);
}

size_t BlockCache::Insert(uint64_t file_number, uint64_t offset,
                          const char* data, size_t len) {
  const uint64_t hash = HashKey(file_number, offset);
  Shard& shard = ShardFor(hash);
  size_t evicted = 0;
  MutexLock lock(&shard.mu);
  Block** slot = shard.FindSlot(file_number, offset, hash);
  if (*slot != nullptr) {
    Block* old = *slot;
    shard.Unlink(slot, old);
    shard.Drop(old);
  }
  Block* b = shard.Unpark(len);
  if (b == nullptr) b = Allocate(len);
  std::memcpy(b->bytes(), data, len);
  // A recycled block may be larger than this one; its tail stays
  // poisoned, so a reader that trusts a stale length is caught under ASan.
  POISON_BYTES(b->bytes() + len, b->capacity_ - len);
  b->file_number_ = file_number;
  b->offset_ = offset;
  b->hash_ = hash;
  b->size_ = len;
  b->refs_.store(1, std::memory_order_relaxed);  // the cache's reference
  shard.Link(b);
  while (shard.usage > per_shard_capacity_ && shard.count > 0) {
    Block* cold = shard.lru.prev_;
    shard.Unlink(cold);
    shard.Drop(cold);
    evicted++;
  }
  shard.evictions += evicted;
  return evicted;
}

template <typename Pred>
void BlockCache::EraseIf(Pred pred) {
  for (size_t i = 0; i <= shard_mask_; i++) {
    Shard& shard = shards_[i];
    MutexLock lock(&shard.mu);
    for (Block* b = shard.lru.next_; b != &shard.lru;) {
      Block* next = b->next_;
      if (pred(b->file_number_)) {
        shard.Unlink(b);
        shard.Drop(b);
      }
      b = next;
    }
  }
}

void BlockCache::EraseFile(uint64_t file_number) {
  EraseIf([file_number](uint64_t file) { return file == file_number; });
}

void BlockCache::EraseFiles(const std::vector<uint64_t>& file_numbers) {
  if (file_numbers.empty()) return;
  if (file_numbers.size() == 1) {
    EraseFile(file_numbers[0]);
    return;
  }
  std::vector<uint64_t> sorted = file_numbers;
  std::sort(sorted.begin(), sorted.end());
  EraseIf([&sorted](uint64_t file) {
    return std::binary_search(sorted.begin(), sorted.end(), file);
  });
}

void BlockCache::Clear() {
  EraseIf([](uint64_t) { return true; });
  for (size_t i = 0; i <= shard_mask_; i++) {
    MutexLock lock(&shards_[i].mu);
    shards_[i].FreeParked();
  }
}

BlockCache::Totals BlockCache::Sum() const {
  Totals totals;
  for (size_t i = 0; i <= shard_mask_; i++) {
    Shard& shard = shards_[i];
    MutexLock lock(&shard.mu);
    totals.usage += shard.usage;
    totals.count += shard.count;
    totals.hits += shard.hits;
    totals.misses += shard.misses;
    totals.evictions += shard.evictions;
  }
  return totals;
}

}  // namespace lilsm
