// The shared block cache: a sharded, charged-capacity LRU cache of table
// blocks keyed by (file_number, block_offset) — the LevelDB/RocksDB
// block-cache shape, written for its one use. Table readers consult it
// before touching the Env (see DESIGN.md "The shared block cache").
//
// Each cached block is ONE allocation: a fixed `Block` header (key and
// its hash, hash-chain link, LRU links, size, capacity, refcount) followed
// by the block's bytes. Each shard keeps an intrusive LRU list and a
// power-of-two chained hash table under its own mutex, charges every
// block `size + kEntryOverhead` against its slice of the capacity, and
// evicts from the cold end whenever the slice overflows.
//
// Blocks are handed out as `BlockRef`s, counted handles: the cache holds
// one reference while a block is resident, so an evicted (or replaced,
// or purged) block stays valid for whoever still holds a ref. A block
// dropped while the cache is its only holder is parked in its shard and
// its storage reused by a later Insert, so steady-state insert/evict
// churn allocates and frees nothing.
#ifndef LILSM_UTIL_LRU_CACHE_H_
#define LILSM_UTIL_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace lilsm {

/// The shared block cache: table blocks keyed by (file_number, offset).
/// File numbers are never reused (VersionSet::NewFileNumber is monotonic),
/// so a stale entry can never alias a new file's blocks — invalidation via
/// EraseFile reclaims memory rather than guarding correctness.
class BlockCache {
 private:
  struct Shard;

 public:
  class BlockRef;

  /// One cached block: this header, then `size()` bytes in the same
  /// allocation. Readers see only the const accessors; everything else
  /// belongs to the owning shard and is touched under its mutex.
  class Block {
   public:
    const char* data() const {
      return reinterpret_cast<const char*>(this + 1);
    }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    friend class BlockCache;
    friend class BlockRef;
    friend struct BlockCache::Shard;
    Block() = default;
    char* bytes() { return reinterpret_cast<char*>(this + 1); }

    uint64_t file_number_ = 0;
    uint64_t offset_ = 0;
    uint64_t hash_ = 0;
    Block* next_hash_ = nullptr;  // bucket chain
    Block* prev_ = nullptr;       // LRU links (circular, shard sentinel)
    Block* next_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;  // bytes allocated after the header
    /// The cache's own reference (while resident) plus one per BlockRef.
    std::atomic<uint32_t> refs_{0};
  };

  /// Counted handle to a cached block. Holding one keeps the block's
  /// bytes valid and unchanged, even after the cache evicts, replaces or
  /// purges the entry. Cheap to move; copying bumps the refcount.
  class BlockRef {
   public:
    BlockRef() = default;
    BlockRef(std::nullptr_t) {}
    BlockRef(const BlockRef& other) : block_(other.block_) {
      if (block_ != nullptr) {
        block_->refs_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    BlockRef(BlockRef&& other) noexcept
        : block_(std::exchange(other.block_, nullptr)) {}
    BlockRef& operator=(BlockRef other) noexcept {
      std::swap(block_, other.block_);
      return *this;
    }
    ~BlockRef() {
      if (block_ != nullptr) Unref(block_);
    }

    const Block* operator->() const { return block_; }
    std::string_view operator*() const {
      return {block_->data(), block_->size()};
    }
    bool operator==(std::nullptr_t) const { return block_ == nullptr; }

   private:
    friend class BlockCache;
    explicit BlockRef(Block* block) : block_(block) {}
    Block* block_ = nullptr;
  };

  explicit BlockCache(size_t capacity_bytes);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns the cached block and promotes it to most-recently-used, or
  /// null on a miss. Hit/miss tallies are kept internally; callers that
  /// attribute them to a per-call Stats sink count on their side too.
  BlockRef Lookup(uint64_t file_number, uint64_t offset);

  /// Caches a copy of `data[0, len)` (replacing any block already cached
  /// under the key) and returns how many entries were evicted to make
  /// room. A block larger than its shard's capacity slice evicts itself
  /// at once — the caller keeps its own copy, so nothing is lost.
  size_t Insert(uint64_t file_number, uint64_t offset, const char* data,
                size_t len);
  size_t Insert(uint64_t file_number, uint64_t offset,
                std::string_view block) {
    return Insert(file_number, offset, block.data(), block.size());
  }

  /// Purges every block of `file_number` (the file was deleted).
  void EraseFile(uint64_t file_number);
  /// Purges every block of the given (sorted or unsorted) files in one
  /// cache scan — obsolete-file GC retires whole compaction input sets,
  /// and a scan per file would block readers K times over.
  void EraseFiles(const std::vector<uint64_t>& file_numbers);
  void Clear();

  /// Total charged bytes currently held (summed per shard; not an atomic
  /// snapshot under concurrent mutation, like the Stats accessors).
  size_t MemoryUsage() const { return Sum().usage; }
  size_t size() const { return Sum().count; }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return Sum().hits; }
  uint64_t misses() const { return Sum().misses; }
  uint64_t evictions() const { return Sum().evictions; }

 private:
  /// Per-shard state summed across shards, each read under its mutex.
  struct Totals {
    size_t usage = 0;
    size_t count = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// Per-entry bookkeeping overhead added to each block's byte charge so
  /// tiny blocks cannot blow past the configured memory budget.
  static constexpr size_t kEntryOverhead = 64;

  /// Shard count scaled to the capacity: capacity is enforced per shard
  /// slice, and a slice smaller than a handful of table blocks would
  /// self-evict every insert, so small caches get fewer shards (1 shard
  /// below 512 KiB, the full 16 from 4 MiB up).
  static size_t ShardsForCapacity(size_t capacity_bytes);

  static uint64_t HashKey(uint64_t file_number, uint64_t offset);
  /// Drops a BlockRef's reference; frees the block if it was the last.
  static void Unref(Block* block) {
    if (block->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Free(block);
    }
  }
  static Block* Allocate(size_t capacity);
  static void Free(Block* block);

  Shard& ShardFor(uint64_t hash) const;
  Totals Sum() const;
  template <typename Pred>
  void EraseIf(Pred pred);

  const size_t capacity_;
  const size_t per_shard_capacity_;
  const size_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
};

static_assert(std::is_standard_layout_v<BlockCache::Block>,
              "a block's bytes follow its header in one allocation");

}  // namespace lilsm

#endif  // LILSM_UTIL_LRU_CACHE_H_
