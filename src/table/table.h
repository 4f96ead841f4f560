// The table file: the paper's LearnedIndexTable (Section 4.2) — fixed-size
// entries, a pluggable serialized learned index, bloom filter, CRC footer.
// The traditional baseline is the same layout with IndexType::kFencePointer.
//
// On-disk layout:
//   [data region]  count fixed-size entries, sorted by user key:
//                    key_size bytes big-endian key (zero padded)
//                    8  bytes tag = (sequence << 8) | ValueType
//                    value_size bytes value
//   [bloom block]  checksummed bloom filter over the user keys
//   [index blob]   checksummed EncodeIndexWithType() of the trained index
//   [meta block]   checksummed table parameters (geometry, count, range)
//   [footer]       handles + magic
//
// Point lookups predict an entry range with the learned index, fetch that
// range with one pread aligned to the I/O block size, and binary search
// inside the fetched bytes — exactly the paper's read path (Figure 1C).
//
// Entries carry a `tag` = (sequence << 8) | ValueType, exactly the LevelDB
// internal-key trailer; user keys within one table are unique and strictly
// increasing, which is what allows learned indexes to replace fence
// pointers without layout changes (paper Section 2.2).
#ifndef LILSM_TABLE_TABLE_H_
#define LILSM_TABLE_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bloom/bloom.h"
#include "index/index.h"
#include "table/format.h"
#include "util/env.h"
#include "util/lru_cache.h"
#include "util/stats.h"

namespace lilsm {

/// Options governing how tables are written and read.
struct TableOptions {
  Env* env = nullptr;         // required
  Stats* stats = nullptr;     // optional instrumentation sink

  /// Entry geometry (paper: 24-byte keys, 1000-byte values). Values must
  /// have exactly value_size bytes.
  uint32_t key_size = 24;
  uint32_t value_size = 1000;

  int bloom_bits_per_key = 10;

  IndexType index_type = IndexType::kPGM;
  IndexConfig index_config;

  /// Alignment unit for segment fetches.
  uint32_t io_block_size = static_cast<uint32_t>(kIoBlockSize);

  /// Shared block cache consulted before any Env read of table data
  /// (null = off, the paper-reproduction path: every fetch is a device
  /// I/O). Requires cache_file_number to be unique per open file; the
  /// TableCache stamps it when opening readers.
  std::shared_ptr<BlockCache> block_cache;
  /// Cache key namespace for this file's blocks. Only meaningful when
  /// block_cache is set; files opened outside the TableCache leave it 0
  /// and must not share a cache.
  uint64_t cache_file_number = 0;

  uint32_t entry_size() const { return key_size + 8 + value_size; }
};

/// Iterator over entries in key order. Tables, memtables and the merging
/// iterator implement it.
class TableIterator {
 public:
  virtual ~TableIterator() = default;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  /// Positions at the first entry with user key >= target.
  virtual void Seek(Key target) = 0;
  virtual void Next() = 0;

  virtual Key key() const = 0;
  virtual uint64_t tag() const = 0;
  virtual Slice value() const = 0;

  virtual Status status() const = 0;
};

class TableBuilder {
 public:
  /// Creates `fname` for writing.
  static Status Open(const TableOptions& options, const std::string& fname,
                     std::unique_ptr<TableBuilder>* builder);
  ~TableBuilder();

  /// Adds an entry; keys must arrive strictly increasing.
  Status Add(Key key, uint64_t tag, const Slice& value);

  /// Trains the index over the added keys, writes filter/index/meta blocks
  /// and the footer, and syncs. After Finish the builder is exhausted.
  Status Finish();

  /// Abandons the file contents (caller removes the file).
  void Abandon();

  uint64_t NumEntries() const { return keys_.size(); }
  /// Bytes of file data written so far (data region only until Finish).
  uint64_t FileSize() const { return offset_; }

 private:
  explicit TableBuilder(const TableOptions& options);

  TableOptions options_;
  std::unique_ptr<WritableFile> file_;
  Status status_;
  std::vector<Key> keys_;
  BloomFilterBuilder bloom_;
  std::string entry_buf_;
  uint64_t offset_ = 0;
  bool finished_ = false;
};

class PendingMultiGet;

class TableReader {
 public:
  /// Opens `fname`, reading footer, meta, bloom and index blob into memory.
  static Status Open(const TableOptions& options, const std::string& fname,
                     std::unique_ptr<TableReader>* reader);

  /// Point lookup, phase 1 — the only read entry point: a point lookup
  /// is a one-key plan (the paper's bloom, predict, one aligned pread,
  /// search). Plans keys[] (ascending, not necessarily distinct): range
  /// check, bloom, then an entry window — `bounds_lo`/`bounds_hi` (both
  /// null or both non-null, one inclusive entry range per key) carry a
  /// level-granularity model's predictions, else the file index predicts.
  /// The windows become aligned byte spans in `*pending` (reset first).
  ///
  /// With `batch` null the plan reads inline: each span is fetched (block
  /// cache first) as soon as it is planned, and a key inside the key
  /// range of the last fetched span joins it with no bloom probe, no
  /// index descent and no read — the per-run amortization DB::MultiGet is
  /// built on. With a batch nothing is read here: overlapping or abutting
  /// windows merge into one span, all-hit spans are served from the
  /// block cache, and every colder span registers one ReadRequest; the
  /// caller Wait()s the batch (typically after preparing several runs so
  /// their device reads overlap) before FinishMultiGet. Both modes find
  /// the same entries.
  ///
  /// `stats` (when non-null) receives this call's instrumentation instead
  /// of the table's configured sink, and says whether it is timed — the DB
  /// threads each Get/MultiGet's sink here (ReadOptions::stats, or a
  /// sampled DB-wide handle). `fill_cache` = false serves from the block
  /// cache but does not populate it on a miss (ReadOptions::fill_cache).
  Status PrepareMultiGet(std::span<const Key> keys, const size_t* bounds_lo,
                         const size_t* bounds_hi, ReadBatch* batch,
                         PendingMultiGet* pending, OpStats stats,
                         bool fill_cache = true);

  /// Point lookup, phase 2 (after the batch's Wait, if there was one):
  /// checks the reaped reads, inserts their cold blocks into the block
  /// cache under Prepare's fill_cache, and searches the spans. For each
  /// key: on a hit sets founds[i]=true plus tags[i] and values[i]; a
  /// bloom negative or absent key sets founds[i]=false.
  Status FinishMultiGet(PendingMultiGet* pending, std::string* values,
                        uint64_t* tags, bool* founds, OpStats stats);

  /// `fill_cache` = false keeps the iterator's block fetches from
  /// populating the block cache (scans and compaction inputs must not
  /// evict the point-lookup hot set); cache hits are still served. The
  /// iterator sizes its own reads: after each Seek the read it makes when
  /// its cursor leaves the window is one io block, and each later one
  /// doubles, up to kMaxScanReadBlocks.
  std::unique_ptr<TableIterator> NewIterator(bool fill_cache = true);

  /// Cap of a scan's window read in io blocks: 64 KiB at the default
  /// block size, the WAL reader's block.
  static constexpr size_t kMaxScanReadBlocks = 16;

  uint64_t NumEntries() const { return count_; }
  Key MinKey() const { return min_key_; }
  Key MaxKey() const { return max_key_; }

  /// The in-memory index consulted by PrepareMultiGet/Seek.
  const LearnedIndex* index() const { return index_.get(); }

  /// Retrains the in-memory index with a new type/config by scanning the
  /// data region (the on-disk blob is untouched). This is what lets the
  /// benchmark sweep (index type x boundary) without rewriting data files.
  Status RetrainIndex(IndexType type, const IndexConfig& config);

  /// Bytes of memory held by the lookup index alone (the paper's
  /// "Memory (B)" axis), excluding bloom filters.
  size_t IndexMemoryUsage() const { return index_->MemoryUsage(); }

  /// Bytes of memory held by the bloom filter.
  size_t FilterMemoryUsage() const { return bloom_data_.capacity(); }

  /// Reads every user key into *keys in order (used by level-granularity
  /// model training).
  Status ReadAllKeys(std::vector<Key>* keys);

  /// Appends this table's trained leaf segments (positions local to the
  /// file) to *out with their training error bound in *epsilon — the
  /// ModelCatalog's zero-I/O stitch input. False when the index type is
  /// not segment-based; callers fall back to ReadAllKeys.
  bool ExportIndexSegments(std::vector<LinearSegment>* out,
                           uint32_t* epsilon);

 private:
  class Iterator;
  friend class PendingMultiGet;

  explicit TableReader(const TableOptions& options) : options_(options) {}

  /// The aligned byte span of the data region covering entries [lo, hi]
  /// (inclusive) and the entries it holds whole.
  struct AlignedSpan {
    uint64_t byte_lo = 0;
    uint64_t byte_hi = 0;
    size_t first = 0;
    size_t last = 0;
  };
  /// Aligns to the I/O block size — the paper's unit of I/O cost — and
  /// clamps the upper bound to the end of the data region: the last
  /// segment of a table whose data section ends mid-block must not read
  /// the trailing bloom/index/meta bytes as entries (nor, were the data
  /// region the whole file, run past end-of-file).
  AlignedSpan Align(size_t lo, size_t hi) const;

  /// An aligned span and its one read — the unit every table read goes
  /// through: the batched plan's spans and the iterator's window.
  /// IssueSpan starts the read and CompleteSpan finishes it; a span's
  /// buffer is kept across reuses.
  struct Span : AlignedSpan {
    std::string buffer;           // >= byte_hi - byte_lo bytes
    std::vector<bool> block_hit;  // cache probe result per io block
    /// Leading whole io blocks already in the buffer (a scan window's
    /// last block, carried into the next): never probed, read or cached.
    uint64_t carried = 0;
    bool read_pending = false;    // issued, awaiting CompleteSpan
    ReadRequest req;
  };
  /// Issue half: sizes the buffer and probes the block cache past the
  /// carried bytes; a span whose every probed block hits is done with
  /// zero Env reads. Otherwise the span's one ReadRequest, for the bytes
  /// past the carried ones, is added to `batch` (kAsyncReads) or, with no
  /// batch, read at once (timed as kDiskRead).
  void IssueSpan(Span* span, ReadBatch* batch, OpStats stats);
  /// Complete half, after the batch's Wait: returns a failed read's
  /// status, turns a short read into Corruption, moves the bytes into the
  /// buffer and, with `fill_cache`, inserts the blocks the probe missed.
  /// A span with no read pending (cache-served, or completed) is a no-op.
  Status CompleteSpan(Span* span, bool fill_cache, OpStats stats);
  /// The span's entry `first`, in its buffer.
  const char* SpanEntries(const Span& span) const {
    return span.buffer.data() +
           static_cast<size_t>(uint64_t{span.first} * entry_size_ -
                               span.byte_lo);
  }

  /// Entry-index lower bound via O(log n) single-entry probes; correctness
  /// fallback for Seek() when the model range does not bracket an absent
  /// target key.
  Status FindLowerBound(Key target, size_t* pos);

  Key EntryKeyInBuffer(const char* base, size_t first, size_t i) const {
    return DecodeUserKey(base + (i - first) * entry_size_);
  }

  Status ReadEntryKey(size_t pos, Key* key);
  /// Bloom probe; false means the key is definitely absent. `stats` (may
  /// be null) overrides options_.stats for this call.
  bool MayContain(Key key, OpStats stats);
  /// Cache probe of every io block of `span` past its carried ones (which
  /// are flagged as hits): hit blocks are copied into its buffer and
  /// flagged in its block_hit. True (counting kBlockCacheHits) when every
  /// probed block hit: the span is assembled with zero Env reads.
  /// Otherwise every probed block counts as a kBlockCacheMiss — a
  /// partially warm span is refetched whole, so hit% agrees with the
  /// Env-read savings instead of overstating them.
  bool ProbeCachedSpan(Span* span, OpStats stats);
  /// After the span's read: inserts the blocks the probe missed from its
  /// buffer, counting kBlockCacheEvictions.
  void CacheColdBlocks(const Span& span, OpStats stats);
  /// Inclusive entry window [*lo, *hi] for keys[i]: the caller's
  /// level-model bounds when given, else the file index's prediction
  /// (timed as kIndexPredict); clamped to the entry array either way.
  void EntryWindow(Key key, const size_t* bounds_lo, const size_t* bounds_hi,
                   size_t i, OpStats stats, size_t* lo, size_t* hi) const;
  /// Binary search entries [lo, hi] inside a fetched buffer (`base` points
  /// at entry `first`) for the exact key; bloom hit/miss attribution is
  /// the caller's.
  bool SearchBuffer(const char* base, size_t first, size_t lo, size_t hi,
                    Key key, std::string* value, uint64_t* tag) const;

  TableOptions options_;
  std::unique_ptr<RandomAccessFile> file_;
  std::unique_ptr<LearnedIndex> index_;
  std::string bloom_data_;
  uint64_t count_ = 0;
  Key min_key_ = 0;
  Key max_key_ = 0;
  uint32_t key_size_ = 0;
  uint32_t value_size_ = 0;
  uint32_t entry_size_ = 0;
  uint64_t data_size_ = 0;  // count_ * entry_size_
};

/// One run's lookup plan, carried from PrepareMultiGet to FinishMultiGet:
/// the keys that survived range/bloom screening, their search bounds, and
/// the aligned byte spans backing them. The caller owns it and may reuse
/// it across calls; its spans keep their buffers, so a warm reused plan
/// allocates nothing. It holds no reference to the reader.
/// Destroying or reusing a pending object whose batch has not been waited
/// is illegal (requests reference its buffers).
class PendingMultiGet {
 private:
  friend class TableReader;

  using Span = TableReader::Span;
  struct KeyPlan {
    int span = -1;  // -1: resolved at Prepare (out of range / bloom miss)
    bool probed = false;  // passed a bloom probe (counts TP/FP at Finish)
    size_t lo = 0;
    size_t hi = 0;  // inclusive entry bounds for the buffer search
  };

  /// Opens span number num_spans_ over `window`, reusing an earlier
  /// plan's buffer.
  Span& NewSpan(const TableReader::AlignedSpan& window);

  std::span<const Key> keys_;  // the caller's, alive until Finish
  std::vector<KeyPlan> plans_;
  std::vector<Span> spans_;    // the first num_spans_ are this plan's
  size_t num_spans_ = 0;
  bool fill_cache_ = true;
};

}  // namespace lilsm

#endif  // LILSM_TABLE_TABLE_H_
