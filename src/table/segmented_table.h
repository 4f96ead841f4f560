// SegmentedTable: the paper's LearnedIndexTable (Section 4.2).
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
#ifndef LILSM_TABLE_SEGMENTED_TABLE_H_
#define LILSM_TABLE_SEGMENTED_TABLE_H_

#include <vector>

#include "bloom/bloom.h"
#include "table/table.h"

namespace lilsm {

class SegmentedTableBuilder final : public TableBuilder {
 public:
  /// Creates `fname` for writing. Check status() before use.
  SegmentedTableBuilder(const TableOptions& options, const std::string& fname);
  ~SegmentedTableBuilder() override;

  Status Add(Key key, uint64_t tag, const Slice& value) override;
  Status Finish() override;
  void Abandon() override;

  uint64_t NumEntries() const override { return keys_.size(); }
  uint64_t FileSize() const override { return offset_; }
  Status status() const { return status_; }

 private:
  TableOptions options_;
  std::unique_ptr<WritableFile> file_;
  Status status_;
  std::vector<Key> keys_;
  BloomFilterBuilder bloom_;
  std::string entry_buf_;
  uint64_t offset_ = 0;
  bool finished_ = false;
};

class SegmentedTableReader final : public TableReader {
 public:
  /// Opens `fname`, reading footer, meta, bloom and index blob into memory.
  static Status Open(const TableOptions& options, const std::string& fname,
                     std::unique_ptr<TableReader>* reader);

  /// Serves a run of sorted keys from one fetched I/O block where
  /// possible: a key inside the key range of the previously fetched block
  /// needs no bloom probe, no index descent, and no disk read — the
  /// per-run amortization DB::MultiGet is built on. A one-key call is the
  /// paper's point lookup: bloom, predict, one aligned pread, search.
  Status MultiGet(std::span<const Key> keys, const size_t* bounds_lo,
                  const size_t* bounds_hi, std::string* values,
                  uint64_t* tags, bool* founds, Stats* stats,
                  bool fill_cache) override;
  /// Async two-phase MultiGet: plans every key (range check, bloom,
  /// model bounds), decomposes the lookups into merged cache-aware byte
  /// spans, serves all-hit spans from the block cache immediately, and
  /// registers one ReadRequest per cold span with `batch`. FinishMultiGet
  /// searches the fetched spans after the batch's Wait; results are
  /// bit-identical to the synchronous MultiGet.
  Status PrepareMultiGet(std::span<const Key> keys, const size_t* bounds_lo,
                         const size_t* bounds_hi, ReadBatch* batch,
                         std::unique_ptr<PendingMultiGet>* pending,
                         Stats* stats, bool fill_cache) override;
  Status FinishMultiGet(PendingMultiGet* pending, std::string* values,
                        uint64_t* tags, bool* founds, Stats* stats) override;
  std::unique_ptr<TableIterator> NewIterator(bool fill_cache,
                                             size_t readahead_blocks) override;

  uint64_t NumEntries() const override { return count_; }
  Key MinKey() const override { return min_key_; }
  Key MaxKey() const override { return max_key_; }
  const LearnedIndex* index() const override { return index_.get(); }
  Status RetrainIndex(IndexType type, const IndexConfig& config) override;
  size_t IndexMemoryUsage() const override;
  size_t FilterMemoryUsage() const override { return bloom_data_.capacity(); }
  Status ReadAllKeys(std::vector<Key>* keys) override;
  bool ExportIndexSegments(std::vector<LinearSegment>* out,
                           uint32_t* epsilon) override;

  uint32_t entry_size() const { return entry_size_; }

  /// Reads the entry range [lo, hi] (inclusive) with one pread aligned to
  /// the I/O block size, clamped to the end of the data region (the last
  /// segment of a table whose data section ends mid-block must not read
  /// the trailing bloom/index/meta bytes as entries). With a block cache
  /// configured, constituent I/O blocks are served from / inserted into it
  /// (insertion gated by `fill_cache`). On success *base points at entry
  /// `first` inside `scratch`. Exposed for the iterator and the
  /// level-model read path.
  Status ReadEntryRange(size_t lo, size_t hi, std::string* scratch,
                        const char** base, size_t* first, size_t* last,
                        Stats* stats = nullptr, bool fill_cache = true);

  /// Entry-index lower bound via O(log n) single-entry probes; correctness
  /// fallback for Seek() when the model range does not bracket an absent
  /// target key.
  Status FindLowerBound(Key target, size_t* pos);

  Key EntryKeyInBuffer(const char* base, size_t first, size_t i) const {
    return DecodeUserKey(base + (i - first) * entry_size_);
  }

 private:
  friend class SegmentedTableIterator;

  SegmentedTableReader(const TableOptions& options) : options_(options) {}

  Status ReadEntryKey(size_t pos, Key* key);
  /// Bloom probe; false means the key is definitely absent. `stats` (may
  /// be null) overrides options_.stats for this call.
  bool MayContain(Key key, Stats* stats);
  /// Serves the aligned byte range [byte_lo, byte_hi) into `dst` through
  /// the block cache: all-hit spans copy out of the cache with zero Env
  /// reads; otherwise one pread fetches the whole span (the same single
  /// I/O the uncached path issues) and the missing blocks are inserted
  /// when `fill_cache` is set.
  Status FetchAlignedCached(uint64_t byte_lo, uint64_t byte_hi, char* dst,
                            Stats* stats, bool fill_cache);
  /// Inclusive entry window [*lo, *hi] for keys[i]: the caller's
  /// level-model bounds when given, else the file index's prediction
  /// (timed as kIndexPredict); clamped to the entry array either way.
  void EntryWindow(Key key, const size_t* bounds_lo, const size_t* bounds_hi,
                   size_t i, Stats* stats, size_t* lo, size_t* hi) const;
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

}  // namespace lilsm

#endif  // LILSM_TABLE_SEGMENTED_TABLE_H_
