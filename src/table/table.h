// Abstract table interfaces. Two on-disk formats implement them:
//
//  * SegmentedTable — the paper's LearnedIndexTable: fixed-size entries,
//    a pluggable serialized learned index, bloom filter, CRC footer.
//  * BlockTable — the classic LevelDB-style format (prefix-compressed
//    blocks indexed by per-block fence pointers), kept as the legacy
//    baseline substrate and as a correctness cross-check.
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

#include "index/index.h"
#include "table/format.h"
#include "util/env.h"
#include "util/lru_cache.h"
#include "util/stats.h"

namespace lilsm {

enum class TableFormat : uint8_t {
  kSegmented = 0,  // the paper's LearnedIndexTable
  kBlocked = 1,    // classic LevelDB block format
};

/// Options governing how tables are written and read.
struct TableOptions {
  Env* env = nullptr;         // required
  Stats* stats = nullptr;     // optional instrumentation sink
  TableFormat format = TableFormat::kSegmented;

  /// Entry geometry for the segmented format (paper: 24-byte keys,
  /// 1000-byte values). Values must have exactly value_size bytes.
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

/// Iterator over a table's entries in key order.
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

/// Opaque per-run state carried from PrepareMultiGet to FinishMultiGet:
/// each reader derives its own holding the key plan, span buffers, and the
/// ReadRequests it registered with the batch. Destroying a pending object
/// whose batch has not been waited is illegal (requests reference its
/// buffers).
class PendingMultiGet {
 public:
  virtual ~PendingMultiGet() = default;
};

class TableReader {
 public:
  virtual ~TableReader() = default;

  /// Batched point lookup over ascending (not necessarily distinct) keys;
  /// the only synchronous read entry point — a point lookup is a one-key
  /// call. For each keys[i]: on a hit sets founds[i]=true plus tags[i] and
  /// values[i]; a bloom negative or absent key sets founds[i]=false with
  /// OK status. `bounds_lo`/`bounds_hi` (both null or both non-null, one
  /// inclusive entry range per key) carry the predictions of a
  /// level-granularity model; formats without positional entries return
  /// NotSupported for them. `stats` (when non-null) receives this call's
  /// instrumentation instead of the table's configured sink — the DB
  /// threads ReadOptions::stats here. `fill_cache` = false serves from the
  /// block cache but does not populate it on a miss
  /// (ReadOptions::fill_cache). The segmented format reuses the fetched I/O
  /// block across a run of keys, consulting the bloom filter and learned
  /// index only for keys the buffered block cannot answer.
  virtual Status MultiGet(std::span<const Key> keys, const size_t* bounds_lo,
                          const size_t* bounds_hi, std::string* values,
                          uint64_t* tags, bool* founds, Stats* stats,
                          bool fill_cache = true) = 0;

  /// Async MultiGet, phase 1: plans the same lookup MultiGet would run,
  /// serves what the block cache can answer immediately, and registers one
  /// ReadRequest per missing span with `batch` instead of reading. The
  /// caller Wait()s the batch (typically after preparing several runs so
  /// their device reads overlap), then calls FinishMultiGet. Semantics
  /// (keys ascending, optional level-model bounds, fill_cache) match
  /// MultiGet; results are bit-identical to the synchronous path.
  virtual Status PrepareMultiGet(std::span<const Key> keys,
                                 const size_t* bounds_lo,
                                 const size_t* bounds_hi, ReadBatch* batch,
                                 std::unique_ptr<PendingMultiGet>* pending,
                                 Stats* stats, bool fill_cache = true) = 0;

  /// Async MultiGet, phase 2 (after the batch's Wait): searches the
  /// fetched spans, fills values/tags/founds exactly like MultiGet, and
  /// inserts cold blocks into the block cache under the fill_cache given
  /// to PrepareMultiGet.
  virtual Status FinishMultiGet(PendingMultiGet* pending, std::string* values,
                                uint64_t* tags, bool* founds,
                                Stats* stats) = 0;

  /// `fill_cache` = false keeps the iterator's block fetches from
  /// populating the block cache (scans and compaction inputs must not
  /// evict the point-lookup hot set); cache hits are still served.
  /// `readahead_blocks` > 0 makes the iterator prefetch that many io
  /// blocks past its cursor through Env::NewReadBatch, so sequential
  /// scans overlap their device reads (0 = today's synchronous behavior).
  virtual std::unique_ptr<TableIterator> NewIterator(
      bool fill_cache = true, size_t readahead_blocks = 0) = 0;

  virtual uint64_t NumEntries() const = 0;
  virtual Key MinKey() const = 0;
  virtual Key MaxKey() const = 0;

  /// The in-memory index consulted by MultiGet/Seek.
  virtual const LearnedIndex* index() const = 0;

  /// Retrains the in-memory index with a new type/config by scanning the
  /// data region (the on-disk blob is untouched). This is what lets the
  /// benchmark sweep (index type x boundary) without rewriting data files.
  virtual Status RetrainIndex(IndexType type, const IndexConfig& config) = 0;

  /// Bytes of memory held by the lookup index alone (the paper's
  /// "Memory (B)" axis), excluding bloom filters.
  virtual size_t IndexMemoryUsage() const = 0;

  /// Bytes of memory held by the bloom filter.
  virtual size_t FilterMemoryUsage() const = 0;

  /// Reads every user key into *keys in order (used by level-granularity
  /// model training).
  virtual Status ReadAllKeys(std::vector<Key>* keys) = 0;

  /// Appends this table's trained leaf segments (positions local to the
  /// file) to *out with their training error bound in *epsilon — the
  /// ModelCatalog's zero-I/O stitch input. False when the format keeps no
  /// positional learned index (BlockTable) or the index type is not
  /// segment-based; callers fall back to ReadAllKeys.
  virtual bool ExportIndexSegments(std::vector<LinearSegment>* /*out*/,
                                   uint32_t* /*epsilon*/) {
    return false;
  }
};

class TableBuilder {
 public:
  virtual ~TableBuilder() = default;

  /// Adds an entry; keys must arrive strictly increasing.
  virtual Status Add(Key key, uint64_t tag, const Slice& value) = 0;

  /// Trains the index over the added keys, writes filter/index/meta blocks
  /// and the footer, and syncs. After Finish the builder is exhausted.
  virtual Status Finish() = 0;

  /// Abandons the file contents (caller removes the file).
  virtual void Abandon() = 0;

  virtual uint64_t NumEntries() const = 0;
  /// Bytes of file data written so far (data region only until Finish).
  virtual uint64_t FileSize() const = 0;
};

/// Factory helpers dispatching on options.format.
Status NewTableBuilder(const TableOptions& options, const std::string& fname,
                       std::unique_ptr<TableBuilder>* builder);
Status OpenTable(const TableOptions& options, const std::string& fname,
                 std::unique_ptr<TableReader>* reader);

}  // namespace lilsm

#endif  // LILSM_TABLE_TABLE_H_
