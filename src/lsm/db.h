// DB: the LSM-tree key-value store of the testbed — a LevelDB-style engine
// (write buffer + WAL, leveled compaction with size ratio T, partial
// compactions, bloom filters) whose per-table index is pluggable: any of
// the paper's six learned indexes or the traditional fence pointers, at
// file or level granularity.
//
// One execution model, two executors (DBOptions::concurrency; see
// DESIGN.md). Every write goes through LevelDB's writer queue: the front
// writer leads, coalescing queued batches into one WAL record, one
// memtable apply and at most one fsync (a lone writer is a group of one).
// Flushes and compactions are jobs claimed under one rule set and handed
// to an executor:
//
//  * kInline (default): the calling thread runs every claimable job
//    before it returns — at the end of the write that filled the
//    memtable, in FlushMemTable/CompactUntilStable/CompactAll, and at
//    Open. No thread, no sleep: every measurement the benches take is
//    deterministic — the paper's setup.
//  * kBackground: the DB's own thread pool runs the jobs off the
//    foreground path, with LevelDB-style write slowdown/stall triggers;
//    readers pin refcounted memtables and versions, so Get and iterators
//    run concurrently with mutation, and Snapshot handles give repeatable
//    point-in-time reads.
//
// Parallel maintenance is opt-in (default off; see DESIGN.md "Write path
// & concurrency architecture"): max_background_jobs > 1 runs flush ∥
// compaction and disjoint-level compactions concurrently, and
// max_subcompactions > 1 range-partitions one large compaction across
// threads.
#ifndef LILSM_LSM_DB_H_
#define LILSM_LSM_DB_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lsm/db_iter.h"
#include "lsm/dbformat.h"
#include "lsm/write_batch.h"
#include "table/table.h"
#include "util/stats.h"

namespace lilsm {

/// The paper's index-granularity axis: one model per SSTable, or one model
/// per level (Dai et al.'s LevelModel).
enum class IndexGranularity : uint8_t {
  kFile = 0,
  kLevel = 1,
};

/// How level-granularity models are kept fresh (see DESIGN.md). Models
/// are immutable, refcounted artifacts attached to each Version, so a
/// reader pinned to a version always has a model consistent with its file
/// lists under either policy.
enum class LevelModelPolicy : uint8_t {
  /// Models start empty in every installed version and are rebuilt on
  /// first use from a full-level key scan — the paper's behavior (every
  /// figure bench) and the default.
  kLazyRebuild = 0,
  /// Flush and compaction produce model updates: per-file trained
  /// segments are stitched into the level model at version-install time
  /// (touching only changed files, zero key re-reads), with a full
  /// retrain fallback when the stitch's segment density blows up
  /// (ModelCatalog::kStitchBlowup). Bourbon-style train-on-the-write-path
  /// for write-heavy serving. Engages only when
  /// the read path can consult level models (kLevel granularity);
  /// non-segment index types (RMI, RadixSpline, PLEX, fence pointers)
  /// cannot stitch, so for them the write path produces nothing and
  /// models fall back to lazy read-path builds — prefer a segment-based
  /// type (PGM, PLR, FITing-Tree) here.
  kCompactionMaintained = 1,
};

/// Which executor runs LSM maintenance (flush, compaction) jobs.
enum class ConcurrencyMode : uint8_t {
  /// The calling thread runs every claimable job before it returns; a
  /// single-threaded caller gets a deterministic engine (every paper
  /// figure uses this).
  kInline = 0,
  /// A thread pool owned by the DB runs up to max_background_jobs jobs at
  /// once; writers only stall on the slowdown/stop triggers and readers
  /// never block.
  kBackground = 1,
};

/// A point-in-time read handle (DB::GetSnapshot). Internally it pins the
/// memtables and version that were live at creation, so reads through it
/// are repeatable even after flushes and compactions rewrite the tree.
/// Release with DB::ReleaseSnapshot; a held snapshot keeps the pinned
/// memtables and table files alive (and on disk) until released.
class Snapshot {
 public:
  /// The last sequence number visible through this snapshot.
  virtual SequenceNumber sequence() const = 0;

 protected:
  Snapshot() = default;
  virtual ~Snapshot() = default;
};

/// Per-call read options (LevelDB/RocksDB idiom). Every read entry point
/// (Get, MultiGet, NewIterator, RangeLookup) takes one; the zero-argument
/// convenience overloads forward a default-constructed instance.
struct ReadOptions {
  /// Read from this snapshot's pinned state instead of the latest state.
  /// Must stay unreleased for the duration of the call (and, for
  /// NewIterator, may be released once the iterator exists — the iterator
  /// holds its own pins).
  const Snapshot* snapshot = nullptr;

  /// Per-call instrumentation sink. When non-null, every timer and counter
  /// this call would have recorded against DB::stats() goes here instead —
  /// callers attribute lookup stages (bloom, predict, disk, search) to one
  /// request stream without tearing apart the DB-wide totals. A per-call
  /// sink times every operation; the DB-wide sink samples its Get/MultiGet
  /// stage timers (see DB::stats()). Iterator internals (block fetches
  /// during NewIterator scans) still record to the DB-wide sink; see
  /// DESIGN.md.
  Stats* stats = nullptr;

  /// Debug mode: cross-check every Get/MultiGet outcome against a
  /// learned-index-free reference read (a merging-iterator seek over the
  /// same pinned view) and return Corruption on divergence. Expensive;
  /// meant for tests and bring-up of new index types.
  bool verify_found = false;

  /// Whether blocks fetched by this call may be inserted into the shared
  /// block cache (DBOptions::block_cache_bytes). Cache hits are always
  /// served. Set false for large scans so a one-pass iterator does not
  /// evict the point-lookup hot set (the RocksDB idiom); compaction
  /// input reads behave as if it were false.
  bool fill_cache = true;
};

/// Per-call write options.
struct WriteOptions {
  /// Overrides DBOptions::sync_wal for this write: true forces an
  /// fdatasync of the WAL before the write is acknowledged, false skips
  /// it. Unset inherits the DB-wide default.
  std::optional<bool> sync;

  /// Skips the WAL entirely — the write is only as durable as the next
  /// memtable flush. The standard bulk-load switch: load with
  /// disable_wal=true, then FlushMemTable() once at the end.
  bool disable_wal = false;
};

struct DBOptions {
  Env* env = nullptr;  // defaults to Env::Default()

  /// Memtable capacity before a flush (paper Figure 9 uses 64 MiB).
  size_t write_buffer_size = 4 << 20;
  /// LSM size ratio T between adjacent level capacities (paper: 10).
  int size_ratio = 10;
  /// Target size of one SSTable — the index-granularity knob.
  uint64_t sstable_target_size = 2 << 20;
  /// Number of L0 files triggering an L0 -> L1 compaction.
  int l0_compaction_trigger = 4;

  /// Execution model for flushes and compactions (see DESIGN.md).
  ConcurrencyMode concurrency = ConcurrencyMode::kInline;
  /// kBackground only: at this many L0 files each write is delayed ~1 ms
  /// to let compaction gain ground (LevelDB's soft limit). Clamped at
  /// Open to >= l0_compaction_trigger (a stall must imply pending work).
  int l0_slowdown_trigger = 8;
  /// kBackground only: at this many L0 files writes block until the
  /// backlog drains (LevelDB's hard limit). Clamped at Open to >=
  /// l0_slowdown_trigger.
  int l0_stop_trigger = 12;

  /// Ignored: every write goes through the group-commit writer queue.
  /// Kept only so existing callers that set it still compile.
  bool group_commit = false;

  /// kBackground only: how many flushes/compactions may run at once (the
  /// size of the DB's job pool). 1 (default) is the single-worker engine.
  /// Above 1 a flush runs in parallel with compactions, and compactions
  /// at disjoint level pairs in parallel (a job at level L occupies L and
  /// L+1; see DESIGN.md "Write path & concurrency").
  int max_background_jobs = 1;

  /// Maximum range-partitioned shards per compaction. 1 (default) keeps
  /// every compaction a single merge loop. Above 1, a compaction whose
  /// next-level inputs span several files is split at those file
  /// boundaries into up to this many shards, merged in parallel, with all
  /// shard outputs installed as one VersionEdit (and stitched into the
  /// level model exactly as a single-threaded compaction would be).
  int max_subcompactions = 1;

  int bloom_bits_per_key = 10;

  /// Entry geometry (paper: 24-byte keys, 1000-byte values). Tables store
  /// fixed-size entries, so every value must have exactly value_size
  /// bytes; Write rejects a batch holding any other size with
  /// InvalidArgument.
  uint32_t key_size = 24;
  uint32_t value_size = 100;

  IndexType index_type = IndexType::kPGM;
  IndexConfig index_config;
  IndexGranularity index_granularity = IndexGranularity::kFile;

  /// Level-model lifecycle for IndexGranularity::kLevel (see DESIGN.md).
  LevelModelPolicy level_model_policy = LevelModelPolicy::kLazyRebuild;

  /// fdatasync the WAL on every write (off for benchmarks, matching the
  /// paper's setup; recovery tests turn it on).
  bool sync_wal = false;

  bool create_if_missing = true;
  bool error_if_exists = false;

  /// Capacity (in open readers) of the table cache. Must be positive:
  /// zero would force every lookup through a full open/parse cycle.
  size_t max_open_tables = 4096;

  /// Charged capacity of the shared block cache consulted by table readers
  /// before any Env read of table data. 0 (default) disables caching
  /// entirely, preserving the paper-reproduction path where each
  /// segment fetch is a device I/O with exactly the seed's SimEnv counts.
  size_t block_cache_bytes = 0;

  /// Target I/O queue depth for batched reads. 1 (default): every lookup
  /// reads inline, one blocking read per span. Above 1, a MultiGet level
  /// with at least two runs fetches their spans concurrently through
  /// Env::NewReadBatch (io_uring when available, a thread-pool backend
  /// otherwise). Results are bit-identical at every depth; only timing
  /// and stage counts (batch, bloom and predict counters) differ.
  int io_depth = 1;

  /// Sanity-checks the option values against the engine's invariants;
  /// DB::Open calls this first and refuses to open on failure. Rejects a
  /// zero value_size (tables store fixed-size entries),
  /// non-positive size_ratio and L0 triggers, a zero max_open_tables
  /// (every lookup would thrash a full table open/close), a key_size
  /// the 8-byte uint64_t Key cannot round-trip through (< 8, or past the
  /// 64-byte encode buffers), and non-positive max_background_jobs,
  /// max_subcompactions, or io_depth.
  Status Validate() const;
};

class DB {
 public:
  /// Opens (creating or recovering) the database at `name`.
  static Status Open(const DBOptions& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  /// Waits for queued background work to finish or abort; outstanding
  /// snapshots and iterators must be released first.
  virtual ~DB() = default;

  virtual Status Put(const WriteOptions& options, Key key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, Key key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* batch) = 0;

  // Convenience overloads with default write options.
  Status Put(Key key, const Slice& value) {
    return Put(WriteOptions(), key, value);
  }
  Status Delete(Key key) { return Delete(WriteOptions(), key); }
  Status Write(WriteBatch* batch) { return Write(WriteOptions(), batch); }

  /// Point lookup; NotFound if absent or deleted. Honors
  /// options.snapshot, options.stats, and options.verify_found.
  virtual Status Get(const ReadOptions& options, Key key,
                     std::string* value) = 0;

  /// Batched point lookup: serves `keys` as one operation against a
  /// single pinned view (memtables + version), so every key sees the same
  /// state. statuses->at(i) is OK (values->at(i) set), NotFound, or — on
  /// an environmental failure — whatever error aborted the batch (also
  /// returned). The batch is sorted internally; the remainder after the
  /// memtable pass is grouped into per-table runs per level (and served
  /// against the level model under IndexGranularity::kLevel), so each
  /// table's reader fetch, bloom filter, and learned index are consulted
  /// per run instead of per key. Results are bit-identical to per-key Get
  /// with the same options. kMultiGet / kMultiGetKeys / kMultiGetBatches
  /// instrument the batch; per-level AddLevelRead attribution is recorded
  /// once per consulted level per batch.
  virtual Status MultiGet(const ReadOptions& options,
                          std::span<const Key> keys,
                          std::vector<std::string>* values,
                          std::vector<Status>* statuses) = 0;

  /// Iterator over live entries. It pins the memtables and version it
  /// reads, so it stays valid (at its creation-time view) under concurrent
  /// writes, flushes, and compactions; destroy it to unpin. With
  /// options.snapshot, iterates that snapshot's view instead.
  virtual std::unique_ptr<Iterator> NewIterator(
      const ReadOptions& options) = 0;

  /// Range lookup: up to `count` entries starting at the first key >=
  /// `start` (the paper's range workload). With options.snapshot, the
  /// range is read from the snapshot's pinned view.
  virtual Status RangeLookup(const ReadOptions& options, Key start,
                             size_t count,
                             std::vector<std::pair<Key, std::string>>* out) = 0;

  // Convenience overloads with default read options.
  Status Get(Key key, std::string* value) {
    return Get(ReadOptions(), key, value);
  }
  Status MultiGet(std::span<const Key> keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses) {
    return MultiGet(ReadOptions(), keys, values, statuses);
  }
  std::unique_ptr<Iterator> NewIterator() { return NewIterator(ReadOptions()); }
  Status RangeLookup(Key start, size_t count,
                     std::vector<std::pair<Key, std::string>>* out) {
    return RangeLookup(ReadOptions(), start, count, out);
  }

  /// Pins the current state for repeatable reads. Must be released via
  /// ReleaseSnapshot before the DB is destroyed.
  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  /// Flushes the memtable to level 0 (no-op when empty) and settles the
  /// tree. In kBackground this drains the background queue first.
  virtual Status FlushMemTable() = 0;
  /// Runs (or, in kBackground, schedules and awaits) compactions until
  /// every level is within capacity.
  virtual Status CompactUntilStable() = 0;
  /// Full merge of every populated level into the one below, top-down —
  /// the precondition the paper notes for level-granularity models.
  /// Requires a quiescent DB (no concurrent writers): in kBackground its
  /// foreground merges would otherwise race freshly scheduled background
  /// compactions over the same files.
  virtual Status CompactAll() = 0;

  // ---- experiment support ----
  // The reconfiguration and memory-accounting APIs below assume a
  // quiescent DB (no in-flight reads or writes), in both modes.

  /// Swaps the in-memory index of every live table (and level model) to a
  /// new type/config without rewriting data files. Subsequent flushes and
  /// compactions also train the new configuration.
  virtual Status ReconfigureIndexes(IndexType type,
                                    const IndexConfig& config) = 0;
  /// Changes the index granularity (file- or level-grained lookups).
  virtual void SetIndexGranularity(IndexGranularity granularity) = 0;

  /// Drops every entry of the shared block cache (no-op when
  /// block_cache_bytes is 0). Experiment support: the testbed clears it
  /// before each measured run so per-configuration measurements start
  /// cold instead of inheriting the previous configuration's warm set.
  virtual void ClearBlockCache() = 0;

  // The introspection surface below is const so read-only observers
  // (monitoring threads, report emitters) can hold a `const DB&`. The
  // methods may still take the DB mutex or build lazy level models
  // internally; they never change user-visible state.

  /// Index-only memory across live tables (level models when granularity
  /// is kLevel), excluding bloom filters — the paper's "Memory (B)" axis.
  virtual size_t TotalIndexMemory() const = 0;
  /// Bloom filter memory across live tables.
  virtual size_t TotalFilterMemory() const = 0;
  /// Charged bytes currently held by the shared block cache (0 when
  /// block_cache_bytes is 0). Hit/miss/eviction rates are in stats().
  virtual size_t BlockCacheMemory() const = 0;
  /// Index memory attributed to one level (Figure 10).
  virtual size_t LevelIndexMemory(int level) const = 0;

  virtual int NumFilesAtLevel(int level) const = 0;
  virtual uint64_t BytesAtLevel(int level) const = 0;
  virtual uint64_t EntriesAtLevel(int level) const = 0;
  virtual SequenceNumber LastSequence() const = 0;

  /// Measurement sink for all engine instrumentation. The Stats object is
  /// internally synchronized, so handing out a mutable pointer from a
  /// const DB is sound (observers read counters; benches Reset between
  /// runs). A Get or MultiGet recording here (no ReadOptions::stats) times
  /// its stages on one operation in kTimerSampleRate (16) per thread and
  /// records those durations x16, so TimeNanos/MeanMicros/LevelReadNanos
  /// are unbiased estimates; the other operations read no clock. Every
  /// Counter, every TimerCount and every LevelReads stays exact. Model
  /// builds, stitches, recovery, compactions and server queueing are
  /// timed on every occurrence.
  virtual Stats* stats() const = 0;

  /// Destroys the database contents at `name` (files + directory).
  static Status Destroy(const DBOptions& options, const std::string& name);
};

}  // namespace lilsm

#endif  // LILSM_LSM_DB_H_
