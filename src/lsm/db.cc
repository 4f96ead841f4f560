#include "lsm/db.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <set>
#include <thread>

#include "lsm/compaction.h"
#include "lsm/db_iter.h"
#include "lsm/memtable.h"
#include "lsm/model_catalog.h"
#include "lsm/merger.h"
#include "lsm/table_cache.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace lilsm {

namespace {

/// Returned when an iterator cannot be constructed (a table failed to
/// open): permanently invalid, carrying the failure for status().
class ErrorIterator final : public Iterator {
 public:
  explicit ErrorIterator(Status s) : status_(std::move(s)) {}
  bool Valid() const override { return false; }
  void SeekToFirst() override {}
  void Seek(Key /*target*/) override {}
  void Next() override {}
  Key key() const override { return 0; }
  Slice value() const override { return Slice(); }
  Status status() const override { return status_; }

 private:
  const Status status_;
};

// DBImpl locking discipline (the LevelDB arrangement, see DESIGN.md):
//
//  * mutex_ guards all mutable engine state: the memtable pointers, the
//    WAL writer, the VersionSet, the writer queue, and the job claims.
//  * Readers take mutex_ only long enough to pin (ref) the memtables and
//    current version, then search without it — pinned state is immutable.
//  * Being at the FRONT of writers_ is the exclusive-writer token: every
//    Write queues there, and the queue leader appends to the WAL and
//    inserts into mem_ with mutex_ released (a group of one is the serial
//    write); one leader at a time keeps log order equal to sequence
//    order. Non-Write paths that switch the memtable or roll the WAL
//    first park a batchless barrier Writer at the queue front. See
//    DESIGN.md "Write path & concurrency".
//  * Flushes and compactions are jobs, claimed under mutex_ by one rule
//    set: at most one flush (bg_flush_active_) plus compactions at
//    disjoint level pairs (level_busy_ marks [L, L+1] occupied). A job
//    drops mutex_ for the heavy lifting (table builds, merges) and retakes
//    it to install results, waking waiters through bg_cv_. bg_jobs_
//    counts the executors running or queued.
//  * MaybeScheduleBackgroundWork hands claimable work to the mode's
//    executor. kBackground submits closures to the DB's own pool, up to
//    max_background_jobs at once. kInline runs claimed jobs on the calling
//    thread until nothing is claimable — no thread, no sleep — so a
//    single-threaded caller sees the same deterministic tree every run.
class DBImpl final : public DB {
 public:
  DBImpl(const DBOptions& options, std::string dbname)
      : options_(options),
        dbname_(std::move(dbname)),
        env_(options.env != nullptr ? options.env : Env::Default()) {
    // Order the triggers: slowdown and stop must sit at or above the
    // compaction trigger, else a stalled writer could wait for a
    // compaction that scoring never requests (deadlock).
    options_.l0_slowdown_trigger =
        std::max(options_.l0_slowdown_trigger, options_.l0_compaction_trigger);
    options_.l0_stop_trigger =
        std::max(options_.l0_stop_trigger, options_.l0_slowdown_trigger);
    options_.max_background_jobs = std::max(1, options_.max_background_jobs);
    options_.max_subcompactions = std::max(1, options_.max_subcompactions);
    if (background_mode() || options_.max_subcompactions > 1) {
      // kBackground's executor, and every mode's subcompaction shards.
      // Deadlock-free sizing: max_background_jobs parents can occupy pool
      // threads while each waits on max_subcompactions - 1 shard slots,
      // and one more parent (a foreground CompactAll merge or a kInline
      // job, which run on the caller's thread) may want shard slots too —
      // (jobs + 1) * subs - 1 covers exactly that worst case.
      bg_pool_ = std::make_unique<ThreadPool>(
          (options_.max_background_jobs + 1) * options_.max_subcompactions -
          1);
    }
    versions_ = std::make_unique<VersionSet>(env_, dbname_);
    if (options_.block_cache_bytes > 0) {
      block_cache_ = std::make_shared<BlockCache>(options_.block_cache_bytes);
    }
    table_cache_ = std::make_unique<TableCache>(MakeTableOptions(), dbname_,
                                                options_.max_open_tables);
    model_catalog_ = std::make_unique<ModelCatalog>(env_, &stats_);
    mem_ = new MemTable();
    mem_->Ref();
  }

  ~DBImpl() override {
    {
      MutexLock lock(&mutex_);
      shutting_down_.store(true, std::memory_order_release);
      while (bg_jobs_ > 0) {
        bg_cv_.Wait();
      }
      LILSM_ASSERT(writers_.empty() && "writer leaked past DB destruction");
      LILSM_ASSERT(snapshot_count_ == 0 &&
                   "snapshot leaked past DB destruction");
    }
    if (wal_ != nullptr) {
      wal_->Sync();
      wal_->Close();
    }
    if (imm_ != nullptr) imm_->Unref();
    mem_->Unref();
  }

  Status Init() {
    MutexLock lock(&mutex_);
    Status s = env_->CreateDir(dbname_);
    if (!s.ok()) return s;
    const bool exists = env_->FileExists(CurrentFileName(dbname_));
    if (exists && options_.error_if_exists) {
      return Status::InvalidArgument(dbname_, "already exists");
    }
    if (!exists && !options_.create_if_missing) {
      return Status::InvalidArgument(dbname_, "does not exist");
    }

    if (!exists) {
      s = versions_->CreateNew();
      if (!s.ok()) return s;
      return RollWal();
    }

    ScopedTimer recover_timer(&stats_, Timer::kRecover, env_);
    s = versions_->Recover();
    if (!s.ok()) return s;
    s = ReplayWals();
    if (!s.ok()) return s;
    if (mem_->empty()) {
      s = RollWal();
      if (!s.ok()) return s;
      VersionEdit edit;
      edit.SetLogNumber(wal_number_);
      s = versions_->LogAndApply(&edit);
    } else {
      // The recovered updates become imm_ behind a fresh log, flushed by
      // the executor below like any full memtable; that flush retires the
      // replayed logs.
      s = SwitchMemTable();
    }
    if (!s.ok()) return s;
    if (maintained_models()) {
      // Recovery installed versions with empty model slots; seed the
      // recovered tree's models once, from per-file indexes (no key
      // re-reads), so the first reads need no build.
      PrefillLevelModelsLocked();
    }
    s = RemoveObsoleteFiles();
    if (!s.ok()) return s;
    // Offer the recovered tree's work (the flush above, an L0 a previous
    // session left past its trigger) to the executor.
    MaybeScheduleBackgroundWork();
    return bg_error_;
  }

  Status Put(const WriteOptions& wopts, Key key, const Slice& value) override {
    WriteBatch batch;
    batch.Put(key, value);
    return Write(wopts, &batch);
  }

  Status Delete(const WriteOptions& wopts, Key key) override {
    WriteBatch batch;
    batch.Delete(key);
    return Write(wopts, &batch);
  }

  /// LevelDB's writer queue: every writer parks in writers_; the front
  /// writer leads, coalescing the queue prefix into one batch, committing
  /// it with mutex_ RELEASED (queue front = exclusive-writer token; the
  /// memtable is single-writer multi-reader safe), then distributing the
  /// shared status. One WAL append and at most one fsync serve the whole
  /// group; a lone writer forms a group of one.
  Status Write(const WriteOptions& wopts, WriteBatch* batch) override {
    if (batch->Count() == 0) return Status::OK();
    // Admission: a wrong-size value would be acknowledged, then fail every
    // flush — and every reopen's recovery flush. Reject the batch before it
    // is queued or reaches the WAL.
    Status admitted = batch->CheckValueSizes(options_.value_size);
    if (!admitted.ok()) return admitted;
    MutexLock lock(&mutex_);
    Writer w(&mutex_);
    w.batch = batch;
    // Per-call override first, DB-wide default second: a load phase can
    // run unsynced (or fully WAL-less) against a durable-by-default DB,
    // and a critical write can force a sync against a lazy one.
    w.sync = wopts.sync.value_or(options_.sync_wal);
    w.disable_wal = wopts.disable_wal;
    writers_.push_back(&w);
    while (!w.done && &w != writers_.front()) {
      w.cv.Wait();
    }
    if (w.done) return w.status;  // a leader served this write

    // This writer leads. kBackground applies backpressure first:
    // MakeRoomForWrite may drop the mutex, but the queue front keeps new
    // writers parked.
    Status s = background_mode() ? MakeRoomForWrite() : Status::OK();

    Writer* last_writer = &w;
    if (s.ok()) s = CommitGroup(&last_writer);

    if (s.ok() && !background_mode() &&
        mem_->ApproximateMemoryUsage() >= options_.write_buffer_size) {
      // kInline maintains the tree at the end of the write that filled
      // the memtable, while this writer still holds the queue front, so
      // the memtable switch cannot race a later leader.
      s = SwitchMemTable();
      if (s.ok()) s = CompactUntilStableLocked();
    }

    // Pop the served prefix, handing every member the group's status,
    // then wake the next queue front (a new leader or a barrier).
    while (true) {
      Writer* ready = writers_.front();
      writers_.pop_front();
      if (ready != &w) {
        ready->status = s;
        ready->done = true;
        ready->cv.Signal();
      }
      if (ready == last_writer) break;
    }
    if (!writers_.empty()) writers_.front()->cv.Signal();
    return s;
  }

  Status Get(const ReadOptions& ropts, Key key, std::string* value) override {
    const OpStats sink = ReadSink(ropts);
    sink.Add(Counter::kPointLookups);
    ReadView view = PinView(ropts.snapshot);
    // A one-key MultiGet; an I/O failure lands in `s` like any unserved
    // key's status.
    Status s = Status::NotFound("not found");
    MultiGetFromView(view, std::span<const Key>(&key, 1), value, &s, sink,
                     ropts.fill_cache);
    if (ropts.verify_found && (s.ok() || s.IsNotFound())) {
      RefView(view);
      auto ref = NewIteratorOverView(view, /*fill_cache=*/false);
      Status vs = VerifyWithIterator(ref.get(), key, s, *value);
      if (!vs.ok()) s = vs;
    }
    UnpinView(view);
    return s;
  }

  Status MultiGet(const ReadOptions& ropts, std::span<const Key> keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses) override {
    const OpStats sink = ReadSink(ropts);
    ScopedTimer batch_timer(sink, Timer::kMultiGet, env_);
    sink.Add(Counter::kMultiGetBatches);
    sink.Add(Counter::kMultiGetKeys, keys.size());
    values->assign(keys.size(), std::string());
    statuses->assign(keys.size(), Status::NotFound("not found"));
    if (keys.empty()) return Status::OK();

    ReadView view = PinView(ropts.snapshot);
    Status s = MultiGetFromView(view, keys, values->data(), statuses->data(),
                                sink, ropts.fill_cache);
    if (s.ok() && ropts.verify_found) {
      RefView(view);
      auto ref = NewIteratorOverView(view, /*fill_cache=*/false);
      for (size_t i = 0; i < keys.size(); i++) {
        Status vs = VerifyWithIterator(ref.get(), keys[i], (*statuses)[i],
                                       (*values)[i]);
        if (!vs.ok()) {
          (*statuses)[i] = vs;
          if (s.ok()) s = vs;
        }
      }
    }
    UnpinView(view);
    return s;
  }

  std::unique_ptr<Iterator> NewIterator(const ReadOptions& ropts) override {
    return NewIteratorOverView(PinView(ropts.snapshot), ropts.fill_cache);
  }

  const Snapshot* GetSnapshot() override {
    MutexLock lock(&mutex_);
    auto* snap = new SnapshotImpl();
    snap->seq_ = versions_->last_sequence();
    snap->mem_ = mem_;
    snap->mem_->Ref();
    snap->imm_ = imm_;
    if (snap->imm_ != nullptr) snap->imm_->Ref();
    snap->version_ = versions_->PinCurrent();
    snapshot_count_++;
    return snap;
  }

  void ReleaseSnapshot(const Snapshot* snapshot) override {
    if (snapshot == nullptr) return;
    const auto* snap = static_cast<const SnapshotImpl*>(snapshot);
    {
      MutexLock lock(&mutex_);
      snapshot_count_--;
    }
    snap->mem_->Unref();
    if (snap->imm_ != nullptr) snap->imm_->Unref();
    snap->version_->Unref();
    delete snap;
  }

  Status RangeLookup(const ReadOptions& ropts, Key start, size_t count,
                     std::vector<std::pair<Key, std::string>>* out) override {
    (ropts.stats != nullptr ? ropts.stats : &stats_)
        ->Add(Counter::kRangeLookups);
    out->clear();
    out->reserve(count);
    auto iter = NewIterator(ropts);
    for (iter->Seek(start); iter->Valid() && out->size() < count;
         iter->Next()) {
      out->emplace_back(iter->key(), iter->value().ToString());
    }
    return iter->status();
  }

  Status FlushMemTable() override {
    MutexLock lock(&mutex_);
    Status s = SwitchMemTableAtBarrier();
    if (!s.ok()) return s;
    return CompactUntilStableLocked();
  }

  Status CompactUntilStable() override {
    MutexLock lock(&mutex_);
    return CompactUntilStableLocked();
  }

  Status CompactAll() override {
    MutexLock lock(&mutex_);
    Status s = SwitchMemTableAtBarrier();
    // Settle all queued maintenance first so the full merge below starts
    // from a settled tree (callers are quiescent, per the API contract).
    if (s.ok()) s = CompactUntilStableLocked();
    if (!s.ok()) return s;
    for (int level = 0; level < kNumLevels - 1; level++) {
      VersionSet::CompactionPick pick;
      if (!versions_->PickFullCompaction(level, &pick)) continue;
      // Stop pushing once this is the deepest populated level.
      bool deeper = false;
      for (int l = level + 1; l < kNumLevels; l++) {
        if (versions_->current().NumFiles(l) > 0) deeper = true;
      }
      if (!deeper && level > 0) break;
      s = RunCompaction(pick);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  Status ReconfigureIndexes(IndexType type, const IndexConfig& config) override {
    MutexLock lock(&mutex_);
    Status ws = CompactUntilStableLocked();
    if (!ws.ok()) return ws;
    options_.index_type = type;
    options_.index_config = config;
    table_cache_->SetIndexOptions(type, config);
    const Version& v = versions_->current();
    for (int level = 0; level < kNumLevels; level++) {
      for (const FileMeta& meta : v.files(level)) {
        std::shared_ptr<TableReader> reader;
        Status s = table_cache_->GetReader(meta.number, &reader);
        if (!s.ok()) return s;
        s = reader->RetrainIndex(type, config);
        if (!s.ok()) return s;
      }
    }
    // The per-file indexes changed type under the live readers: drop the
    // stale stitched-segment cache and the current version's level models
    // (older pinned versions keep theirs — still correct windows, just
    // the old configuration; the API is quiescent-only anyway).
    model_catalog_->Reset();
    versions_->current().models()->Clear();
    if (maintained_models()) PrefillLevelModelsLocked();
    return Status::OK();
  }

  void SetIndexGranularity(IndexGranularity granularity) override {
    MutexLock lock(&mutex_);
    const bool was_maintained = maintained_models();
    options_.index_granularity = granularity;
    if (!was_maintained && maintained_models()) {
      // Switched into maintained level models mid-run: installs so far
      // carried no deltas, so seed the current version's slots now. On
      // failure readers simply fall back to the per-file index.
      PrefillLevelModelsLocked();
    }
  }

  size_t TotalIndexMemory() const override {
    const Version* v = PinCurrentVersion();
    size_t total = 0;
    if (options_.index_granularity == IndexGranularity::kLevel) {
      EnsureLevelModels(*v);
      // L0 stays file-grained (its files overlap).
      total = v->models()->MemoryUsage();
      for (const FileMeta& meta : v->files(0)) {
        std::shared_ptr<TableReader> reader;
        if (table_cache_->GetReader(meta.number, &reader).ok()) {
          total += reader->IndexMemoryUsage();
        }
      }
    } else {
      for (int level = 0; level < kNumLevels; level++) {
        for (const FileMeta& meta : v->files(level)) {
          std::shared_ptr<TableReader> reader;
          if (table_cache_->GetReader(meta.number, &reader).ok()) {
            total += reader->IndexMemoryUsage();
          }
        }
      }
    }
    v->Unref();
    return total;
  }

  size_t TotalFilterMemory() const override {
    const Version* v = PinCurrentVersion();
    size_t total = 0;
    for (int level = 0; level < kNumLevels; level++) {
      for (const FileMeta& meta : v->files(level)) {
        std::shared_ptr<TableReader> reader;
        if (table_cache_->GetReader(meta.number, &reader).ok()) {
          total += reader->FilterMemoryUsage();
        }
      }
    }
    v->Unref();
    return total;
  }

  size_t LevelIndexMemory(int level) const override {
    if (level < 0 || level >= kNumLevels) return 0;
    const Version* v = PinCurrentVersion();
    size_t total = 0;
    if (options_.index_granularity == IndexGranularity::kLevel && level > 0) {
      EnsureLevelModels(*v);
      const LevelModelRef model = v->models()->GetBlocking(level);
      total = model != nullptr ? model->MemoryUsage() : 0;
    } else {
      for (const FileMeta& meta : v->files(level)) {
        std::shared_ptr<TableReader> reader;
        if (table_cache_->GetReader(meta.number, &reader).ok()) {
          total += reader->IndexMemoryUsage();
        }
      }
    }
    v->Unref();
    return total;
  }

  int NumFilesAtLevel(int level) const override {
    MutexLock lock(&mutex_);
    return versions_->current().NumFiles(level);
  }
  uint64_t BytesAtLevel(int level) const override {
    MutexLock lock(&mutex_);
    return versions_->current().LevelBytes(level);
  }
  uint64_t EntriesAtLevel(int level) const override {
    MutexLock lock(&mutex_);
    return versions_->current().LevelEntries(level);
  }
  SequenceNumber LastSequence() const override {
    MutexLock lock(&mutex_);
    return versions_->last_sequence();
  }

  size_t BlockCacheMemory() const override {
    return block_cache_ != nullptr ? block_cache_->MemoryUsage() : 0;
  }

  void ClearBlockCache() override {
    if (block_cache_ != nullptr) block_cache_->Clear();
  }

  Stats* stats() const override { return &stats_; }

 private:
  /// The concrete snapshot: a sequence bound plus pinned sources. The
  /// pinned version keeps its table files on disk (AddLiveFiles) and the
  /// pinned memtables keep every entry version, so reads through the
  /// handle stay repeatable however far the live tree moves on.
  class SnapshotImpl final : public Snapshot {
   public:
    ~SnapshotImpl() override = default;
    SequenceNumber sequence() const override { return seq_; }

    SequenceNumber seq_ = 0;
    MemTable* mem_ = nullptr;
    MemTable* imm_ = nullptr;
    const Version* version_ = nullptr;
  };

  /// A pinned, immutable view of the DB for one read: sources + sequence
  /// bound. Produced by PinView, released by UnpinView.
  struct ReadView {
    MemTable* mem = nullptr;
    MemTable* imm = nullptr;
    const Version* version = nullptr;
    SequenceNumber seq = 0;
  };

  bool background_mode() const {
    return options_.concurrency == ConcurrencyMode::kBackground;
  }

  /// True when the write path should produce model deltas: maintained
  /// policy AND a configuration whose read path can consult level models
  /// (kLevel granularity). Other combinations would build artifacts nobody
  /// reads.
  bool maintained_models() const {
    return options_.level_model_policy ==
               LevelModelPolicy::kCompactionMaintained &&
           level_models();
  }

  /// True when lookups below L0 consult level models (kLevel granularity).
  bool level_models() const {
    return options_.index_granularity == IndexGranularity::kLevel;
  }

  ReadView PinView(const Snapshot* snapshot) {
    ReadView view;
    if (snapshot != nullptr) {
      // The handle must stay unreleased for this call (db.h contract);
      // the view still takes refs OF ITS OWN because UnpinView releases
      // them and an iterator's view may legitimately outlive the handle
      // (NewIterator(snap), then ReleaseSnapshot, then keep iterating).
      const auto* snap = static_cast<const SnapshotImpl*>(snapshot);
      view.mem = snap->mem_;
      view.imm = snap->imm_;
      view.version = snap->version_;
      view.seq = snap->seq_;
      view.mem->Ref();
      if (view.imm != nullptr) view.imm->Ref();
      view.version->Ref();
      return view;
    }
    MutexLock lock(&mutex_);
    view.mem = mem_;
    view.imm = imm_;
    view.version = versions_->PinCurrent();
    view.seq = versions_->last_sequence();
    view.mem->Ref();
    if (view.imm != nullptr) view.imm->Ref();
    return view;
  }

  void UnpinView(const ReadView& view) {
    view.mem->Unref();
    if (view.imm != nullptr) view.imm->Unref();
    view.version->Unref();
  }

  /// Takes an extra reference on every source of `view` (for handing a
  /// view to a second owner, e.g. a verification iterator).
  static void RefView(const ReadView& view) {
    view.mem->Ref();
    if (view.imm != nullptr) view.imm->Ref();
    view.version->Ref();
  }

  /// The sink one Get or MultiGet records to: ReadOptions::stats, timing
  /// every operation, when set; otherwise the DB-wide sink, which times a
  /// sampled one operation in kTimerSampleRate and counts the rest.
  OpStats ReadSink(const ReadOptions& ropts) const {
    return ropts.stats != nullptr ? OpStats(ropts.stats) : stats_.SampleOp();
  }

  const Version* PinCurrentVersion() const {
    MutexLock lock(&mutex_);
    return versions_->PinCurrent();
  }

  /// Builds a user iterator over `view`, taking ownership of the view's
  /// references: the iterator's cleanup unpins them (on failure they are
  /// unpinned before the error iterator is returned). `fill_cache` gates
  /// whether the table iterators' block fetches populate the block cache.
  std::unique_ptr<Iterator> NewIteratorOverView(ReadView view,
                                                bool fill_cache) {
    std::vector<std::unique_ptr<TableIterator>> children;
    // shared_ptr: the cleanup closure and this scope both reference it.
    auto readers =
        std::make_shared<std::vector<std::shared_ptr<TableReader>>>();
    children.push_back(view.mem->NewIterator());
    if (view.imm != nullptr) {
      children.push_back(view.imm->NewIterator());
    }
    Status s;
    for (int level = 0; level < kNumLevels && s.ok(); level++) {
      for (const FileMeta& meta : view.version->files(level)) {
        std::shared_ptr<TableReader> reader;
        s = table_cache_->GetReader(meta.number, &reader);
        if (!s.ok()) break;
        readers->push_back(reader);
        children.push_back(reader->NewIterator(fill_cache));
      }
    }
    if (!s.ok()) {
      // Surface the failure through an invalid iterator carrying status
      // (RangeLookup and callers check status(), not just Valid()).
      children.clear();
      UnpinView(view);
      return std::make_unique<ErrorIterator>(std::move(s));
    }
    auto cleanup = [this, view, readers]() {
      readers->clear();
      UnpinView(view);
    };
    return NewDBIterator(NewMergingIterator(std::move(children)), view.seq,
                         std::move(cleanup));
  }

  /// ReadOptions::verify_found support: replays one key's lookup through
  /// `ref` (a merging-iterator view of the same pinned state — the
  /// learned-index-free reference path) and compares it with the result
  /// the point-lookup path produced. Environmental errors in the original
  /// result are not verifiable and pass through.
  Status VerifyWithIterator(Iterator* ref, Key key, const Status& got,
                            const std::string& value) {
    if (!got.ok() && !got.IsNotFound()) return Status::OK();
    ref->Seek(key);
    if (!ref->status().ok()) return ref->status();
    const bool ref_found = ref->Valid() && ref->key() == key;
    if (got.ok() != ref_found) {
      return Status::Corruption("verify_found",
                                got.ok() ? "lookup hit a key the reference "
                                           "scan cannot see"
                                         : "lookup missed a key the "
                                           "reference scan sees");
    }
    if (ref_found && ref->value() != Slice(value)) {
      return Status::Corruption("verify_found", "value mismatch");
    }
    return Status::OK();
  }

  /// Per-thread buffers of the lookup core, reused by every Get and
  /// MultiGet on the thread, so a warm one-key lookup allocates nothing.
  /// They hold no TableReader reference, and between calls at most a
  /// batch of kRetainedBatch keys' worth of memory (the server clients'
  /// default batch; freeing the buffers after every call fragments the
  /// heap around block-cache inserts).
  static constexpr size_t kRetainedBatch = 256;
  struct LookupScratch {
    /// One run of a level's plan: ascending keys bound for one table.
    struct Run {
      size_t file = 0;            // index into the level's file list
      size_t begin = 0, end = 0;  // [begin, end) of the flat arrays
    };

    std::vector<uint32_t> order;
    std::vector<uint8_t> done;
    std::vector<Run> runs;
    PendingMultiGet pending;  // the inline plan, reused run after run
    std::vector<uint32_t> run_idx;
    std::vector<Key> run_keys;
    std::vector<size_t> run_lo, run_hi;
    std::vector<std::string> run_values;  // hits swap buffers with outputs
    std::vector<uint64_t> run_tags;
    std::unique_ptr<bool[]> run_found;
    size_t run_found_size = 0;

    /// Sizes the per-key run arrays for `total` keys.
    void Reserve(size_t total, bool bounds) {
      if (run_values.size() < total) run_values.resize(total);
      if (run_tags.size() < total) run_tags.resize(total);
      if (bounds && run_lo.size() < total) {
        run_lo.resize(total);
        run_hi.resize(total);
      }
      if (run_found_size < total) {
        run_found.reset(new bool[total]);
        run_found_size = total;
      }
    }
  };

  static LookupScratch& ThreadLookupScratch() {
    thread_local LookupScratch scratch;
    return scratch;
  }

  /// The lookup core behind Get (one key) and MultiGet: serves keys[]
  /// against one pinned view into values[i]/statuses[i], whose statuses
  /// start as NotFound. Sorts the keys, drains memtable hits, then for
  /// every level groups the remaining keys into per-table runs so each
  /// table's bloom filter, learned index and fetched spans are consulted
  /// per run. Under kLevel granularity the level model is resolved once
  /// per level and its per-key predictions are handed to the reader as
  /// bounds. A level with io_depth > 1 and at least two runs registers
  /// their reads on one batch, so they overlap; any other plan reads
  /// inline. An environmental failure aborts: every key not yet served
  /// carries it, and it is returned.
  Status MultiGetFromView(const ReadView& view, std::span<const Key> keys,
                          std::string* values, Status* statuses, OpStats sink,
                          bool fill_cache) {
    LookupScratch& scratch = ThreadLookupScratch();
    const size_t n = keys.size();
    // On every exit after a larger batch, drop the buffers it grew.
    struct Shrink {
      LookupScratch* scratch;
      ~Shrink() {
        if (scratch != nullptr) *scratch = LookupScratch();
      }
    } shrink{n > kRetainedBatch ? &scratch : nullptr};
    std::vector<uint32_t>& order = scratch.order;
    order.resize(n);
    for (uint32_t i = 0; i < n; i++) order[i] = i;
    if (n > 1) {
      // Ties by position: stable_sort's order, without the buffer it
      // allocates.
      std::sort(order.begin(), order.end(), [&keys](uint32_t a, uint32_t b) {
        return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
      });
    }

    std::vector<uint8_t>& done = scratch.done;
    done.assign(n, 0);
    size_t remaining = n;
    // Keys never served must not read as NotFound (db.h contract) — they
    // carry the error.
    auto abort_with = [&](const Status& s) {
      for (uint32_t i = 0; i < n; i++) {
        if (!done[i]) statuses[i] = s;
      }
      return s;
    };
    auto resolve = [&](uint32_t idx, bool deleted) {
      statuses[idx] = deleted ? Status::NotFound("deleted") : Status::OK();
      if (deleted) values[idx].clear();
      done[idx] = 1;
      remaining--;
    };

    {
      ScopedTimer timer(sink, Timer::kMemtableGet, env_);
      for (uint32_t idx : order) {
        const Key key = keys[idx];
        ValueType type;
        std::string* out = &values[idx];
        if (view.mem->Get(key, view.seq, out, &type) ||
            (view.imm != nullptr &&
             view.imm->Get(key, view.seq, out, &type))) {
          resolve(idx, type != kTypeValue);
        }
      }
    }

    std::vector<LookupScratch::Run>& runs = scratch.runs;
    std::vector<uint32_t>& run_idx = scratch.run_idx;
    std::vector<Key>& run_keys = scratch.run_keys;
    auto clear_plan = [&]() {
      runs.clear();
      run_idx.clear();
      run_keys.clear();
    };
    /// Appends key `idx` to the plan, opening a run when `file` changes.
    auto add_key = [&](uint32_t idx, size_t file) {
      if (runs.empty() || runs.back().file != file) {
        runs.push_back({file, run_keys.size(), run_keys.size()});
      }
      runs.back().end++;
      run_idx.push_back(idx);
      run_keys.push_back(keys[idx]);
    };
    /// Serves the planned runs against `files` and resolves their hits.
    /// Inline, each run is prepared and finished on the one reused plan.
    /// With a read batch every run is prepared on its own plan, the batch
    /// is Waited once, then every run is finished; those plans free their
    /// buffers after, as that path waits on the device anyway. `model`
    /// (may be null) supplies each run's level-model windows; a run with
    /// any key the model cannot place falls back to the per-file index.
    auto serve_runs = [&](const std::vector<FileMeta>& files,
                          const LevelModel* model) -> Status {
      const size_t total = run_keys.size();
      scratch.Reserve(total, model != nullptr);
      bool* found = scratch.run_found.get();
      struct BatchedRun {
        std::shared_ptr<TableReader> reader;
        PendingMultiGet pending;
      };
      std::vector<BatchedRun> batched;
      std::unique_ptr<ReadBatch> batch;
      if (options_.io_depth > 1 && runs.size() > 1) {
        batch = env_->NewReadBatch(options_.io_depth);
        batched.resize(runs.size());
      }
      auto finish = [&](TableReader* reader, PendingMultiGet* pending,
                        const LookupScratch::Run& run) {
        return reader->FinishMultiGet(pending, &scratch.run_values[run.begin],
                                      &scratch.run_tags[run.begin],
                                      &found[run.begin], sink);
      };
      for (size_t r = 0; r < runs.size(); r++) {
        const LookupScratch::Run& run = runs[r];
        bool bounds = model != nullptr;
        for (size_t k = run.begin; k < run.end && bounds; k++) {
          bounds = ModelCatalog::PredictInFile(*model, run_keys[k], run.file,
                                               &scratch.run_lo[k],
                                               &scratch.run_hi[k]);
        }
        sink.Add(Counter::kTablesConsulted);
        std::shared_ptr<TableReader> reader;
        Status s = table_cache_->GetReader(files[run.file].number, &reader);
        if (!s.ok()) return s;
        PendingMultiGet* pending =
            batch != nullptr ? &batched[r].pending : &scratch.pending;
        s = reader->PrepareMultiGet(
            std::span<const Key>(run_keys.data() + run.begin,
                                 run.end - run.begin),
            bounds ? scratch.run_lo.data() + run.begin : nullptr,
            bounds ? scratch.run_hi.data() + run.begin : nullptr, batch.get(),
            pending, sink, fill_cache);
        if (!s.ok()) return s;
        if (batch != nullptr) {
          batched[r].reader = std::move(reader);
          continue;
        }
        s = finish(reader.get(), pending, run);
        if (!s.ok()) return s;
      }
      if (batch != nullptr) {
        Status ws;
        {
          ScopedTimer reap_timer(sink, Timer::kAsyncReap, env_);
          ws = batch->Wait();
        }
        sink.Add(Counter::kAsyncBatches);
        if (!ws.ok()) return ws;
        for (size_t r = 0; r < runs.size(); r++) {
          Status s = finish(batched[r].reader.get(), &batched[r].pending,
                            runs[r]);
          if (!s.ok()) return s;
        }
      }
      for (size_t k = 0; k < total; k++) {
        if (!found[k]) continue;
        values[run_idx[k]].swap(scratch.run_values[k]);
        resolve(run_idx[k], TagType(scratch.run_tags[k]) != kTypeValue);
      }
      return Status::OK();
    };

    const Version& v = *view.version;
    // Level 0: files may overlap, so serve newest-first; each file gets
    // the (still ascending) subset of unresolved keys in its range, and
    // must finish before the next file is planned — hence one run each.
    const std::vector<FileMeta>& l0 = v.files(0);
    uint64_t l0_start = 0;
    bool consulted = false;  // a level's read span opens at its first run
    for (size_t f = 0; f < l0.size() && remaining > 0; f++) {
      clear_plan();
      for (uint32_t idx : order) {
        if (done[idx]) continue;
        const Key key = keys[idx];
        if (key > l0[f].largest) break;  // ascending: the rest is past it
        if (key < l0[f].smallest) continue;
        add_key(idx, f);
      }
      if (runs.empty()) continue;
      if (!consulted) {
        consulted = true;
        l0_start = sink.Start(env_);
      }
      Status s = serve_runs(l0, /*model=*/nullptr);
      if (!s.ok()) return abort_with(s);
    }
    if (consulted) sink.StopLevelRead(0, env_, l0_start);

    for (int level = 1; level < kNumLevels && remaining > 0; level++) {
      const std::vector<FileMeta>& files = v.files(level);
      if (files.empty()) continue;

      // Walk files and sorted keys in lockstep, cutting a run at every
      // file change; each key's file search resumes at the previous
      // key's file. The I/O happens after, outside the kTableLookup timer.
      clear_plan();
      const uint64_t plan_start = sink.Start(env_);
      size_t from = 0;
      for (uint32_t idx : order) {
        if (done[idx]) continue;
        const int file = v.FindFile(level, keys[idx], from);
        if (file < 0) continue;
        from = static_cast<size_t>(file);
        add_key(idx, from);
      }
      const uint64_t plan_nanos =
          sink.Stop(Timer::kTableLookup, env_, plan_start);
      if (runs.empty()) continue;
      // Only a covered level records a read. Its span opens here,
      // back-dated by the planning time just measured: it still covers
      // the search, and every span costs exactly two clock reads.
      const uint64_t level_start = sink.Start(env_) - plan_nanos;

      // Resolve the level model once for the whole plan. `v` is the
      // caller's pinned version and models are attached to it, so the
      // model always matches the file list being searched. Under
      // kCompactionMaintained the slot was filled at install time and
      // GetOrBuild returns it from its fast path; a missing model (lazy
      // policy, or a degraded/skipped write-path build) is trained here —
      // first reader wins, the rest fall back to the per-file index.
      LevelModelRef model;
      if (level_models()) {
        model = model_catalog_->GetOrBuild(v, level, table_cache_.get(),
                                           options_.index_type,
                                           options_.index_config);
      }
      Status s = serve_runs(files, model.get());
      if (!s.ok()) return abort_with(s);
      sink.StopLevelRead(level, env_, level_start);
    }
    return Status::OK();
  }

  TableOptions MakeTableOptions() const {
    TableOptions topts;
    topts.env = env_;
    topts.stats = const_cast<Stats*>(&stats_);
    topts.key_size = options_.key_size;
    topts.value_size = options_.value_size;
    topts.bloom_bits_per_key = options_.bloom_bits_per_key;
    topts.index_type = options_.index_type;
    topts.index_config = options_.index_config;
    topts.index_config.stored_key_bytes = options_.key_size;
    topts.block_cache = block_cache_;
    return topts;
  }

  // ---- write path (REQUIRES mutex_) ----

  /// One queued Write call (or a batchless barrier). Lives on its owning
  /// thread's stack; linked into writers_ under mutex_ and woken through
  /// its own condition variable so a group wake-up costs one notify per
  /// member instead of a thundering herd on bg_cv_.
  struct Writer {
    explicit Writer(Mutex* mu) : cv(mu) {}

    WriteBatch* batch = nullptr;  // null marks a barrier (no payload)
    bool sync = false;
    bool disable_wal = false;
    bool done = false;
    Status status;
    CondVar cv;  // waits under the DB mutex the Writer queues behind
  };

  /// REQUIRES mutex_ and writers_.front() owned by the caller (the
  /// leader). Commits the group BuildBatchGroup forms behind the leader:
  /// sequences are assigned under the mutex, then one WAL append (and at
  /// most one fsync) and the memtable insert run with the mutex RELEASED.
  /// Sets *last_writer to the last member served.
  Status CommitGroup(Writer** last_writer) REQUIRES(mutex_) {
    const bool disable_wal = writers_.front()->disable_wal;
    bool group_sync = false;
    size_t group_writers = 0;
    WriteBatch* updates =
        BuildBatchGroup(last_writer, &group_sync, &group_writers);
    const SequenceNumber seq = versions_->last_sequence() + 1;
    WriteBatch::SetSequence(updates, seq);
    const uint32_t count = updates->Count();

    // Snapshot the guarded pointers the off-mutex section touches: the
    // queue-front token (not the mutex) is what makes the WAL and the
    // memtable single-writer here, and locals make that explicit to the
    // thread-safety analysis.
    LogWriter* const wal = wal_.get();
    MemTable* const mem = mem_;
    mutex_.Unlock();
    Status s;
    if (!disable_wal) {
      s = wal->AddRecord(updates->Contents());
      if (s.ok()) {
        // The group's sync bit is the OR of its members: a sync=true
        // follower joining a sync=false leader still gets its fsync
        // before any member's status is returned.
        s = group_sync ? wal->Sync() : wal->Flush();
      }
    }
    if (s.ok()) s = updates->InsertInto(mem, seq);
    mutex_.Lock();

    if (s.ok()) {
      versions_->SetLastSequence(seq + count - 1);
      stats_.Add(Counter::kWrites, count);
      stats_.Add(Counter::kGroupCommits);
      stats_.Add(Counter::kGroupCommitBatchSize, group_writers);
    }
    if (updates == &tmp_batch_) tmp_batch_.Clear();
    return s;
  }

  /// REQUIRES mutex_ and writers_.front() owned by the caller. Coalesces
  /// the longest serveable queue prefix into one batch: stops at a
  /// barrier, at a writer whose disable_wal differs from the leader's
  /// (its record must (not) reach the WAL), and at LevelDB's size caps
  /// (1 MiB, or leader size + 128 KiB for small leaders, keeping a tiny
  /// write's latency from inheriting a bulk group). Returns the leader's
  /// own batch for a group of one, tmp_batch_ otherwise.
  WriteBatch* BuildBatchGroup(Writer** last_writer, bool* group_sync,
                              size_t* group_writers) REQUIRES(mutex_) {
    Writer* leader = writers_.front();
    *group_sync = leader->sync;
    *group_writers = 1;
    size_t size = leader->batch->ApproximateSize();
    size_t max_size = 1 << 20;
    if (size <= (128 << 10)) max_size = size + (128 << 10);

    WriteBatch* result = leader->batch;
    *last_writer = leader;
    auto it = writers_.begin();
    for (++it; it != writers_.end(); ++it) {
      Writer* follower = *it;
      if (follower->batch == nullptr) break;  // barrier: flush/compact
      if (follower->disable_wal != leader->disable_wal) break;
      const size_t follower_size = follower->batch->ApproximateSize();
      if (size + follower_size > max_size) break;
      *group_sync = *group_sync || follower->sync;
      if (result == leader->batch) {
        tmp_batch_.Clear();
        WriteBatch::Append(&tmp_batch_, *leader->batch);
        result = &tmp_batch_;
      }
      WriteBatch::Append(result, *follower->batch);
      size += follower_size;
      *last_writer = follower;
      (*group_writers)++;
    }
    return result;
  }

  /// Parks `w` as a barrier at the writer-queue front: once acquired, no
  /// group leader is off-mutex and none can start, so the caller may
  /// switch the memtable or roll the WAL.
  void AcquireWriteQueue(Writer* w) REQUIRES(mutex_) {
    w->batch = nullptr;
    writers_.push_back(w);
    while (w != writers_.front()) {
      w->cv.Wait();
    }
  }

  /// Releases a barrier taken by AcquireWriteQueue and wakes the next
  /// queued writer. REQUIRES mutex_.
  void ReleaseWriteQueue(Writer* w) REQUIRES(mutex_) {
    LILSM_ASSERT(!writers_.empty() && writers_.front() == w);
    (void)w;
    writers_.pop_front();
    if (!writers_.empty()) writers_.front()->cv.Signal();
  }

  /// Blocks or delays the writer per the LevelDB triggers until the active
  /// memtable has room, switching it out to imm_ when full.
  Status MakeRoomForWrite() REQUIRES(mutex_) {
    bool allow_delay = true;
    while (true) {
      if (!bg_error_.ok()) return bg_error_;
      if (allow_delay &&
          versions_->current().NumFiles(0) >= options_.l0_slowdown_trigger) {
        // Soft limit: cede ~1ms to the background jobs once per write,
        // smearing the stall over many writes instead of one big pause.
        // Offer the work first: nothing else may have scheduled it (an L0
        // recovered past its trigger waits for no memtable switch).
        MaybeScheduleBackgroundWork();
        mutex_.Unlock();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        stats_.Add(Counter::kWriteSlowdowns);
        allow_delay = false;
        mutex_.Lock();
      } else if (mem_->ApproximateMemoryUsage() <
                 options_.write_buffer_size) {
        return Status::OK();
      } else if (imm_ != nullptr) {
        // Previous flush still in flight: hard stall.
        stats_.Add(Counter::kWriteStalls);
        MaybeScheduleBackgroundWork();  // defensive: never wait unserved
        bg_cv_.Wait();
      } else if (versions_->current().NumFiles(0) >=
                 options_.l0_stop_trigger) {
        stats_.Add(Counter::kWriteStalls);
        MaybeScheduleBackgroundWork();
        bg_cv_.Wait();
      } else {
        Status s = SwitchMemTable();
        if (!s.ok()) return s;
        MaybeScheduleBackgroundWork();
      }
    }
  }

  /// SwitchMemTable for callers outside the write path: the switch must
  /// not race an off-mutex group leader, so it runs behind a barrier at
  /// the writer-queue front. The flush and any settling after it touch
  /// only imm_ and the version tree, so writers resume as soon as the
  /// switch lands.
  Status SwitchMemTableAtBarrier() REQUIRES(mutex_) {
    Writer barrier(&mutex_);
    AcquireWriteQueue(&barrier);
    Status s = SwitchMemTable();
    ReleaseWriteQueue(&barrier);
    return s;
  }

  /// Rolls the WAL and retires the active memtable to imm_ for a flush
  /// job; the caller then offers that job to the executor. Waits first if
  /// a previous imm_ is still flushing. No-op on an empty memtable.
  Status SwitchMemTable() REQUIRES(mutex_) {
    while (imm_ != nullptr && bg_error_.ok()) {
      bg_cv_.Wait();
    }
    if (!bg_error_.ok()) return bg_error_;
    if (mem_->empty()) return Status::OK();
    Status s = RollWal();
    if (!s.ok()) return s;
    imm_ = mem_;
    mem_ = new MemTable();
    mem_->Ref();
    return Status::OK();
  }

  // ---- job scheduling (REQUIRES mutex_) ----

  /// One claimed unit of maintenance: the imm_ flush, or a compaction.
  struct Job {
    bool flush = false;
    VersionSet::CompactionPick pick;  // compaction only
  };

  /// The one way a flush or compaction starts: hands claimable work to
  /// the mode's executor. kBackground submits one closure to the DB pool
  /// when a job slot is free; work is CLAIMED when the closure runs, not
  /// here, so it may find nothing left (another job took it) and just
  /// retire. A running closure calls this again right after claiming, so
  /// siblings spin up while work remains, one speculative closure at a
  /// time. kInline runs every claimable job on the calling thread before
  /// returning.
  void MaybeScheduleBackgroundWork() REQUIRES(mutex_) {
    if (!bg_error_.ok() || shutting_down_.load(std::memory_order_acquire)) {
      return;
    }
    if (!background_mode()) {
      RunInlineJobs();
      return;
    }
    if (bg_jobs_ >= options_.max_background_jobs) return;
    if (!HasClaimableWork()) return;
    bg_jobs_++;
    bg_pool_->Submit([this] { BackgroundCall(); });
  }

  /// True when a flush or compaction could be claimed right now, given
  /// the claims running jobs already hold.
  bool HasClaimableWork() const REQUIRES(mutex_) {
    if (imm_ != nullptr && !bg_flush_active_) return true;
    bool allowed[kNumLevels];
    ComputeAllowedLevels(allowed);
    return versions_->NeedsCompaction(options_.l0_compaction_trigger,
                                      options_.write_buffer_size,
                                      options_.size_ratio, allowed);
  }

  /// Level L may start a compaction only when no running job occupies L
  /// or L+1 (a job at L writes into L+1; two jobs sharing a level would
  /// race over the same input files).
  void ComputeAllowedLevels(bool allowed[kNumLevels]) const
      REQUIRES(mutex_) {
    for (int level = 0; level < kNumLevels; level++) {
      allowed[level] =
          !level_busy_[level] &&
          (level + 1 >= kNumLevels || !level_busy_[level + 1]);
    }
  }

  /// Claims the next job, flush first: the flush slot when imm_ is
  /// unowned, else the best-scoring compaction whose level pair no
  /// running job occupies. False when nothing is claimable.
  bool ClaimJob(Job* job) REQUIRES(mutex_) {
    job->flush = imm_ != nullptr && !bg_flush_active_;
    if (job->flush) {
      bg_flush_active_ = true;
      return true;
    }
    bool allowed[kNumLevels];
    ComputeAllowedLevels(allowed);
    if (!versions_->PickCompaction(options_.l0_compaction_trigger,
                                   options_.write_buffer_size,
                                   options_.size_ratio, &job->pick,
                                   allowed)) {
      return false;
    }
    level_busy_[job->pick.level] = true;
    level_busy_[job->pick.level + 1] = true;
    return true;
  }

  /// Runs a claimed job, releases its claim, and parks the engine on
  /// failure (writes surface bg_error_). A shutdown abort is expected and
  /// must not poison the DB.
  void RunJob(const Job& job) REQUIRES(mutex_) {
    Status s;
    if (job.flush) {
      s = CompactImmMemTable();
      bg_flush_active_ = false;
    } else {
      s = RunCompaction(job.pick);
      level_busy_[job.pick.level] = false;
      level_busy_[job.pick.level + 1] = false;
    }
    if (!s.ok() && !shutting_down_.load(std::memory_order_acquire)) {
      bg_error_ = s;
    }
  }

  /// kBackground's executor: one pool closure, at most one job.
  void BackgroundCall() {
    MutexLock lock(&mutex_);
    Job job;
    if (!shutting_down_.load(std::memory_order_acquire) && bg_error_.ok() &&
        ClaimJob(&job)) {
      ScopedTimer timer(&stats_, Timer::kBackgroundWork, env_);
      MaybeScheduleBackgroundWork();  // siblings for remaining work
      RunJob(job);
    }
    bg_jobs_--;
    MaybeScheduleBackgroundWork();
    bg_cv_.SignalAll();
  }

  /// kInline's executor: claims and runs jobs, in claim order, on the
  /// calling thread until nothing is claimable. Work claimed by another
  /// thread's executor is left to that thread.
  void RunInlineJobs() REQUIRES(mutex_) {
    bg_jobs_++;
    Job job;
    while (bg_error_.ok() && ClaimJob(&job)) {
      RunJob(job);
    }
    bg_jobs_--;
    bg_cv_.SignalAll();
  }

  /// Flushes imm_ into an L0 table off-lock, then installs it.
  Status CompactImmMemTable() REQUIRES(mutex_) {
    LILSM_ASSERT(imm_ != nullptr);
    MemTable* imm = imm_;
    // Writes since the switch land in wal_number_; earlier logs die with
    // this flush. Stable while imm_ is set: no switch can intervene.
    const uint64_t log_number = wal_number_;
    const uint64_t fence = RegisterGcFence();
    mutex_.Unlock();
    FileMeta meta;
    Status s = BuildLevel0Table(*imm, &meta);
    mutex_.Lock();
    ReleaseGcFence(fence);
    if (!s.ok()) return s;

    VersionEdit edit;
    if (meta.entries > 0) edit.AddFile(0, meta);
    edit.SetLogNumber(log_number);
    s = InstallEdit(&edit);
    if (!s.ok()) return s;
    imm_->Unref();
    imm_ = nullptr;
    bg_cv_.SignalAll();
    return RemoveObsoleteFiles();
  }

  /// Keeps the executor busy until the tree settles: no job running and
  /// none claimable (no flush pending, every level within capacity).
  Status CompactUntilStableLocked() REQUIRES(mutex_) {
    while (true) {
      MaybeScheduleBackgroundWork();
      if (!bg_error_.ok()) return bg_error_;
      // No job running after the offer: nothing was claimable with no
      // claim held (settled), or the executor refused (shutting down).
      if (bg_jobs_ == 0) return Status::OK();
      bg_cv_.Wait();
    }
  }

  // ---- maintenance helpers ----

  /// REQUIRES mutex_. Installs `edit`, under kCompactionMaintained
  /// first producing the model delta for every level >= 1 whose file list
  /// the edit changes — stitched against the current version's models, so
  /// the successor version is born with consistent models and readers
  /// never pay a build.
  Status InstallEdit(VersionEdit* edit) REQUIRES(mutex_) {
    if (!edit->new_files_.empty()) {
      // The new tables' directory entries must be durable before the
      // manifest references them: a crash after the (synced) manifest
      // write but before a directory sync would otherwise recover a
      // version pointing at unlinked files.
      Status s = env_->SyncDir(dbname_);
      if (!s.ok()) return s;
    }
    if (!maintained_models()) return versions_->LogAndApply(edit);
    ModelDelta delta;
    PrepareModelDelta(*edit, &delta);
    Status s = versions_->LogAndApply(edit, &delta);
    if (!s.ok()) return s;
    model_catalog_->Prune(versions_->current());
    return s;
  }

  /// REQUIRES mutex_. Stitch/retrain models for the edit-touched levels.
  /// Models are read accelerators: a level whose build fails (or whose
  /// index type cannot stitch — write-path retrains under the mutex
  /// would be strictly worse than lazy) is installed with an empty slot,
  /// which the read path fills lazily or serves per-file. The install
  /// itself must never fail on model work.
  void PrepareModelDelta(const VersionEdit& edit, ModelDelta* delta)
      REQUIRES(mutex_) {
    for (const auto& [level, meta] : edit.new_files_) {
      (void)meta;
      delta->touched[level] = true;
    }
    for (const auto& [level, number] : edit.deleted_files_) {
      (void)number;
      delta->touched[level] = true;
    }
    if (!ModelCatalog::CanStitch(options_.index_type)) return;
    const Version& base = versions_->current();
    for (int level = 1; level < kNumLevels; level++) {
      if (!delta->touched[level]) continue;
      const std::vector<FileMeta> files = FilesAfterEdit(base, edit, level);
      if (files.empty()) continue;  // level emptied: slot stays null
      // Try-lock: this runs under the DB mutex and must not wait out a
      // reader's in-flight lazy build; a missed prev only resets the
      // blow-up baseline.
      const LevelModelRef prev = base.models()->Get(level);
      // kDefer: a failed stitch (blow-up, stale-blob export) must not
      // scan the level here under mutex_; the slot stays empty and the
      // read path's lazy build performs the retrain off-mutex.
      model_catalog_->BuildForInstall(
          files, table_cache_.get(), options_.index_type,
          options_.index_config, prev.get(), &delta->models[level],
          ModelCatalog::StitchFallback::kDefer);
    }
  }

  /// REQUIRES mutex_ and a quiescent engine (Open, reconfiguration).
  /// Fills the current version's model slots for every populated level.
  /// Best-effort, like PrepareModelDelta: a level that fails to build is
  /// left empty for the read path.
  void PrefillLevelModelsLocked() REQUIRES(mutex_) {
    if (!ModelCatalog::CanStitch(options_.index_type)) return;
    ScopedTimer load_timer(&stats_, Timer::kModelLoad, env_);
    const Version& v = versions_->current();
    for (int level = 1; level < kNumLevels; level++) {
      if (v.files(level).empty()) continue;
      LevelModelRef model;
      Status s = model_catalog_->BuildForInstall(
          v.files(level), table_cache_.get(), options_.index_type,
          options_.index_config, nullptr, &model);
      if (s.ok()) v.models()->Publish(level, std::move(model));
    }
  }

  Status RollWal() REQUIRES(mutex_) {
    const uint64_t number = versions_->NewFileNumber();
    std::unique_ptr<WritableFile> file;
    Status s = env_->NewWritableFile(WalFileName(dbname_, number), &file);
    if (!s.ok()) return s;
    if (wal_ != nullptr) {
      wal_->Sync();
      wal_->Close();
    }
    wal_ = std::make_unique<LogWriter>(std::move(file));
    wal_number_ = number;
    // The new log's directory entry must be as durable as the records
    // synced into it, or a crash loses acked writes with the file.
    return env_->SyncDir(dbname_);
  }

  Status ReplayWals() REQUIRES(mutex_) {
    std::vector<std::string> children;
    Status s = env_->GetChildren(dbname_, &children);
    if (!s.ok()) return s;
    std::vector<uint64_t> wals;
    for (const std::string& name : children) {
      uint64_t number = 0;
      if (ParseFileName(name, &number) == FileKind::kWalFile &&
          number >= versions_->log_number()) {
        wals.push_back(number);
      }
    }
    std::sort(wals.begin(), wals.end());
    // One record buffer and one batch serve every record of every log.
    std::string record;
    WriteBatch batch;
    for (uint64_t number : wals) {
      std::unique_ptr<SequentialFile> file;
      s = env_->NewSequentialFile(WalFileName(dbname_, number), &file);
      if (!s.ok()) return s;
      LogReader reader(std::move(file));
      while (reader.ReadRecord(&record)) {
        s = WriteBatch::SetContents(&batch, record);
        if (!s.ok()) return s;
        const SequenceNumber seq = WriteBatch::Sequence(batch);
        s = batch.InsertInto(mem_, seq);
        if (!s.ok()) return s;
        const SequenceNumber last = seq + batch.Count() - 1;
        if (last > versions_->last_sequence()) {
          versions_->SetLastSequence(last);
        }
        stats_.Add(Counter::kWalRecordsReplayed);
      }
      if (reader.result() == LogReadStatus::kCorruption) {
        // Damage with intact records after it is real corruption, not a
        // crash artifact — silently dropping the tail would lose acked
        // (possibly synced) writes.
        return Status::Corruption(WalFileName(dbname_, number),
                                  "corrupt record mid-log");
      }
      versions_->MarkFileNumberUsed(number);
      // A torn tail (kTornTail) is the expected shape of a crash mid-
      // append; replay treats it as a clean end of this log.
    }
    return Status::OK();
  }

  /// Builds a level-0 table from `mem` (newest version per key wins;
  /// tombstones are preserved). Needs no lock: the memtable is frozen (or
  /// the caller is the only writer) and file-number allocation is atomic.
  Status BuildLevel0Table(const MemTable& mem, FileMeta* meta) {
    ScopedTimer total_timer(&stats_, Timer::kCompactTotal, env_);
    stats_.Add(Counter::kFlushes);

    const uint64_t number = versions_->NewFileNumber();
    std::unique_ptr<TableBuilder> builder;
    Status s = TableBuilder::Open(table_cache_->options(),
                                  TableFileName(dbname_, number), &builder);
    if (!s.ok()) return s;

    meta->number = number;
    bool first = true;
    bool has_key = false;
    Key last_key = 0;
    auto iter = mem.NewIterator();
    {
      const uint64_t kv_start = env_->NowNanos();
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        const Key key = iter->key();
        if (has_key && key == last_key) continue;  // older version
        has_key = true;
        last_key = key;
        s = builder->Add(key, iter->tag(), iter->value());
        if (!s.ok()) {
          builder->Abandon();
          return s;
        }
        if (first) {
          meta->smallest = key;
          first = false;
        }
        meta->largest = key;
      }
      stats_.AddTime(Timer::kCompactKvIo, env_->NowNanos() - kv_start);
    }

    meta->entries = builder->NumEntries();
    s = builder->Finish();
    if (!s.ok()) return s;
    meta->file_size = builder->FileSize();
    return Status::OK();
  }

  /// Runs one compaction job. REQUIRES mutex_; drops it during the merge
  /// (the job only reads the pinned base version and immutable inputs).
  Status RunCompaction(const VersionSet::CompactionPick& pick)
      REQUIRES(mutex_) {
    CompactionContext ctx;
    ctx.env = env_;
    ctx.stats = &stats_;
    ctx.table_cache = table_cache_.get();
    ctx.versions = versions_.get();
    ctx.dbname = dbname_;
    ctx.sstable_target_size = options_.sstable_target_size;
    ctx.shutdown = &shutting_down_;
    ctx.subcompaction_pool = bg_pool_.get();
    ctx.max_subcompactions = options_.max_subcompactions;

    const Version* base = versions_->PinCurrent();
    CompactionJob job(ctx);
    VersionEdit edit;
    const uint64_t fence = RegisterGcFence();
    mutex_.Unlock();
    Status s = job.Run(pick, *base, &edit);
    if (s.ok() && maintained_models() &&
        ModelCatalog::CanStitch(options_.index_type)) {
      // Still off-lock: open the fresh outputs' readers and cache their
      // segments now, so InstallEdit's mutex-held stitch below touches
      // only in-memory state (the outputs are not in the table cache
      // yet — FinishOutput only wrote them).
      for (const auto& [level, meta] : edit.new_files_) {
        if (level >= 1) {
          model_catalog_->WarmFileSegments(meta, table_cache_.get());
        }
      }
    }
    mutex_.Lock();
    ReleaseGcFence(fence);
    base->Unref();
    if (!s.ok()) {
      // The edit was never logged, so its finished outputs are provably
      // orphans: remove them now.
      for (const auto& [level, meta] : edit.new_files_) {
        (void)level;
        table_cache_->Evict(meta.number);
        env_->RemoveFile(TableFileName(dbname_, meta.number));
      }
      return s;
    }
    // InstallEdit stitches the touched levels' models from the outputs'
    // in-memory per-file indexes before the install (under mutex_, but
    // zero disk I/O on the stitch path).
    s = InstallEdit(&edit);
    if (!s.ok()) {
      // Deliberately do NOT remove the outputs here: a manifest append
      // that failed after writing bytes may still be durable, and a
      // recovery that replays the edit needs the files. The next
      // successful open reconciles either way (live in the recovered
      // version, or swept by its RemoveObsoleteFiles).
      return s;
    }
    {
      std::vector<uint64_t> deleted;
      deleted.reserve(edit.deleted_files_.size());
      for (const auto& [level, number] : edit.deleted_files_) {
        (void)level;
        deleted.push_back(number);
      }
      table_cache_->EvictBatch(deleted);
    }
    return RemoveObsoleteFiles();
  }

  /// REQUIRES mutex_. A job about to write table files off-mutex (flush
  /// build, compaction merge) registers a fence first: file numbers are
  /// allocated monotonically, so every output the job will create is
  /// numbered at or above it, and RemoveObsoleteFiles skips those — a
  /// concurrent job's GC pass must not sweep half-written outputs that no
  /// version references yet. The number burned for the fence is never
  /// used for a file.
  uint64_t RegisterGcFence() REQUIRES(mutex_) {
    const uint64_t fence = versions_->NewFileNumber();
    gc_fences_.insert(fence);
    return fence;
  }

  /// REQUIRES mutex_. Drops a fence once the job's outputs are either
  /// installed (reachable from a version) or deleted by its owner.
  void ReleaseGcFence(uint64_t fence) REQUIRES(mutex_) {
    auto it = gc_fences_.find(fence);
    LILSM_ASSERT(it != gc_fences_.end());
    gc_fences_.erase(it);
  }

  /// REQUIRES mutex_. Deletes files no live (current or pinned) version,
  /// WAL, manifest, or in-flight job (gc_fences_) can still reach — a
  /// pinned version's tables survive until its last reference (snapshot,
  /// iterator) goes away.
  Status RemoveObsoleteFiles() REQUIRES(mutex_) {
    std::set<uint64_t> live;
    versions_->AddLiveFiles(&live);
    const uint64_t fence =
        gc_fences_.empty() ? UINT64_MAX : *gc_fences_.begin();
    std::vector<std::string> children;
    Status s = env_->GetChildren(dbname_, &children);
    if (!s.ok()) return s;
    // Evict dead tables as one batch: the block-cache purge scans the
    // whole cache once per call, not once per retired file.
    std::vector<uint64_t> dead_tables;
    std::vector<std::string> dead_names;
    for (const std::string& name : children) {
      uint64_t number = 0;
      bool keep = true;
      switch (ParseFileName(name, &number)) {
        case FileKind::kTableFile:
          keep = live.count(number) > 0 || number >= fence;
          if (!keep) dead_tables.push_back(number);
          break;
        case FileKind::kWalFile:
          keep = number >= versions_->log_number() || number == wal_number_;
          break;
        case FileKind::kManifestFile:
          keep = number >= versions_->manifest_number();
          break;
        case FileKind::kTempFile:
          keep = false;
          break;
        default:
          keep = true;
          break;
      }
      if (!keep) dead_names.push_back(name);
    }
    table_cache_->EvictBatch(dead_tables);
    for (const std::string& name : dead_names) {
      env_->RemoveFile(dbname_ + "/" + name);
    }
    return Status::OK();
  }

  /// Memory-accounting support: make sure the pinned version's models
  /// exist before summing them (a no-op per level once published — the
  /// maintained policy installs them on the write path).
  void EnsureLevelModels(const Version& v) const {
    for (int level = 1; level < kNumLevels; level++) {
      if (v.NumFiles(level) == 0) continue;
      model_catalog_->GetOrBuild(v, level, table_cache_.get(),
                                 options_.index_type, options_.index_config);
    }
  }

  // Mutated only by the quiescent-only reconfiguration surface
  // (ReconfigureIndexes / SetIndexGranularity, under mutex_); read freely
  // by paths that run with no concurrent reconfiguration per the API
  // contract, so it carries no GUARDED_BY.
  DBOptions options_;
  const std::string dbname_;
  Env* const env_;
  // Mutable: stats() and the const introspection surface record through
  // it; the object is internally synchronized.
  mutable Stats stats_;

  mutable Mutex mutex_;  // const observers lock it too
  CondVar bg_cv_{&mutex_};
  MemTable* mem_ GUARDED_BY(mutex_) = nullptr;  // active buffer
  MemTable* imm_ GUARDED_BY(mutex_) = nullptr;  // frozen, being flushed
  std::unique_ptr<LogWriter> wal_ GUARDED_BY(mutex_);
  uint64_t wal_number_ GUARDED_BY(mutex_) = 0;
  // Installs require mutex_ (VersionSet's documented contract); the
  // atomic counters and the live-version registry are internally safe.
  std::unique_ptr<VersionSet> versions_;
  // Shared by every reader the table cache opens; created once at Open
  // (block_cache_bytes > 0) and immutable afterwards.
  std::shared_ptr<BlockCache> block_cache_;
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<ModelCatalog> model_catalog_;
  // kBackground's executor and the subcompaction shards' workers; null
  // under kInline with max_subcompactions = 1. Destroyed after the
  // destructor drains bg_jobs_, so it is idle by then.
  std::unique_ptr<ThreadPool> bg_pool_;
  // Writer queue (guarded by mutex_): front = leader or barrier holder,
  // i.e. the one thread allowed to touch wal_ and mem_ with the mutex
  // released.
  std::deque<Writer*> writers_ GUARDED_BY(mutex_);
  /// Leader's coalescing scratch; queue-front owned.
  WriteBatch tmp_batch_ GUARDED_BY(mutex_);
  /// Executors scheduled or running: pool closures plus kInline loops.
  int bg_jobs_ GUARDED_BY(mutex_) = 0;
  /// A job owns the imm_ flush.
  bool bg_flush_active_ GUARDED_BY(mutex_) = false;
  /// A compaction occupies this level pair's upper half.
  bool level_busy_[kNumLevels] GUARDED_BY(mutex_) = {};
  // File numbers >= min(gc_fences_) may be in-flight job outputs not yet
  // in any version; RemoveObsoleteFiles must not sweep them.
  std::multiset<uint64_t> gc_fences_ GUARDED_BY(mutex_);
  std::atomic<bool> shutting_down_{false};
  /// First background failure; writes surface it.
  Status bg_error_ GUARDED_BY(mutex_);
  /// Outstanding snapshot handles.
  int snapshot_count_ GUARDED_BY(mutex_) = 0;
};

}  // namespace

Status DBOptions::Validate() const {
  if (value_size == 0) {
    return Status::InvalidArgument(
        "DBOptions::value_size",
        "the table's fixed entry geometry needs value_size > 0");
  }
  if (size_ratio <= 0) {
    return Status::InvalidArgument("DBOptions::size_ratio",
                                   "must be positive");
  }
  if (l0_compaction_trigger <= 0) {
    return Status::InvalidArgument("DBOptions::l0_compaction_trigger",
                                   "must be positive");
  }
  if (l0_slowdown_trigger <= 0) {
    return Status::InvalidArgument("DBOptions::l0_slowdown_trigger",
                                   "must be positive");
  }
  if (l0_stop_trigger <= 0) {
    return Status::InvalidArgument("DBOptions::l0_stop_trigger",
                                   "must be positive");
  }
  if (max_open_tables == 0) {
    return Status::InvalidArgument(
        "DBOptions::max_open_tables",
        "must be positive: a zero-capacity table cache would re-open and "
        "re-parse a table on every lookup");
  }
  if (key_size < 8) {
    return Status::InvalidArgument(
        "DBOptions::key_size",
        "must be at least 8 bytes to round-trip the uint64_t Key");
  }
  if (key_size > kMaxKeySize) {
    return Status::InvalidArgument(
        "DBOptions::key_size",
        "must be at most 64 bytes (the table reader's key buffer)");
  }
  if (max_background_jobs <= 0) {
    return Status::InvalidArgument("DBOptions::max_background_jobs",
                                   "must be positive");
  }
  if (max_subcompactions <= 0) {
    return Status::InvalidArgument("DBOptions::max_subcompactions",
                                   "must be positive");
  }
  if (io_depth <= 0) {
    return Status::InvalidArgument("DBOptions::io_depth",
                                   "must be positive (1 = synchronous)");
  }
  return Status::OK();
}

Status DB::Open(const DBOptions& options, const std::string& name,
                std::unique_ptr<DB>* dbptr) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  auto impl = std::make_unique<DBImpl>(options, name);
  s = impl->Init();
  if (!s.ok()) return s;
  *dbptr = std::move(impl);
  return Status::OK();
}

Status DB::Destroy(const DBOptions& options, const std::string& name) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  std::vector<std::string> children;
  Status s = env->GetChildren(name, &children);
  if (s.IsNotFound() || s.IsIOError()) return Status::OK();  // nothing there
  for (const std::string& child : children) {
    if (child == "." || child == "..") continue;
    env->RemoveFile(name + "/" + child);
  }
  env->RemoveDir(name);
  return Status::OK();
}

}  // namespace lilsm
