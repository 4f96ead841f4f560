// Version / VersionEdit / VersionSet: immutable per-level file metadata,
// manifest persistence, and compaction picking — the LevelDB architecture.
//
// Concurrency: a Version is immutable once installed. VersionSet mutators
// (LogAndApply, the picks, PinCurrent) require the caller's DB-wide mutex;
// Version::Ref/Unref are thread-safe, so readers, iterators, and snapshots
// can pin a version and drop it from any thread without a lock. The set
// tracks every live version so obsolete-file collection never deletes a
// table some pinned version can still reach.
#ifndef LILSM_LSM_VERSION_H_
#define LILSM_LSM_VERSION_H_

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/wal.h"
#include "util/env.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lilsm {

class VersionSet;
class VersionModels;  // per-version level-model slots (model_catalog.h)
struct LevelModel;    // immutable trained level model (model_catalog.h)

struct FileMeta {
  uint64_t number = 0;
  uint64_t file_size = 0;
  uint64_t entries = 0;
  Key smallest = 0;
  Key largest = 0;
};

class VersionEdit {
 public:
  void Clear();

  void SetLogNumber(uint64_t num) {
    has_log_number_ = true;
    log_number_ = num;
  }
  void SetNextFileNumber(uint64_t num) {
    has_next_file_number_ = true;
    next_file_number_ = num;
  }
  void SetLastSequence(SequenceNumber seq) {
    has_last_sequence_ = true;
    last_sequence_ = seq;
  }
  void SetCompactPointer(int level, Key key) {
    compact_pointers_.emplace_back(level, key);
  }
  void AddFile(int level, const FileMeta& meta) {
    new_files_.emplace_back(level, meta);
  }
  void RemoveFile(int level, uint64_t number) {
    deleted_files_.emplace_back(level, number);
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

  // Open fields: the edit is a short-lived carrier between the writer and
  // VersionSet::Apply.
  bool has_log_number_ = false;
  bool has_next_file_number_ = false;
  bool has_last_sequence_ = false;
  uint64_t log_number_ = 0;
  uint64_t next_file_number_ = 0;
  SequenceNumber last_sequence_ = 0;
  std::vector<std::pair<int, Key>> compact_pointers_;
  std::vector<std::pair<int, uint64_t>> deleted_files_;
  std::vector<std::pair<int, FileMeta>> new_files_;
};

/// Per-level model refs accompanying a VersionEdit into LogAndApply — the
/// write path's trained artifacts, installed copy-on-write alongside the
/// file lists. Levels not marked touched inherit the predecessor
/// version's ref; touched levels take the delta's model (possibly null).
/// With no delta, the successor's slots start empty (the lazy policy).
struct ModelDelta {
  std::shared_ptr<const LevelModel> models[kNumLevels];
  bool touched[kNumLevels] = {};
};

/// A snapshot of the LSM-tree shape. Level 0 holds possibly overlapping
/// files ordered newest-first (descending file number); levels >= 1 hold
/// disjoint files sorted by smallest key. Immutable once installed into a
/// VersionSet; default-constructible standalone for tests.
class Version {
 public:
  Version();

  int NumFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }
  uint64_t LevelBytes(int level) const;
  uint64_t LevelEntries(int level) const;
  const std::vector<FileMeta>& files(int level) const {
    return files_[level];
  }

  /// Highest level containing any file (-1 when empty).
  int MaxPopulatedLevel() const;

  /// For levels >= 1: index of the single file whose range may contain
  /// `key`, or -1. The search starts at file `from`, which must not be
  /// past that file: a walk over ascending keys passes the previous key's
  /// file. For level 0 use files() directly (newest first).
  int FindFile(int level, Key key, size_t from = 0) const;

  /// Files in `level` overlapping [smallest, largest].
  std::vector<FileMeta> GetOverlapping(int level, Key smallest,
                                       Key largest) const;

  /// True if any file in a level deeper than `level` may contain `key`
  /// (governs tombstone dropping during compaction).
  bool KeyMayExistBelow(int level, Key key) const;

  /// This version's level-model slots (never null). A model published for
  /// a version always matches its file lists — filled either by the write
  /// path at install time (LevelModelPolicy::kCompactionMaintained) or on
  /// demand by readers (kLazyRebuild), so a reader pinned to a version
  /// has a consistent model with no staleness checks or fallback dance.
  VersionModels* models() const { return models_.get(); }

  /// Thread-safe reference counting for set-managed versions. The last
  /// Unref unregisters the version from its owning set and deletes it.
  /// Standalone (stack) versions must never be Unref'd.
  void Ref() const { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Unref() const;

  std::vector<FileMeta> files_[kNumLevels];

 private:
  friend class VersionSet;

  VersionSet* vset_ = nullptr;  // owning set; null for standalone versions
  std::shared_ptr<VersionModels> models_;
  mutable std::atomic<int32_t> refs_{0};
};

/// The file list `level` holds after applying `edit` to `base` — exactly
/// the list (same ordering invariants) VersionSet::Apply installs. The
/// write path stitches level models for the successor version from it
/// before the install, guaranteeing model/file-list agreement by
/// construction.
std::vector<FileMeta> FilesAfterEdit(const Version& base,
                                     const VersionEdit& edit, int level);

class VersionSet {
 public:
  VersionSet(Env* env, std::string dbname);
  ~VersionSet();

  /// Initializes a fresh database: writes MANIFEST + CURRENT.
  Status CreateNew();
  /// Recovers state from CURRENT + MANIFEST.
  Status Recover();

  /// Persists the edit to the manifest and installs a new current version
  /// built from current() + edit. Requires the DB mutex. With `models`,
  /// the successor's level-model slots are filled per the delta (touched
  /// levels take the delta's ref, untouched levels inherit current()'s);
  /// without, they start empty. Models are in-memory only — never logged.
  Status LogAndApply(VersionEdit* edit, const ModelDelta* models = nullptr);

  /// The current version. The reference is only stable while the DB mutex
  /// is held; use PinCurrent() to read beyond it.
  const Version& current() const { return *current_; }

  /// Refs and returns the current version (caller must Unref). Requires
  /// the DB mutex (it races with LogAndApply's install otherwise).
  const Version* PinCurrent() const {
    current_->Ref();
    return current_;
  }

  /// Inserts the file number of every file reachable from any live
  /// (current or pinned) version. Thread-safe.
  void AddLiveFiles(std::set<uint64_t>* live) const EXCLUDES(live_mutex_);

  uint64_t NewFileNumber() {
    return next_file_number_.fetch_add(1, std::memory_order_relaxed);
  }
  void MarkFileNumberUsed(uint64_t number) {
    uint64_t cur = next_file_number_.load(std::memory_order_relaxed);
    while (cur <= number && !next_file_number_.compare_exchange_weak(
                                cur, number + 1, std::memory_order_relaxed)) {
    }
  }
  SequenceNumber last_sequence() const { return last_sequence_; }
  void SetLastSequence(SequenceNumber s) { last_sequence_ = s; }
  uint64_t log_number() const { return log_number_; }
  uint64_t manifest_number() const { return manifest_number_; }

  struct CompactionPick {
    int level = -1;
    std::vector<FileMeta> inputs;       // from `level`
    std::vector<FileMeta> next_inputs;  // overlapping files in level + 1
  };

  /// Chooses the compaction the tree needs most, LevelDB-style: level 0 by
  /// file count against `l0_trigger`, deeper levels by size against
  /// base_bytes * size_ratio^level. Returns false when no level is over
  /// its capacity. With `level_allowed` (an array of kNumLevels flags),
  /// only levels whose flag is set are considered — the multi-job
  /// scheduler masks out levels whose [L, L+1] range a running compaction
  /// already occupies. Requires the DB mutex.
  bool PickCompaction(int l0_trigger, uint64_t base_bytes, int size_ratio,
                      CompactionPick* pick,
                      const bool* level_allowed = nullptr);

  /// True when PickCompaction would return a pick — the cheap check the
  /// background scheduler polls. `level_allowed` masks levels out, as in
  /// PickCompaction. Requires the DB mutex.
  bool NeedsCompaction(int l0_trigger, uint64_t base_bytes, int size_ratio,
                       const bool* level_allowed = nullptr) const;

  /// The full-merge pick used by manual/level-granularity compactions:
  /// all files of `level` plus everything overlapping below.
  bool PickFullCompaction(int level, CompactionPick* pick);

 private:
  friend class Version;

  Status WriteSnapshot(LogWriter* writer);
  void Apply(const VersionEdit& edit, const ModelDelta* models = nullptr);
  Status InstallManifest(uint64_t manifest_number);
  void ForgetVersion(const Version* v) EXCLUDES(live_mutex_);
  /// The level whose score (fill fraction) is highest, or -1 when no level
  /// is over capacity. `level_allowed` (nullable) masks levels out.
  int PickCompactionLevel(int l0_trigger, uint64_t base_bytes,
                          int size_ratio,
                          const bool* level_allowed = nullptr) const;

  Env* const env_;
  const std::string dbname_;
  Version* current_;  // heap-allocated; the set holds one reference
  // All versions with outstanding references, current_ included
  // (Unref may fire on any thread).
  mutable Mutex live_mutex_;
  std::vector<const Version*> live_ GUARDED_BY(live_mutex_);
  std::unique_ptr<LogWriter> manifest_;
  uint64_t manifest_number_ = 0;
  uint64_t manifest_edits_ = 0;
  std::atomic<uint64_t> next_file_number_{2};
  SequenceNumber last_sequence_ = 0;
  uint64_t log_number_ = 0;
  Key compact_pointer_[kNumLevels] = {};
  bool has_compact_pointer_[kNumLevels] = {};
};

}  // namespace lilsm

#endif  // LILSM_LSM_VERSION_H_
