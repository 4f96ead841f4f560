// ModelCatalog: versioned level-granularity learned models (the
// "LevelModel" of Dai et al. evaluated by the paper's Figure 8).
//
// A level model is an immutable, refcounted artifact attached to a
// Version: one learned index trained over the concatenated keys of the
// level's files plus the cumulative-entries vector that translates its
// global predictions into per-file entry bounds. Because a model is
// published for exactly one version (and shared by successors whose level
// is unchanged), a reader pinned to a version always consults a model
// consistent with its file lists — no stamps, no fallback dance.
//
// Two lifecycles feed the slots (DBOptions::level_model_policy):
//
//  * kLazyRebuild (default, the paper's behavior): slots start empty in
//    every installed version; the first reader that needs a level trains
//    it from a full-level key scan (Timer::kLevelIndexBuild), guarded by
//    per-level try-locks so a lookup never stalls behind the scan.
//  * kCompactionMaintained (Bourbon-style train-on-write): flush and
//    compaction *produce* model updates — each output table's per-file
//    trained segments (already in memory) are stitched into the level
//    model by offset remapping over the cumulative-entries vector,
//    touching only the changed files and re-reading zero keys
//    (Timer::kModelStitch). A full retrain (Timer::kModelRetrain) remains
//    as a quality fallback when the stitched segment density blows past
//    kStitchBlowup times the level's best observed density, or when the
//    configured index type cannot stitch (RMI, splines, fence pointers).
//    DB::Open stitches the same way: each table's own index blob is the
//    one persisted model, and its reader exports the segments.
#ifndef LILSM_LSM_MODEL_CATALOG_H_
#define LILSM_LSM_MODEL_CATALOG_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "index/pla.h"
#include "lsm/table_cache.h"
#include "lsm/version.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lilsm {

/// One immutable trained level model. Never mutated after publication;
/// shared (shared_ptr) between versions whose level is unchanged.
struct LevelModel {
  std::unique_ptr<LearnedIndex> index;
  /// cumulative[i] = total entries of files [0, i); size = files + 1.
  std::vector<uint64_t> cumulative;
  bool stitched = false;
  /// Lowest segments-per-entry density observed at this level — set by
  /// full trains, inherited and tightened by stitches; the blow-up
  /// fallback's baseline.
  double baseline_density = 0.0;

  size_t SegmentCount() const {
    return index != nullptr ? index->SegmentCount() : 0;
  }
  size_t MemoryUsage() const {
    return (index != nullptr ? index->MemoryUsage() : 0) +
           cumulative.capacity() * sizeof(uint64_t);
  }
};

using LevelModelRef = std::shared_ptr<const LevelModel>;

/// The per-version model slots. Slot content only ever goes from empty to
/// published (for one version, a level's model never changes), so readers
/// take a per-level shared try-lock and fall back to the per-file index
/// when a lazy build holds the exclusive side.
class VersionModels {
 public:
  /// Try-lock accessor: the level's model, or null when absent or busy
  /// (a lazy build in progress). Used wherever waiting is not an option
  /// — the install path (which holds the DB mutex and must not wait out
  /// a reader's full-level scan) and any hot-path peek; callers treat
  /// null as "no model" and degrade.
  LevelModelRef Get(int level) const;
  /// Cold paths (installs, memory accounting): waits out a build.
  LevelModelRef GetBlocking(int level) const;
  /// Publishes `model` into the slot (install time or lazy-build commit).
  void Publish(int level, LevelModelRef model);
  /// Drops every slot (index reconfiguration on a quiescent DB).
  void Clear();
  /// Memory of all published models, counting shared refs in full.
  size_t MemoryUsage() const;

 private:
  friend class ModelCatalog;

  /// One per-level slot: the published model paired with the
  /// readers-writer lock that guards it, so the guard relation is a
  /// sibling reference the thread-safety analysis can check.
  struct Slot {
    mutable SharedMutex mu;
    LevelModelRef model GUARDED_BY(mu);
    /// A lazy build hit a corrupt table: this version's file list cannot
    /// train, so readers stop rescanning the level until a new version
    /// (or a reconfiguration) replaces the slot.
    bool corrupt GUARDED_BY(mu) = false;
  };
  Slot slots_[kNumLevels];
};

class ModelCatalog {
 public:
  /// A stitched level model falls back to a full retrain when its
  /// segments-per-entry density exceeds this multiple of the level's
  /// baseline density.
  static constexpr double kStitchBlowup = 4.0;

  ModelCatalog(Env* env, Stats* stats) : env_(env), stats_(stats) {}

  /// What to do when a stitch is not possible (segment-density blow-up
  /// past kStitchBlowup, or a file whose in-memory index cannot
  /// export segments).
  enum class StitchFallback {
    /// Retrain from a full level scan right here — for quiescent callers
    /// (Open-time prefill, tests) where blocking on disk is fine.
    kRetrainNow,
    /// Succeed with a null model — for the install path, which holds the
    /// DB mutex and must not scan a level; the read path's lazy build
    /// performs the retrain off-mutex instead.
    kDefer,
  };

  /// Write path (kCompactionMaintained): the model for a level's
  /// post-edit file list (levels >= 1, disjoint, sorted by smallest).
  /// Stitches per-file segments — cached per file number, so only files
  /// new since the last install are touched — handling a failed stitch
  /// per `fallback`. `prev` (may be null) carries the baseline density
  /// across installs. `files` must be non-empty. The stitched model
  /// predicts with the widest epsilon the per-file indexes were actually
  /// trained under (not config.epsilon), so adopted segments never
  /// under-cover even when the runtime configuration has drifted from
  /// what is on disk.
  Status BuildForInstall(const std::vector<FileMeta>& files,
                         TableCache* cache, IndexType type,
                         const IndexConfig& config, const LevelModel* prev,
                         LevelModelRef* out,
                         StitchFallback fallback = StitchFallback::kRetrainNow);

  /// Read path (kLazyRebuild): version-pinned get-or-build. Returns null
  /// when the slot is busy (another thread building or predicting under
  /// the exclusive side) or the build fails — the caller falls back to
  /// the per-file index and retries on a later lookup, unless the build
  /// failed with Corruption, which no retry on this version can mend.
  LevelModelRef GetOrBuild(const Version& v, int level, TableCache* cache,
                           IndexType type, const IndexConfig& config);

  /// Full-scan train: reads every key of `files` (the bytes are counted
  /// under Counter::kModelBuildBytesRead) and builds a fresh model.
  /// `timer` attributes the cost: kLevelIndexBuild for lazy read-path
  /// builds, kModelRetrain for the maintained fallback.
  Status TrainFull(const std::vector<FileMeta>& files, TableCache* cache,
                   IndexType type, const IndexConfig& config, Timer timer,
                   LevelModelRef* out);

  /// Translates a global prediction for `key` into entry bounds local to
  /// file `file_idx` of the model's level. Returns false when the model
  /// does not cover file_idx (defensive; impossible for a model installed
  /// with its version).
  static bool PredictInFile(const LevelModel& model, Key key,
                            size_t file_idx, size_t* local_lo,
                            size_t* local_hi);

  /// Pre-populates the per-file segment cache for `meta` (opening its
  /// reader if needed). Called off-lock for freshly written compaction
  /// outputs so the mutex-held stitch at install time touches only
  /// in-memory state. Best-effort: failures surface later as a deferred
  /// stitch.
  void WarmFileSegments(const FileMeta& meta, TableCache* cache);

  /// True when `type` can adopt foreign segments (BuildFromSegments).
  /// The write path skips model production entirely for non-stitchable
  /// types — every install would degrade to a full-level scan under the
  /// DB mutex — leaving models to the read path's lazy build instead.
  static bool CanStitch(IndexType type);

  /// Drops cached per-file segments for files absent from `v` (levels >=
  /// 1) — called after an install, when the dropped files are obsolete.
  void Prune(const Version& v);
  /// Drops the whole segment cache (index reconfiguration).
  void Reset();

  size_t SegmentCacheEntries() const;

 private:
  struct FileSegments {
    uint64_t entries = 0;
    uint32_t epsilon = 0;  // the bound the segments were trained under
    std::shared_ptr<const std::vector<LinearSegment>> segments;
  };

  /// The file's segments from the per-file cache, else exported by its
  /// reader (opening it if needed); `*supported` is false when the
  /// reader's index type is not segment-based (caller falls back to
  /// TrainFull).
  Status ExportFileSegments(const FileMeta& meta, TableCache* cache,
                            bool* supported, FileSegments* out);

  Env* const env_;
  Stats* const stats_;
  mutable Mutex cache_mu_;
  /// Per-file trained segments keyed by file number (numbers are never
  /// reused).
  std::unordered_map<uint64_t, FileSegments> file_segments_
      GUARDED_BY(cache_mu_);
};

}  // namespace lilsm

#endif  // LILSM_LSM_MODEL_CATALOG_H_
