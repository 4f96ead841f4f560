#include "lsm/model_catalog.h"

#include <algorithm>
#include <unordered_set>

#include "lsm/dbformat.h"
#include "util/mutex.h"

namespace lilsm {

// ---------------------------------------------------------------------------
// VersionModels
// ---------------------------------------------------------------------------

LevelModelRef VersionModels::Get(int level) const {
  const Slot& slot = slots_[level];
  if (!slot.mu.TryLockShared()) return nullptr;
  LevelModelRef ref = slot.model;
  slot.mu.UnlockShared();
  return ref;
}

LevelModelRef VersionModels::GetBlocking(int level) const {
  const Slot& slot = slots_[level];
  ReaderMutexLock lock(&slot.mu);
  return slot.model;
}

void VersionModels::Publish(int level, LevelModelRef model) {
  Slot& slot = slots_[level];
  WriterMutexLock lock(&slot.mu);
  slot.model = std::move(model);
}

void VersionModels::Clear() {
  for (Slot& slot : slots_) {
    WriterMutexLock lock(&slot.mu);
    slot.model.reset();
    slot.corrupt = false;
  }
}

size_t VersionModels::MemoryUsage() const {
  size_t total = 0;
  for (const Slot& slot : slots_) {
    ReaderMutexLock lock(&slot.mu);
    if (slot.model != nullptr) total += slot.model->MemoryUsage();
  }
  return total;
}

// ---------------------------------------------------------------------------
// ModelCatalog
// ---------------------------------------------------------------------------

Status ModelCatalog::ExportFileSegments(const FileMeta& meta,
                                        TableCache* cache, bool* supported,
                                        FileSegments* out) {
  *supported = true;
  {
    MutexLock lock(&cache_mu_);
    auto it = file_segments_.find(meta.number);
    if (it != file_segments_.end()) {
      *out = it->second;
      return Status::OK();
    }
  }
  std::shared_ptr<TableReader> reader;
  Status s = cache->GetReader(meta.number, &reader);
  if (!s.ok()) return s;
  if (reader->NumEntries() != meta.entries) {
    return Status::Corruption("model stitch: reader/meta entry mismatch");
  }
  auto segments = std::make_shared<std::vector<LinearSegment>>();
  uint32_t epsilon = 0;
  if (!reader->ExportIndexSegments(segments.get(), &epsilon)) {
    *supported = false;
    return Status::OK();
  }
  out->entries = meta.entries;
  out->epsilon = epsilon;
  out->segments = std::move(segments);
  {
    MutexLock lock(&cache_mu_);
    file_segments_.emplace(meta.number, *out);
  }
  return Status::OK();
}

Status ModelCatalog::BuildForInstall(const std::vector<FileMeta>& files,
                                     TableCache* cache, IndexType type,
                                     const IndexConfig& config,
                                     const LevelModel* prev,
                                     LevelModelRef* out,
                                     StitchFallback fallback) {
  // Stitch attempt: per-file segments, remapped into global positions by
  // adding the file's cumulative base to each intercept (slopes and first
  // keys are position-free). The per-file epsilon guarantee carries over
  // verbatim under the shift.
  const uint64_t stitch_start = env_->NowNanos();
  auto model = std::make_shared<LevelModel>();
  model->cumulative.assign(1, 0);
  std::vector<LinearSegment> segments;
  bool stitchable = true;
  uint64_t total_entries = 0;
  uint32_t max_epsilon = 0;
  for (const FileMeta& meta : files) {
    FileSegments fs;
    Status s = ExportFileSegments(meta, cache, &stitchable, &fs);
    if (!s.ok()) return s;
    if (!stitchable) break;
    const double base = static_cast<double>(total_entries);
    for (const LinearSegment& seg : *fs.segments) {
      segments.push_back(seg);
      segments.back().intercept += base;
    }
    total_entries += fs.entries;
    max_epsilon = std::max(max_epsilon, fs.epsilon);
    model->cumulative.push_back(total_entries);
  }

  if (stitchable && total_entries > 0) {
    const double density =
        static_cast<double>(segments.size()) / total_entries;
    double baseline = density;
    if (prev != nullptr && prev->baseline_density > 0) {
      baseline = std::min(baseline, prev->baseline_density);
    }
    if (density <= kStitchBlowup * baseline) {
      // Predict with the widest bound the adopted segments were actually
      // trained under: a (drifted) narrower runtime epsilon would
      // otherwise under-cover and turn present keys into NotFound.
      IndexConfig stitch_config = config;
      stitch_config.epsilon = std::max(max_epsilon, 1u);
      model->index = CreateIndex(type);
      Status s = model->index->BuildFromSegments(std::move(segments),
                                                total_entries, stitch_config);
      if (s.ok()) {
        model->stitched = true;
        model->baseline_density = baseline;
        if (stats_ != nullptr) {
          stats_->AddTime(Timer::kModelStitch,
                          env_->NowNanos() - stitch_start);
          stats_->Add(Counter::kModelsStitched);
        }
        *out = std::move(model);
        return Status::OK();
      }
      if (!s.IsNotSupported()) return s;
    }
    // Fell through: segment blow-up past the ratio, or the type cannot
    // adopt foreign segments — a full level scan is needed.
  }
  if (fallback == StitchFallback::kDefer) {
    out->reset();
    return Status::OK();
  }
  return TrainFull(files, cache, type, config, Timer::kModelRetrain, out);
}

Status ModelCatalog::TrainFull(const std::vector<FileMeta>& files,
                               TableCache* cache, IndexType type,
                               const IndexConfig& config, Timer timer,
                               LevelModelRef* out) {
  ScopedTimer scoped(stats_, timer, env_);
  auto model = std::make_shared<LevelModel>();
  model->cumulative.assign(1, 0);

  std::vector<Key> all_keys;
  for (const FileMeta& meta : files) {
    std::shared_ptr<TableReader> reader;
    Status s = cache->GetReader(meta.number, &reader);
    if (!s.ok()) return s;
    std::vector<Key> keys;
    s = reader->ReadAllKeys(&keys);
    if (!s.ok()) return s;
    all_keys.insert(all_keys.end(), keys.begin(), keys.end());
    model->cumulative.push_back(all_keys.size());
  }

  model->index = CreateIndex(type);
  Status s = model->index->Build(all_keys.data(), all_keys.size(), config);
  if (!s.ok()) return s;
  if (!all_keys.empty()) {
    model->baseline_density =
        static_cast<double>(model->index->SegmentCount()) / all_keys.size();
  }
  if (stats_ != nullptr) {
    stats_->Add(Counter::kModelsTrained);
    if (timer == Timer::kModelRetrain) stats_->Add(Counter::kModelRetrains);
    stats_->Add(Counter::kModelBuildBytesRead,
                all_keys.size() * cache->options().entry_size());
  }
  *out = std::move(model);
  return Status::OK();
}

LevelModelRef ModelCatalog::GetOrBuild(const Version& v, int level,
                                       TableCache* cache, IndexType type,
                                       const IndexConfig& config) {
  VersionModels::Slot& slot = v.models()->slots_[level];
  // Fast path, shared try-lock: the common case is "model published", and
  // this is a read-path entry point — on any contention the caller falls
  // back to the per-file index instead of stalling behind a full-level
  // scan+train, and a later lookup retries.
  if (!slot.mu.TryLockShared()) return nullptr;
  LevelModelRef published = slot.model;
  const bool corrupt = slot.corrupt;
  slot.mu.UnlockShared();
  if (published != nullptr || corrupt) return published;

  if (!slot.mu.TryLock()) return nullptr;
  // Raced: another builder published, or met a corrupt table, first.
  if (slot.model != nullptr || slot.corrupt) {
    published = slot.model;
    slot.mu.Unlock();
    return published;
  }
  const std::vector<FileMeta>& files = v.files(level);
  if (files.empty()) {
    slot.mu.Unlock();
    return nullptr;
  }
  LevelModelRef model;
  Status s =
      TrainFull(files, cache, type, config, Timer::kLevelIndexBuild, &model);
  if (!s.ok()) {
    slot.corrupt = s.IsCorruption();
    slot.mu.Unlock();
    return nullptr;  // the per-file fallback surfaces the error
  }
  slot.model = model;
  slot.mu.Unlock();
  return model;
}

bool ModelCatalog::PredictInFile(const LevelModel& model, Key key,
                                 size_t file_idx, size_t* local_lo,
                                 size_t* local_hi) {
  if (model.index == nullptr || file_idx + 1 >= model.cumulative.size()) {
    return false;
  }
  const PredictResult r = model.index->Predict(key);
  const uint64_t base = model.cumulative[file_idx];
  const uint64_t limit = model.cumulative[file_idx + 1];  // exclusive
  if (limit == base) return false;

  // Intersect the global window with the file's range; a present key's
  // true global position lies in both.
  const uint64_t glo = std::max<uint64_t>(r.lo, base);
  const uint64_t ghi = std::min<uint64_t>(r.hi, limit - 1);
  if (glo > ghi) {
    // Model window misses the file (possible for absent keys): search the
    // nearest in-file block.
    *local_lo = r.hi < base ? 0 : (limit - 1 - base);
    *local_hi = *local_lo;
    return true;
  }
  *local_lo = static_cast<size_t>(glo - base);
  *local_hi = static_cast<size_t>(ghi - base);
  return true;
}

void ModelCatalog::WarmFileSegments(const FileMeta& meta, TableCache* cache) {
  bool supported = true;
  FileSegments fs;
  ExportFileSegments(meta, cache, &supported, &fs);
}

bool ModelCatalog::CanStitch(IndexType type) {
  // The types whose BuildFromSegments adopts foreign LinearSegments
  // (guarded by CanStitchMatchesSegmentBasedTypes in the tests).
  switch (type) {
    case IndexType::kPLR:
    case IndexType::kFITingTree:
    case IndexType::kPGM:
      return true;
    default:
      return false;
  }
}

void ModelCatalog::Prune(const Version& v) {
  std::unordered_set<uint64_t> live;
  for (int level = 1; level < kNumLevels; level++) {
    for (const FileMeta& meta : v.files(level)) live.insert(meta.number);
  }
  MutexLock lock(&cache_mu_);
  for (auto it = file_segments_.begin(); it != file_segments_.end();) {
    it = live.count(it->first) > 0 ? std::next(it)
                                   : file_segments_.erase(it);
  }
}

void ModelCatalog::Reset() {
  MutexLock lock(&cache_mu_);
  file_segments_.clear();
}

size_t ModelCatalog::SegmentCacheEntries() const {
  MutexLock lock(&cache_mu_);
  return file_segments_.size();
}

}  // namespace lilsm
