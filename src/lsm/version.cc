#include "lsm/version.h"

#include <algorithm>
#include <cmath>

#include "lsm/model_catalog.h"
#include "util/coding.h"

namespace lilsm {

// ---------------------------------------------------------------------------
// VersionEdit
// ---------------------------------------------------------------------------

namespace {

// Manifest record field tags.
enum EditTag : uint32_t {
  kLogNumber = 1,
  kNextFileNumber = 2,
  kLastSequence = 3,
  kCompactPointer = 4,
  kDeletedFile = 5,
  kNewFile = 6,
};

}  // namespace

void VersionEdit::Clear() { *this = VersionEdit(); }

void VersionEdit::EncodeTo(std::string* dst) const {
  if (has_log_number_) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, log_number_);
  }
  if (has_next_file_number_) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, next_file_number_);
  }
  if (has_last_sequence_) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, last_sequence_);
  }
  for (const auto& [level, key] : compact_pointers_) {
    PutVarint32(dst, kCompactPointer);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutFixed64(dst, key);
  }
  for (const auto& [level, number] : deleted_files_) {
    PutVarint32(dst, kDeletedFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, number);
  }
  for (const auto& [level, meta] : new_files_) {
    PutVarint32(dst, kNewFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, meta.number);
    PutVarint64(dst, meta.file_size);
    PutVarint64(dst, meta.entries);
    PutFixed64(dst, meta.smallest);
    PutFixed64(dst, meta.largest);
  }
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  Clear();
  Slice input = src;
  while (!input.empty()) {
    uint32_t tag = 0;
    if (!GetVarint32(&input, &tag)) {
      return Status::Corruption("version edit: bad tag");
    }
    uint32_t level = 0;
    switch (tag) {
      case kLogNumber:
        if (!GetVarint64(&input, &log_number_)) {
          return Status::Corruption("version edit: log number");
        }
        has_log_number_ = true;
        break;
      case kNextFileNumber:
        if (!GetVarint64(&input, &next_file_number_)) {
          return Status::Corruption("version edit: next file number");
        }
        has_next_file_number_ = true;
        break;
      case kLastSequence:
        if (!GetVarint64(&input, &last_sequence_)) {
          return Status::Corruption("version edit: last sequence");
        }
        has_last_sequence_ = true;
        break;
      case kCompactPointer: {
        Key key = 0;
        if (!GetVarint32(&input, &level) || level >= kNumLevels ||
            !GetFixed64(&input, &key)) {
          return Status::Corruption("version edit: compact pointer");
        }
        compact_pointers_.emplace_back(static_cast<int>(level), key);
        break;
      }
      case kDeletedFile: {
        uint64_t number = 0;
        if (!GetVarint32(&input, &level) || level >= kNumLevels ||
            !GetVarint64(&input, &number)) {
          return Status::Corruption("version edit: deleted file");
        }
        deleted_files_.emplace_back(static_cast<int>(level), number);
        break;
      }
      case kNewFile: {
        FileMeta meta;
        if (!GetVarint32(&input, &level) || level >= kNumLevels ||
            !GetVarint64(&input, &meta.number) ||
            !GetVarint64(&input, &meta.file_size) ||
            !GetVarint64(&input, &meta.entries) ||
            !GetFixed64(&input, &meta.smallest) ||
            !GetFixed64(&input, &meta.largest)) {
          return Status::Corruption("version edit: new file");
        }
        new_files_.emplace_back(static_cast<int>(level), meta);
        break;
      }
      default:
        return Status::Corruption("version edit: unknown tag");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Version
// ---------------------------------------------------------------------------

// Out of line: VersionModels is only forward-declared in the header.
Version::Version() : models_(std::make_shared<VersionModels>()) {}

uint64_t Version::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const FileMeta& f : files_[level]) total += f.file_size;
  return total;
}

uint64_t Version::LevelEntries(int level) const {
  uint64_t total = 0;
  for (const FileMeta& f : files_[level]) total += f.entries;
  return total;
}

int Version::MaxPopulatedLevel() const {
  for (int level = kNumLevels - 1; level >= 0; level--) {
    if (!files_[level].empty()) return level;
  }
  return -1;
}

int Version::FindFile(int level, Key key, size_t from) const {
  const std::vector<FileMeta>& files = files_[level];
  if (from >= files.size()) return -1;
  // First file with largest >= key.
  auto it = std::lower_bound(
      files.begin() + static_cast<std::ptrdiff_t>(from), files.end(), key,
      [](const FileMeta& f, Key k) { return f.largest < k; });
  if (it == files.end() || it->smallest > key) return -1;
  return static_cast<int>(it - files.begin());
}

std::vector<FileMeta> Version::GetOverlapping(int level, Key smallest,
                                              Key largest) const {
  std::vector<FileMeta> result;
  for (const FileMeta& f : files_[level]) {
    if (f.largest >= smallest && f.smallest <= largest) {
      result.push_back(f);
    }
  }
  return result;
}

bool Version::KeyMayExistBelow(int level, Key key) const {
  for (int l = level + 1; l < kNumLevels; l++) {
    for (const FileMeta& f : files_[l]) {
      if (f.smallest <= key && key <= f.largest) return true;
    }
  }
  return false;
}

void Version::Unref() const {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (vset_ != nullptr) vset_->ForgetVersion(this);
    delete this;
  }
}

std::vector<FileMeta> FilesAfterEdit(const Version& base,
                                     const VersionEdit& edit, int level) {
  // Untouched levels keep their (already ordered) list verbatim — the
  // common case, since an edit touches at most two levels.
  const auto touches = [level](const auto& entries) {
    for (const auto& [l, payload] : entries) {
      (void)payload;
      if (l == level) return true;
    }
    return false;
  };
  if (!touches(edit.deleted_files_) && !touches(edit.new_files_)) {
    return base.files(level);
  }
  std::vector<FileMeta> files = base.files(level);
  for (const auto& [l, number] : edit.deleted_files_) {
    if (l != level) continue;
    files.erase(std::remove_if(files.begin(), files.end(),
                               [n = number](const FileMeta& f) {
                                 return f.number == n;
                               }),
                files.end());
  }
  for (const auto& [l, meta] : edit.new_files_) {
    if (l == level) files.push_back(meta);
  }
  // Level ordering invariants: L0 newest-first, deeper levels by range.
  if (level == 0) {
    std::sort(files.begin(), files.end(),
              [](const FileMeta& a, const FileMeta& b) {
                return a.number > b.number;
              });
  } else {
    std::sort(files.begin(), files.end(),
              [](const FileMeta& a, const FileMeta& b) {
                return a.smallest < b.smallest;
              });
  }
  return files;
}

// ---------------------------------------------------------------------------
// VersionSet
// ---------------------------------------------------------------------------

VersionSet::VersionSet(Env* env, std::string dbname)
    : env_(env), dbname_(std::move(dbname)) {
  current_ = new Version();
  current_->vset_ = this;
  current_->Ref();
  MutexLock lock(&live_mutex_);
  live_.push_back(current_);
}

VersionSet::~VersionSet() {
  // Drop the set's own reference. Pinned versions outliving the set are a
  // caller bug (an iterator or snapshot held past DB destruction).
  current_->Unref();
}

void VersionSet::ForgetVersion(const Version* v) {
  MutexLock lock(&live_mutex_);
  live_.erase(std::remove(live_.begin(), live_.end(), v), live_.end());
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) const {
  MutexLock lock(&live_mutex_);
  for (const Version* v : live_) {
    for (int level = 0; level < kNumLevels; level++) {
      for (const FileMeta& meta : v->files_[level]) {
        live->insert(meta.number);
      }
    }
  }
}

Status VersionSet::InstallManifest(uint64_t manifest_number) {
  // Point CURRENT at the manifest: write-temp + atomic rename + parent
  // directory fsyncs. The first SyncDir makes the manifest's own entry
  // durable before anything names it (a crash right after the swap must
  // not leave CURRENT pointing at a file that was never linked); the
  // second makes the rename itself durable (without it, a crash can
  // roll CURRENT back to the previous manifest — or, on a fresh DB, to
  // no CURRENT at all). A crash between any two steps leaves either the
  // old pointer or the new one, both naming a complete manifest.
  Status s = env_->SyncDir(dbname_);
  if (!s.ok()) return s;
  const std::string tmp = TempFileName(dbname_, manifest_number);
  std::string contents = ManifestFileName("", manifest_number).substr(1);
  contents.push_back('\n');
  s = WriteStringToFile(env_, contents, tmp);
  if (!s.ok()) return s;
  s = env_->RenameFile(tmp, CurrentFileName(dbname_));
  if (!s.ok()) return s;
  return env_->SyncDir(dbname_);
}

Status VersionSet::CreateNew() {
  manifest_number_ = 1;
  next_file_number_ = 2;
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(ManifestFileName(dbname_, manifest_number_),
                                   &file);
  if (!s.ok()) return s;
  manifest_ = std::make_unique<LogWriter>(std::move(file));
  s = WriteSnapshot(manifest_.get());
  if (!s.ok()) return s;
  s = manifest_->Sync();
  if (!s.ok()) return s;
  return InstallManifest(manifest_number_);
}

Status VersionSet::WriteSnapshot(LogWriter* writer) {
  VersionEdit edit;
  edit.SetLogNumber(log_number_);
  edit.SetNextFileNumber(next_file_number_);
  edit.SetLastSequence(last_sequence_);
  for (int level = 0; level < kNumLevels; level++) {
    if (has_compact_pointer_[level]) {
      edit.SetCompactPointer(level, compact_pointer_[level]);
    }
    for (const FileMeta& meta : current_->files_[level]) {
      edit.AddFile(level, meta);
    }
  }
  std::string record;
  edit.EncodeTo(&record);
  return writer->AddRecord(record);
}

Status VersionSet::Recover() {
  std::string current;
  Status s = ReadFileToString(env_, CurrentFileName(dbname_), &current);
  if (!s.ok()) return s;
  if (current.empty() || current.back() != '\n') {
    return Status::Corruption("CURRENT file malformed");
  }
  current.pop_back();

  uint64_t manifest_number = 0;
  if (ParseFileName(current, &manifest_number) != FileKind::kManifestFile) {
    return Status::Corruption("CURRENT does not name a manifest");
  }

  std::unique_ptr<SequentialFile> file;
  s = env_->NewSequentialFile(dbname_ + "/" + current, &file);
  if (!s.ok()) return s;
  LogReader reader(std::move(file));
  std::string record;
  while (reader.ReadRecord(&record)) {
    VersionEdit edit;
    s = edit.DecodeFrom(record);
    if (!s.ok()) return s;
    Apply(edit);
  }
  // A torn tail is the residue of a crash mid-LogAndApply: that edit was
  // never acknowledged (LogAndApply syncs before returning), so every
  // complete record before it is the full committed history — a clean
  // end of log. Mid-log corruption, by contrast, would silently drop
  // committed edits if replay stopped there, so the open must fail.
  if (reader.result() == LogReadStatus::kCorruption) {
    return Status::Corruption("manifest replay hit a corrupt record");
  }

  // Continue appending to a fresh manifest (snapshot + future edits).
  manifest_number_ = next_file_number_++;
  std::unique_ptr<WritableFile> manifest_file;
  s = env_->NewWritableFile(ManifestFileName(dbname_, manifest_number_),
                            &manifest_file);
  if (!s.ok()) return s;
  manifest_ = std::make_unique<LogWriter>(std::move(manifest_file));
  s = WriteSnapshot(manifest_.get());
  if (!s.ok()) return s;
  s = manifest_->Sync();
  if (!s.ok()) return s;
  return InstallManifest(manifest_number_);
}

void VersionSet::Apply(const VersionEdit& edit, const ModelDelta* models) {
  if (edit.has_log_number_) log_number_ = edit.log_number_;
  if (edit.has_next_file_number_) {
    MarkFileNumberUsed(edit.next_file_number_ - 1);
  }
  if (edit.has_last_sequence_ && edit.last_sequence_ > last_sequence_) {
    last_sequence_ = edit.last_sequence_;
  }
  for (const auto& [level, key] : edit.compact_pointers_) {
    compact_pointer_[level] = key;
    has_compact_pointer_[level] = true;
  }

  // Build the successor version copy-on-write: the outgoing current stays
  // untouched for whoever has it pinned. FilesAfterEdit is the same
  // transform the write path stitched its model delta against, so file
  // lists and models agree by construction.
  Version* v = new Version();
  v->vset_ = this;
  for (int level = 0; level < kNumLevels; level++) {
    v->files_[level] = FilesAfterEdit(*current_, edit, level);
  }
  for (const auto& [level, meta] : edit.new_files_) {
    (void)level;
    MarkFileNumberUsed(meta.number);
  }
  if (models != nullptr) {
    for (int level = 0; level < kNumLevels; level++) {
      // Untouched levels inherit via the try-lock accessor: this runs
      // with the DB mutex held, and a blocking read here would wait out
      // a reader's in-flight lazy train (a full-level disk scan). Losing
      // the inheritance race just leaves the slot empty for a later
      // lazy build.
      v->models_->Publish(level, models->touched[level]
                                     ? models->models[level]
                                     : current_->models_->Get(level));
    }
  }

  v->Ref();
  {
    MutexLock lock(&live_mutex_);
    live_.push_back(v);
  }
  Version* old = current_;
  current_ = v;
  old->Unref();
}

Status VersionSet::LogAndApply(VersionEdit* edit, const ModelDelta* models) {
  edit->SetNextFileNumber(next_file_number_);
  edit->SetLastSequence(last_sequence_);
  std::string record;
  edit->EncodeTo(&record);
  Status s = manifest_->AddRecord(record);
  if (!s.ok()) return s;
  s = manifest_->Sync();
  if (!s.ok()) return s;
  Apply(*edit, models);
  manifest_edits_++;
  return Status::OK();
}

int VersionSet::PickCompactionLevel(int l0_trigger, uint64_t base_bytes,
                                    int size_ratio,
                                    const bool* level_allowed) const {
  // Score each level; level 0 by file count, others by byte size.
  const auto allowed = [level_allowed](int level) {
    return level_allowed == nullptr || level_allowed[level];
  };
  double best_score = 1.0;
  int best_level = -1;
  const double l0_score = static_cast<double>(current_->NumFiles(0)) /
                          static_cast<double>(std::max(1, l0_trigger));
  if (allowed(0) && l0_score >= best_score) {
    best_score = l0_score;
    best_level = 0;
  }
  double max_bytes = static_cast<double>(base_bytes);
  for (int level = 1; level < kNumLevels - 1; level++) {
    max_bytes *= size_ratio;
    const double score =
        static_cast<double>(current_->LevelBytes(level)) / max_bytes;
    if (allowed(level) && score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  return best_level;
}

bool VersionSet::NeedsCompaction(int l0_trigger, uint64_t base_bytes,
                                 int size_ratio,
                                 const bool* level_allowed) const {
  return PickCompactionLevel(l0_trigger, base_bytes, size_ratio,
                             level_allowed) >= 0;
}

bool VersionSet::PickCompaction(int l0_trigger, uint64_t base_bytes,
                                int size_ratio, CompactionPick* pick,
                                const bool* level_allowed) {
  const int best_level =
      PickCompactionLevel(l0_trigger, base_bytes, size_ratio, level_allowed);
  if (best_level < 0) return false;

  pick->level = best_level;
  pick->inputs.clear();
  pick->next_inputs.clear();

  if (best_level == 0) {
    // Full L0 compaction: all files (they overlap anyway under leveling).
    pick->inputs = current_->files_[0];
  } else {
    // Partial compaction: round-robin one file after the compact pointer.
    const auto& files = current_->files_[best_level];
    size_t chosen = 0;
    if (has_compact_pointer_[best_level]) {
      for (size_t i = 0; i < files.size(); i++) {
        if (files[i].smallest > compact_pointer_[best_level]) {
          chosen = i;
          break;
        }
      }
    }
    pick->inputs.push_back(files[chosen]);
  }
  if (pick->inputs.empty()) return false;

  Key smallest = pick->inputs[0].smallest;
  Key largest = pick->inputs[0].largest;
  for (const FileMeta& f : pick->inputs) {
    smallest = std::min(smallest, f.smallest);
    largest = std::max(largest, f.largest);
  }
  pick->next_inputs =
      current_->GetOverlapping(best_level + 1, smallest, largest);
  return true;
}

bool VersionSet::PickFullCompaction(int level, CompactionPick* pick) {
  if (level < 0 || level >= kNumLevels - 1 ||
      current_->files_[level].empty()) {
    return false;
  }
  pick->level = level;
  pick->inputs = current_->files_[level];
  pick->next_inputs = current_->files_[level + 1];
  return true;
}

}  // namespace lilsm
