#include "lsm/compaction.h"

#include <algorithm>

#include "lsm/merger.h"
#include "util/check.h"
#include "util/mutex.h"

namespace lilsm {

Status CompactionJob::FinishOutput(TableBuilder* builder,
                                   uint64_t file_number, Key smallest,
                                   Key largest,
                                   std::vector<FileMeta>* outputs) {
  const uint64_t entries = builder->NumEntries();
  Status s = builder->Finish();
  if (!s.ok()) return s;
  FileMeta meta;
  meta.number = file_number;
  meta.entries = entries;
  meta.file_size = builder->FileSize();
  meta.smallest = smallest;
  meta.largest = largest;
  outputs->push_back(meta);
  return Status::OK();
}

std::vector<CompactionJob::Shard> CompactionJob::PlanShards(
    const VersionSet::CompactionPick& pick) const {
  std::vector<Shard> shards;
  // Boundaries are the smallest keys of interior next-level input files:
  // at level L+1 files are disjoint and sorted, so cutting there assigns
  // every next-level file to exactly one shard (file j belongs to the
  // shard whose range contains its smallest key, and its whole key range
  // precedes the next boundary). Fewer than two next-level files — or a
  // serial configuration — yields the single unbounded shard.
  const size_t n = pick.next_inputs.size();
  const int want = std::min<int>(ctx_.max_subcompactions,
                                 static_cast<int>(n));
  if (want <= 1) {
    shards.emplace_back();
    return shards;
  }
  std::vector<Key> bounds;
  for (int i = 1; i < want; i++) {
    // Evenly spaced interior boundaries; duplicates collapse below.
    const size_t idx = (n * static_cast<size_t>(i)) / want;
    bounds.push_back(pick.next_inputs[idx].smallest);
  }
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  for (size_t i = 0; i <= bounds.size(); i++) {
    Shard shard;
    if (i > 0) {
      shard.has_lo = true;
      shard.lo = bounds[i - 1];
    }
    if (i < bounds.size()) {
      shard.has_hi = true;
      shard.hi = bounds[i];
    }
    shards.push_back(shard);
  }
  return shards;
}

void CompactionJob::MergeShard(const VersionSet::CompactionPick& pick,
                               const Version& base, Shard* shard) {
  Stats* stats = ctx_.stats;
  Env* env = ctx_.env;
  const int output_level = pick.level + 1;
  const bool has_lo = shard->has_lo;
  const bool has_hi = shard->has_hi;

  // One iterator per input file overlapping this shard's range; the
  // merging iterator handles ordering and newest-first tie-breaks. Every
  // version of a key is merged by the one shard owning the key, so the
  // shadowing dedup below stays exact.
  std::vector<std::unique_ptr<TableIterator>> children;
  for (const std::vector<FileMeta>* inputs :
       {&pick.inputs, &pick.next_inputs}) {
    for (const FileMeta& meta : *inputs) {
      if (has_hi && meta.smallest >= shard->hi) continue;
      if (has_lo && meta.largest < shard->lo) continue;
      std::shared_ptr<TableReader> reader;
      Status s = ctx_.table_cache->GetReader(meta.number, &reader);
      if (!s.ok()) {
        shard->status = s;
        return;
      }
      // Compaction streams every input once; filling the block cache here
      // would evict the point-lookup hot set for blocks about to die.
      children.push_back(reader->NewIterator(/*fill_cache=*/false));
    }
  }
  std::unique_ptr<TableIterator> iter =
      NewMergingIterator(std::move(children));

  std::unique_ptr<TableBuilder> builder;
  uint64_t output_number = 0;
  Key output_smallest = 0, output_largest = 0;
  bool has_current_key = false;
  Key current_key = 0;
  Status s;

  // The merge loop: reading inputs and writing merged entries is the
  // paper's "KV IO" share of compaction time. FinishOutput (which trains
  // and serializes the model, timed separately) is excluded by pausing
  // the accumulation around it.
  uint64_t kv_io_ns = 0;
  uint64_t chunk_start = env != nullptr ? env->NowNanos() : 0;
  auto flush_kv_io = [&] {
    if (stats != nullptr) {
      stats->AddTime(Timer::kCompactKvIo,
                     kv_io_ns + env->NowNanos() - chunk_start);
    }
  };
  if (has_lo) {
    iter->Seek(shard->lo);
  } else {
    iter->SeekToFirst();
  }
  for (; iter->Valid(); iter->Next()) {
    const Key key = iter->key();
    if (has_hi && key >= shard->hi) break;  // next shard's territory
    const uint64_t tag = iter->tag();

    if (has_current_key && key == current_key) {
      continue;  // shadowed older version
    }
    has_current_key = true;
    current_key = key;

    if (TagType(tag) == kTypeDeletion &&
        !base.KeyMayExistBelow(output_level, key)) {
      continue;  // tombstone with nothing left to shadow
    }

    if (builder == nullptr) {
      if (ShutdownRequested()) {
        // Stop at an output-file boundary: nothing in flight to abandon,
        // and the caller discards the edit.
        flush_kv_io();
        shard->status = Status::IOError("compaction aborted: shutting down");
        return;
      }
      output_number = ctx_.versions->NewFileNumber();
      s = TableBuilder::Open(ctx_.table_cache->options(),
                             TableFileName(ctx_.dbname, output_number),
                             &builder);
      if (!s.ok()) {
        shard->status = s;
        return;
      }
      output_smallest = key;
    }
    s = builder->Add(key, tag, iter->value());
    if (!s.ok()) {
      shard->status = s;
      return;
    }
    output_largest = key;
    if (stats != nullptr) stats->Add(Counter::kEntriesCompacted);

    if (builder->FileSize() >= ctx_.sstable_target_size) {
      kv_io_ns += env->NowNanos() - chunk_start;
      s = FinishOutput(builder.get(), output_number, output_smallest,
                       output_largest, &shard->outputs);
      chunk_start = env->NowNanos();
      if (!s.ok()) {
        shard->status = s;
        return;
      }
      builder.reset();
    }
  }
  kv_io_ns += env->NowNanos() - chunk_start;
  if (stats != nullptr) stats->AddTime(Timer::kCompactKvIo, kv_io_ns);
  s = iter->status();
  if (s.ok() && builder != nullptr) {
    s = FinishOutput(builder.get(), output_number, output_smallest,
                     output_largest, &shard->outputs);
  }
  shard->status = s;
}

Status CompactionJob::Run(const VersionSet::CompactionPick& pick,
                          const Version& base, VersionEdit* edit) {
  Stats* stats = ctx_.stats;
  ScopedTimer total_timer(stats, Timer::kCompactTotal, ctx_.env);
  if (stats != nullptr) stats->Add(Counter::kCompactions);

  const int output_level = pick.level + 1;
  std::vector<Shard> shards = PlanShards(pick);

  if (shards.size() == 1) {
    MergeShard(pick, base, &shards[0]);
  } else {
    LILSM_ASSERT(ctx_.subcompaction_pool != nullptr);
    if (stats != nullptr) {
      stats->Add(Counter::kSubcompactions, shards.size());
    }
    // Fan shards 1..N-1 out to the pool and merge shard 0 on this thread;
    // a local latch forms the barrier (the DB mutex is NOT held here).
    Mutex mu;
    CondVar done_cv(&mu);
    size_t pending = shards.size() - 1;
    for (size_t i = 1; i < shards.size(); i++) {
      ctx_.subcompaction_pool->Submit([this, &pick, &base, &mu, &done_cv,
                                       &pending, shard = &shards[i]] {
        MergeShard(pick, base, shard);
        MutexLock lock(&mu);
        if (--pending == 0) done_cv.SignalAll();
      });
    }
    MergeShard(pick, base, &shards[0]);
    MutexLock lock(&mu);
    while (pending != 0) done_cv.Wait();
  }

  // Aggregate: every finished output goes into the edit even on failure,
  // so the caller's discard path can see (and delete) the orphans.
  Status s;
  for (const Shard& shard : shards) {
    for (const FileMeta& meta : shard.outputs) {
      edit->AddFile(output_level, meta);
    }
    if (s.ok() && !shard.status.ok()) s = shard.status;
  }
  if (!s.ok()) return s;

  for (const FileMeta& meta : pick.inputs) {
    edit->RemoveFile(pick.level, meta.number);
  }
  for (const FileMeta& meta : pick.next_inputs) {
    edit->RemoveFile(output_level, meta.number);
  }
  // Round-robin pointer for the next partial compaction at this level.
  if (pick.level > 0 && !pick.inputs.empty()) {
    edit->SetCompactPointer(pick.level, pick.inputs.back().largest);
  }
  return Status::OK();
}

}  // namespace lilsm
