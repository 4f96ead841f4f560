// CompactionJob: merges the picked input files into new tables at the next
// level, training the configured learned index for every output table and
// recording the paper's Figure 9 breakdown (KV I/O vs. model training vs.
// model writing).
//
// With ctx.max_subcompactions > 1 the job range-partitions one compaction
// at the next-level input file boundaries into up to that many shards and
// merges them in parallel on ctx.subcompaction_pool (see DESIGN.md "Write
// path & concurrency architecture"). Shard ownership is exact — every key
// belongs to exactly one shard's [lo, hi) range, every next-level input
// file to exactly one shard, and level-L inputs are clipped to the range —
// so the union of shard outputs holds exactly the entries a single-threaded
// merge would produce (file cut points may differ: each shard starts a
// fresh output file). All shard outputs land in ONE VersionEdit, installed
// atomically by the caller like any other compaction.
#ifndef LILSM_LSM_COMPACTION_H_
#define LILSM_LSM_COMPACTION_H_

#include <atomic>
#include <string>
#include <vector>

#include "lsm/table_cache.h"
#include "lsm/version.h"
#include "util/thread_pool.h"

namespace lilsm {

struct CompactionContext {
  Env* env = nullptr;
  Stats* stats = nullptr;
  TableCache* table_cache = nullptr;
  VersionSet* versions = nullptr;
  std::string dbname;
  uint64_t sstable_target_size = 0;
  /// When set, the job polls this flag at output-file boundaries and
  /// aborts once it flips — how a closing DB cuts a running background
  /// compaction short instead of riding it out. Outputs finished before
  /// the abort are recorded in the edit; the caller removes them when it
  /// discards the edit.
  const std::atomic<bool>* shutdown = nullptr;
  /// Range-partitioned subcompactions: with max_subcompactions > 1 the
  /// job splits at next-level file boundaries and runs the shards on
  /// `subcompaction_pool` (the parent thread merges one shard itself, so
  /// N shards occupy N-1 pool threads). max_subcompactions > 1 requires
  /// a pool.
  ThreadPool* subcompaction_pool = nullptr;
  int max_subcompactions = 1;
};

class CompactionJob {
 public:
  explicit CompactionJob(const CompactionContext& ctx) : ctx_(ctx) {}

  /// Merges pick.inputs (level L) with pick.next_inputs (level L+1) into
  /// new tables at level L+1, dropping shadowed versions and, when no
  /// deeper level may contain the key, tombstones. Records the resulting
  /// file swaps into *edit (the caller applies it). `base` may be a pinned
  /// version: the job only reads it, so it can run with the DB mutex
  /// released. On a shutdown abort the in-progress output is removed, but
  /// finished outputs already recorded in *edit are the CALLER's to clean
  /// up (it owns the decision to install or discard the edit).
  Status Run(const VersionSet::CompactionPick& pick, const Version& base,
             VersionEdit* edit);

  /// True when ctx.shutdown asked the job to stop.
  bool ShutdownRequested() const {
    return ctx_.shutdown != nullptr &&
           ctx_.shutdown->load(std::memory_order_acquire);
  }

 private:
  /// One range shard of the compaction keyspace: [lo, hi) with either
  /// bound optionally open. Outputs and status are the shard's own; the
  /// parent aggregates them after the barrier.
  struct Shard {
    bool has_lo = false;
    bool has_hi = false;
    Key lo = 0;
    Key hi = 0;
    std::vector<FileMeta> outputs;
    Status status;
  };

  /// Partitions `pick` at next-input file smallest-key boundaries into at
  /// most ctx.max_subcompactions shards (one shard when the compaction is
  /// too small to split).
  std::vector<Shard> PlanShards(const VersionSet::CompactionPick& pick) const;

  /// Runs the merge loop for one shard: inputs clipped to [lo, hi),
  /// finished outputs appended to shard->outputs. Thread-safe against
  /// other shards (distinct builders, atomic file numbers, sharded Stats).
  void MergeShard(const VersionSet::CompactionPick& pick, const Version& base,
                  Shard* shard);

  Status FinishOutput(TableBuilder* builder, uint64_t file_number,
                      Key smallest, Key largest,
                      std::vector<FileMeta>* outputs);

  CompactionContext ctx_;
};

}  // namespace lilsm

#endif  // LILSM_LSM_COMPACTION_H_
