// Fine-grained timers and counters instrumenting the read and compaction
// paths. These back the paper's Figure 7 (lookup breakdown), Figure 9
// (compaction breakdown), Figure 10 / Table 1 (per-stage, per-level costs).
#ifndef LILSM_UTIL_STATS_H_
#define LILSM_UTIL_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/env.h"

namespace lilsm {

enum class Timer : int {
  kTableLookup = 0,   // locating the candidate table within a level
  kIndexPredict,      // inner-index traversal + model prediction
  kDiskRead,          // fetching the predicted segment from disk
  kBinarySearch,      // in-segment search after the fetch
  kBloomCheck,        // bloom filter probes
  kMemtableGet,       // memtable lookups
  kCompactTotal,      // whole compaction job
  kCompactKvIo,       // reading inputs + writing merged entries
  kCompactTrain,      // training the learned index over the new table
  kCompactWriteModel, // serializing + writing the index blob
  kLevelIndexBuild,   // lazy-policy level-model rebuilds (read path)
  kModelStitch,       // stitching per-file segments into a level model
  kModelRetrain,      // maintained-policy full-retrain fallback
  kBackgroundWork,    // one background flush-or-compaction pass
  kMultiGet,          // one whole MultiGet batch
  kAsyncReap,         // blocking in ReadBatch::Wait for batched reads
  kServerQueue,       // request frame parsed -> worker picks it up
  kRecover,           // DB::Open recovery: manifest + WAL replay + models
  kModelLoad,         // rebuilding level models during DB::Open
  kNumTimers
};

enum class Counter : int {
  kPointLookups = 0,
  kRangeLookups,
  kWrites,
  kBloomNegatives,     // probes answered "definitely absent"
  kBloomTruePositive,
  kBloomFalsePositive,
  kTablesConsulted,
  kSegmentsFetched,
  kCompactions,
  kFlushes,
  kEntriesCompacted,
  kModelsTrained,
  kModelsStitched,     // level models produced by segment stitching
  kModelRetrains,      // stitch fallbacks to a full level retrain
  kModelBuildBytesRead,  // table bytes scanned to (re)build level models
  kWriteSlowdowns,     // writes delayed by the L0 slowdown trigger
  kWriteStalls,        // writes blocked waiting on background work
  kMultiGetKeys,       // keys served through MultiGet batches
  kMultiGetBatches,    // MultiGet calls
  kBlockCacheHits,     // table blocks served from the shared block cache
  kBlockCacheMisses,   // table blocks fetched from the Env
  kBlockCacheEvictions,  // cache entries dropped under capacity pressure
  kGroupCommits,       // write groups committed by a queue leader
  kGroupCommitBatchSize,  // writers served across all groups (sum of sizes)
  kSubcompactions,     // compaction shards run by sharded compactions
  kAsyncBatches,       // ReadBatch::Wait calls that reached the Env
  kAsyncReads,         // read requests submitted through batches
  kReadaheadHits,      // io blocks of scan window reads the cursor reached
  kReadaheadWasted,    // io blocks of scan window reads it never reached
  kServerRequests,     // request frames executed by the service layer
  kServerBatchKeys,    // keys carried by served Get/MultiGet frames
  kServerBytesIn,      // wire bytes read from client connections
  kServerBytesOut,     // wire bytes written to client connections
  kWalRecordsReplayed,   // WAL records re-applied during recovery
  kNumCounters
};

const char* TimerName(Timer t);
const char* CounterName(Counter c);

class OpStats;

/// Timer sampling rate of the DB-wide sink: a Get or MultiGet that records
/// there times its stages once in this many operations per thread. 16 cuts
/// a point lookup's clock reads from ~25 to ~1.6, and its stage estimates
/// stay within a few percent over ~128k lookups (db_stats_sampling_test).
inline constexpr uint32_t kTimerSampleRate = 16;

/// Sharded relaxed-atomic accumulation. The inline engine stays exact and
/// deterministic (one thread, one shard), while ConcurrencyMode::kBackground
/// lets readers, writers, and the background worker all feed the same sink
/// without races — and without cache-line ping-pong: each thread lands in
/// its own cache-aligned shard (the instrumentation is hot enough that
/// shared counters alone were measured to erase read scaling). Writes are
/// exact per cell; read accessors sum the shards, so cross-cell reads are
/// not a consistent snapshot (copy the Stats between runs, as the testbed
/// does).
class Stats {
 public:
  Stats() { Reset(); }

  // Copyable despite the atomics: copies load each cell individually
  // (RunMetrics snapshots a live Stats at the end of a run).
  Stats(const Stats& other) { CopyFrom(other); }
  Stats& operator=(const Stats& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  void Reset();

  /// One timed event of `t` lasting `nanos`.
  void AddTime(Timer t, uint64_t nanos) {
    Shard& shard = LocalShard();
    shard.timer_ns[static_cast<int>(t)].fetch_add(nanos,
                                                  std::memory_order_relaxed);
    shard.timer_count[static_cast<int>(t)].fetch_add(
        1, std::memory_order_relaxed);
  }
  /// One event of `t` that was not timed: counts, adds no time.
  void AddTimerCount(Timer t) {
    LocalShard().timer_count[static_cast<int>(t)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void Add(Counter c, uint64_t delta = 1) {
    LocalShard().counters[static_cast<int>(c)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t TimeNanos(Timer t) const;
  uint64_t TimerCount(Timer t) const;
  double MeanMicros(Timer t) const {
    uint64_t c = TimerCount(t);
    return c == 0 ? 0.0 : TimeNanos(t) / 1000.0 / static_cast<double>(c);
  }
  uint64_t Count(Counter c) const;

  /// Per-level read accounting (Figure 10): lookup time and probe count
  /// attributed to each LSM level.
  static constexpr int kMaxLevels = 8;
  void AddLevelRead(int level, uint64_t nanos) {
    if (level >= 0 && level < kMaxLevels) {
      Shard& shard = LocalShard();
      shard.level_read_ns[level].fetch_add(nanos, std::memory_order_relaxed);
      shard.level_reads[level].fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// One level read that was not timed: counts, adds no time.
  void AddLevelReadCount(int level) {
    if (level >= 0 && level < kMaxLevels) {
      LocalShard().level_reads[level].fetch_add(1, std::memory_order_relaxed);
    }
  }
  uint64_t LevelReadNanos(int level) const;
  uint64_t LevelReads(int level) const;

  /// Adds every cell of `other` into this sink (the testbed folds a run's
  /// per-call read sink into the DB-wide snapshot).
  void Merge(const Stats& other);

  /// The handle one read operation on this sink uses: one operation in
  /// kTimerSampleRate per thread is timed, with durations scaled by the
  /// rate; the rest count without reading the clock. See OpStats.
  OpStats SampleOp();

  std::string ToString() const;

 private:
  static constexpr int kShards = 8;

  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, static_cast<int>(Timer::kNumTimers)>
        timer_ns;
    std::array<std::atomic<uint64_t>, static_cast<int>(Timer::kNumTimers)>
        timer_count;
    std::array<std::atomic<uint64_t>, static_cast<int>(Counter::kNumCounters)>
        counters;
    std::array<std::atomic<uint64_t>, kMaxLevels> level_read_ns;
    std::array<std::atomic<uint64_t>, kMaxLevels> level_reads;
  };

  /// This thread's shard: threads are striped round-robin across shards at
  /// first use, so collisions are possible (still correct, just shared)
  /// but rare at bench-scale thread counts. Inline, over a constant-
  /// initialized thread_local, so each event (an untimed lookup records
  /// dozens of counts) pays one TLS load, not a call and an init guard.
  Shard& LocalShard() {
    thread_local size_t shard = kShards;  // kShards: not yet assigned
    if (shard == kShards) shard = NextShardIndex();
    return shards_[shard];
  }
  static size_t NextShardIndex();
  /// True for one call in kTimerSampleRate on this thread, by a
  /// pseudo-random draw, not a counter, so a periodic operation stream
  /// cannot alias with the sample.
  static bool DrawSample();

  void CopyFrom(const Stats& other);

  Shard shards_[kShards];
};

/// One operation's handle on a possibly-null Stats sink: the sink plus the
/// weight this operation's measured durations carry. Weight 1 times every
/// operation (a bare Stats* converts to this). Weight N > 1 is an operation
/// sampled one in N, so summed durations stay unbiased. Weight 0 is an
/// untimed operation: it reads no clock but still records every counter,
/// every timer count and every level-read count, so counts stay exact.
class OpStats {
 public:
  OpStats() = default;
  // Implicit, so every Stats* (or nullptr) call site keeps compiling.
  OpStats(Stats* stats, uint32_t time_scale = 1)
      : stats_(stats), time_scale_(time_scale) {}

  explicit operator bool() const { return stats_ != nullptr; }
  bool timed() const { return stats_ != nullptr && time_scale_ != 0; }

  void Add(Counter c, uint64_t delta = 1) const {
    if (stats_ != nullptr) stats_->Add(c, delta);
  }
  /// Start of a span: the clock when this operation is timed, else 0
  /// without reading it.
  uint64_t Start(Env* env) const { return timed() ? env->NowNanos() : 0; }
  /// Ends a span begun at `start` (from Start) as one event of `t`.
  /// Returns the span's unscaled length when timed, else 0.
  uint64_t Stop(Timer t, Env* env, uint64_t start) const {
    if (stats_ == nullptr) return 0;
    if (time_scale_ == 0) {
      stats_->AddTimerCount(t);
      return 0;
    }
    const uint64_t nanos = env->NowNanos() - start;
    stats_->AddTime(t, nanos * time_scale_);
    return nanos;
  }
  /// Ends a span begun at `start` as one read of `level`.
  void StopLevelRead(int level, Env* env, uint64_t start) const {
    if (stats_ == nullptr) return;
    if (time_scale_ == 0) {
      stats_->AddLevelReadCount(level);
    } else {
      stats_->AddLevelRead(level, (env->NowNanos() - start) * time_scale_);
    }
  }

 private:
  Stats* stats_ = nullptr;
  uint32_t time_scale_ = 1;
};

/// RAII timer over an OpStats handle, so callers can leave instrumentation
/// compiled in but disabled (null sink) or untimed (weight 0).
class ScopedTimer {
 public:
  ScopedTimer(OpStats sink, Timer t, Env* env)
      : sink_(sink), timer_(t), env_(env), start_(sink.Start(env)) {}

  ~ScopedTimer() { sink_.Stop(timer_, env_, start_); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const OpStats sink_;
  const Timer timer_;
  Env* const env_;
  const uint64_t start_;
};

inline OpStats Stats::SampleOp() {
  return OpStats(this, DrawSample() ? kTimerSampleRate : 0);
}

}  // namespace lilsm

#endif  // LILSM_UTIL_STATS_H_
