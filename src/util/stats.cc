#include "util/stats.h"

#include <cstdio>

#include "util/random.h"

namespace lilsm {

const char* TimerName(Timer t) {
  switch (t) {
    case Timer::kTableLookup:
      return "table_lookup";
    case Timer::kIndexPredict:
      return "index_predict";
    case Timer::kDiskRead:
      return "disk_read";
    case Timer::kBinarySearch:
      return "binary_search";
    case Timer::kBloomCheck:
      return "bloom_check";
    case Timer::kMemtableGet:
      return "memtable_get";
    case Timer::kCompactTotal:
      return "compact_total";
    case Timer::kCompactKvIo:
      return "compact_kv_io";
    case Timer::kCompactTrain:
      return "compact_train";
    case Timer::kCompactWriteModel:
      return "compact_write_model";
    case Timer::kLevelIndexBuild:
      return "level_index_build";
    case Timer::kModelStitch:
      return "model_stitch";
    case Timer::kModelRetrain:
      return "model_retrain";
    case Timer::kBackgroundWork:
      return "background_work";
    case Timer::kMultiGet:
      return "multiget";
    case Timer::kAsyncReap:
      return "async_reap";
    case Timer::kServerQueue:
      return "server_queue";
    case Timer::kRecover:
      return "recover";
    case Timer::kModelLoad:
      return "model_load";
    default:
      return "unknown";
  }
}

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kPointLookups:
      return "point_lookups";
    case Counter::kRangeLookups:
      return "range_lookups";
    case Counter::kWrites:
      return "writes";
    case Counter::kBloomNegatives:
      return "bloom_negatives";
    case Counter::kBloomTruePositive:
      return "bloom_true_positive";
    case Counter::kBloomFalsePositive:
      return "bloom_false_positive";
    case Counter::kTablesConsulted:
      return "tables_consulted";
    case Counter::kSegmentsFetched:
      return "segments_fetched";
    case Counter::kCompactions:
      return "compactions";
    case Counter::kFlushes:
      return "flushes";
    case Counter::kEntriesCompacted:
      return "entries_compacted";
    case Counter::kModelsTrained:
      return "models_trained";
    case Counter::kModelsStitched:
      return "models_stitched";
    case Counter::kModelRetrains:
      return "model_retrains";
    case Counter::kModelBuildBytesRead:
      return "model_build_bytes_read";
    case Counter::kWriteSlowdowns:
      return "write_slowdowns";
    case Counter::kWriteStalls:
      return "write_stalls";
    case Counter::kMultiGetKeys:
      return "multiget_keys";
    case Counter::kMultiGetBatches:
      return "multiget_batches";
    case Counter::kBlockCacheHits:
      return "block_cache_hits";
    case Counter::kBlockCacheMisses:
      return "block_cache_misses";
    case Counter::kBlockCacheEvictions:
      return "block_cache_evictions";
    case Counter::kGroupCommits:
      return "group_commits";
    case Counter::kGroupCommitBatchSize:
      return "group_commit_batch_size";
    case Counter::kSubcompactions:
      return "subcompactions";
    case Counter::kAsyncBatches:
      return "async_batches";
    case Counter::kAsyncReads:
      return "async_reads";
    case Counter::kReadaheadHits:
      return "readahead_hits";
    case Counter::kReadaheadWasted:
      return "readahead_wasted";
    case Counter::kServerRequests:
      return "server_requests";
    case Counter::kServerBatchKeys:
      return "server_batch_keys";
    case Counter::kServerBytesIn:
      return "server_bytes_in";
    case Counter::kServerBytesOut:
      return "server_bytes_out";
    case Counter::kWalRecordsReplayed:
      return "wal_records_replayed";
    default:
      return "unknown";
  }
}

namespace {

std::atomic<size_t> next_shard{0};

template <typename Array>
void FillZero(Array& array) {
  for (auto& cell : array) cell.store(0, std::memory_order_relaxed);
}

template <typename Array>
void CopyCells(Array& dst, const Array& src) {
  for (size_t i = 0; i < src.size(); i++) {
    dst[i].store(src[i].load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  }
}

template <typename Array>
uint64_t CellAt(const Array& array, int i) {
  return array[i].load(std::memory_order_relaxed);
}

}  // namespace

size_t Stats::NextShardIndex() {
  return next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
}

bool Stats::DrawSample() {
  // Each thread seeds from its arrival order, so a single-threaded run
  // samples the same operations every time.
  static std::atomic<uint64_t> next_seed{0};
  thread_local Random rng(next_seed.fetch_add(1, std::memory_order_relaxed));
  return rng.OneIn(kTimerSampleRate);
}

void Stats::Reset() {
  for (Shard& shard : shards_) {
    FillZero(shard.timer_ns);
    FillZero(shard.timer_count);
    FillZero(shard.counters);
    FillZero(shard.level_read_ns);
    FillZero(shard.level_reads);
  }
}

void Stats::CopyFrom(const Stats& other) {
  for (int s = 0; s < kShards; s++) {
    CopyCells(shards_[s].timer_ns, other.shards_[s].timer_ns);
    CopyCells(shards_[s].timer_count, other.shards_[s].timer_count);
    CopyCells(shards_[s].counters, other.shards_[s].counters);
    CopyCells(shards_[s].level_read_ns, other.shards_[s].level_read_ns);
    CopyCells(shards_[s].level_reads, other.shards_[s].level_reads);
  }
}

void Stats::Merge(const Stats& other) {
  auto add = [](auto& dst, const auto& src) {
    for (size_t i = 0; i < src.size(); i++) {
      dst[i].fetch_add(src[i].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
  };
  for (int s = 0; s < kShards; s++) {
    add(shards_[s].timer_ns, other.shards_[s].timer_ns);
    add(shards_[s].timer_count, other.shards_[s].timer_count);
    add(shards_[s].counters, other.shards_[s].counters);
    add(shards_[s].level_read_ns, other.shards_[s].level_read_ns);
    add(shards_[s].level_reads, other.shards_[s].level_reads);
  }
}

uint64_t Stats::TimeNanos(Timer t) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += CellAt(shard.timer_ns, static_cast<int>(t));
  }
  return total;
}

uint64_t Stats::TimerCount(Timer t) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += CellAt(shard.timer_count, static_cast<int>(t));
  }
  return total;
}

uint64_t Stats::Count(Counter c) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += CellAt(shard.counters, static_cast<int>(c));
  }
  return total;
}

uint64_t Stats::LevelReadNanos(int level) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += CellAt(shard.level_read_ns, level);
  }
  return total;
}

uint64_t Stats::LevelReads(int level) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += CellAt(shard.level_reads, level);
  }
  return total;
}

std::string Stats::ToString() const {
  std::string out;
  char buf[160];
  for (int i = 0; i < static_cast<int>(Timer::kNumTimers); i++) {
    Timer t = static_cast<Timer>(i);
    if (TimerCount(t) == 0) continue;
    std::snprintf(buf, sizeof(buf), "%-20s total=%10.3f ms  mean=%8.3f us  n=%llu\n",
                  TimerName(t), TimeNanos(t) / 1e6, MeanMicros(t),
                  static_cast<unsigned long long>(TimerCount(t)));
    out += buf;
  }
  for (int i = 0; i < static_cast<int>(Counter::kNumCounters); i++) {
    Counter c = static_cast<Counter>(i);
    if (Count(c) == 0) continue;
    std::snprintf(buf, sizeof(buf), "%-20s %llu\n", CounterName(c),
                  static_cast<unsigned long long>(Count(c)));
    out += buf;
  }
  return out;
}

}  // namespace lilsm
