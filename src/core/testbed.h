// Testbed: the unified benchmark platform of the paper (its Figure 4).
// Owns a DB + simulated-latency environment, loads a dataset, executes
// measured workloads, and supports cheap reconfiguration across the
// (index type x position boundary x granularity) space by retraining the
// in-memory indexes of live tables instead of rewriting data files.
#ifndef LILSM_CORE_TESTBED_H_
#define LILSM_CORE_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "util/histogram.h"
#include "util/sim_env.h"
#include "workload/ycsb.h"

namespace lilsm {

/// Everything a figure needs about one measured workload run.
struct RunMetrics {
  Histogram latency_ns;           // per-operation latency
  size_t index_memory = 0;        // bytes, the paper's Memory(B) axis
  size_t filter_memory = 0;       // bloom bytes (constant across configs)
  uint64_t io_blocks = 0;         // 4 KiB blocks fetched during the run
  uint64_t io_reads = 0;          // pread calls during the run
  Stats stats;                    // timer/counter snapshot for the run

  double MeanLatencyUs() const { return latency_ns.Mean() / 1000.0; }
  double P99LatencyUs() const { return latency_ns.Percentile(99) / 1000.0; }
};

class Testbed {
 public:
  struct Options {
    std::string dir;  // database directory (created/destroyed by the bed)
    ExperimentDefaults defaults;
    IndexSetup setup;
    bool use_sim_env = true;  // inject calibrated I/O latency
    SimEnvOptions sim;
    bool compact_after_load = true;  // settle the tree before measuring
  };

  /// Creates the testbed, generates the dataset and bulk-loads the DB
  /// (keys inserted in shuffled order, as a YCSB load phase would).
  static Status Create(const Options& options,
                       std::unique_ptr<Testbed>* testbed);

  ~Testbed();

  /// Re-points the live DB at a new (type, boundary, granularity) without
  /// reloading data: retrains every table's in-memory index.
  Status Reconfigure(const IndexSetup& setup);

  /// Point lookups on existing keys. `zipfian` selects the request skew.
  /// With multiget_batch > 1, the request stream is served through
  /// DB::MultiGet in batches of that size (batch latency is attributed
  /// evenly across its keys).
  Status RunPointLookups(size_t count, bool zipfian, RunMetrics* metrics,
                         size_t multiget_batch = 0);

  /// Range lookups of `range_len` entries from random start keys.
  Status RunRangeLookups(size_t count, size_t range_len, RunMetrics* metrics);

  /// One of the six YCSB mixes. With multiget_batch > 1, consecutive read
  /// ops are buffered and served through DB::MultiGet (writes, scans, and
  /// read-modify-writes flush the pending batch first, keeping the op
  /// order the generator produced).
  Status RunYcsb(YcsbWorkload workload, size_t count, RunMetrics* metrics,
                 size_t multiget_batch = 0);

  /// Write-only workload of `count` fresh inserts (Figure 9): returns the
  /// compaction/train/write-model breakdown via metrics->stats.
  Status RunWriteOnly(size_t count, RunMetrics* metrics);

  DB* db() { return db_.get(); }
  const std::vector<Key>& keys() const { return keys_; }
  const IndexSetup& setup() const { return setup_; }
  SimEnv* sim_env() { return sim_env_.get(); }

  /// A key guaranteed absent from the loaded set (for negative lookups).
  Key AbsentKey(uint64_t i) const;

 private:
  Testbed() = default;

  void BeginRun();
  void EndRun(RunMetrics* metrics);
  /// Maps a YCSB key index to a key: indexes below keys_.size() address
  /// the loaded set; higher indexes take fresh keys from the pool.
  Key MapYcsbKey(uint64_t key_index) const;

  Options options_;
  IndexSetup setup_;
  std::unique_ptr<SimEnv> sim_env_;
  std::unique_ptr<DB> db_;
  std::vector<Key> keys_;
  std::vector<Key> pool_;         // disjoint keys for inserts / negatives
  uint64_t next_insert_seq_ = 0;  // distinct keys for write-only ingest
  // Per-call sink of the measured reads: it times every lookup (the
  // DB-wide sink samples its timers), and EndRun folds it into the run's
  // snapshot.
  Stats read_stats_;
  uint64_t io_reads_at_start_ = 0;
  uint64_t io_blocks_at_start_ = 0;
};

}  // namespace lilsm

#endif  // LILSM_CORE_TESTBED_H_
