// SimEnv: an Env decorator that models storage-device read latency and
// counts I/O operations.
//
// The paper's testbed runs on an NVMe SSD where a 4 KiB random read costs
// ~2.1 us (its Table 1). On a development machine the table files sit in the
// page cache and preads return in ~100 ns, which would erase the paper's
// central effect (point lookups are I/O-dominated). SimEnv restores the
// device cost by spinning the monotonic clock for
//     latency = base_latency_ns + bytes * per_byte_ns
// on every RandomAccessFile::Read, and keeps atomic counters so each
// experiment can also be reported in exact I/O units (reads, blocks, bytes).
#ifndef LILSM_UTIL_SIM_ENV_H_
#define LILSM_UTIL_SIM_ENV_H_

#include <atomic>
#include <cstdint>

#include "util/env.h"

namespace lilsm {

struct IoStats {
  std::atomic<uint64_t> random_reads{0};
  std::atomic<uint64_t> random_read_bytes{0};
  std::atomic<uint64_t> blocks_read{0};  // 4 KiB units, rounded up per read
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> simulated_wait_ns{0};

  void Reset() {
    random_reads = 0;
    random_read_bytes = 0;
    blocks_read = 0;
    writes = 0;
    write_bytes = 0;
    simulated_wait_ns = 0;
  }
};

struct SimEnvOptions {
  /// Fixed cost per random read (seek + command overhead).
  uint64_t read_base_latency_ns = 1900;
  /// Transfer cost; 50 ns/KiB ~= 20 GB/s NVMe bus after the fixed cost.
  double read_per_byte_ns = 50.0 / 1024.0;
  /// Per-write-call fixed cost applied to appends (0 disables; compaction
  /// write cost is already dominated by real syscalls + fdatasync).
  uint64_t write_base_latency_ns = 0;
  double write_per_byte_ns = 0.0;
  /// Fixed cost per WritableFile::Sync call (0 disables). Models the
  /// device flush an fdatasync pays (~100 us on SATA, ~20 us NVMe) even
  /// when the backing file sits in the page cache — the serial cost that
  /// group commit amortizes, so the write-heavy bench (fig13) sets this
  /// to make sync'd-writer scaling visible on a dev machine.
  uint64_t sync_latency_ns = 0;
  /// Block size used only for the blocks_read counter.
  uint64_t io_block_size = 4096;
  /// How the wait is served. false (default): busy-spin — precise at
  /// microsecond scales and deterministic, the right model for the paper's
  /// single-threaded measurements. true: nanosleep — releases the CPU, so
  /// concurrent requests overlap like a queued device serving multiple
  /// outstanding I/Os; granularity is OS timer slack (~60 us on Linux), so
  /// pair it with disk-class latencies. The concurrent-throughput bench
  /// (fig13) uses this to demonstrate read overlap even on one core.
  bool sleep_instead_of_spin = false;
  /// Device queue depth for batched reads (NewReadBatch). Overlapped
  /// requests in one batch are charged in waves of up to
  /// min(batch io_depth, this) requests, each wave costing the max of its
  /// members' latencies instead of their sum. 0 means the device imposes
  /// no cap beyond the caller's io_depth. LILSM_IO_DEPTH overrides.
  int io_depth = 0;
};

class SimEnv final : public Env {
 public:
  /// Wraps `base` (not owned). Latency injection applies to random-access
  /// reads (the lookup path); sequential reads and writes are counted only
  /// unless write latency is configured.
  explicit SimEnv(Env* base, SimEnvOptions options = SimEnvOptions());

  /// Reads SimEnvOptions overrides from LILSM_READ_LAT_NS /
  /// LILSM_READ_PER_BYTE_NS / LILSM_SYNC_LAT_NS / LILSM_SIM_SLEEP /
  /// LILSM_IO_DEPTH environment variables, if present.
  static SimEnvOptions OptionsFromEnvironment();

  IoStats* io_stats() { return &stats_; }
  const SimEnvOptions& options() const { return options_; }

  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  Status SyncDir(const std::string& dirname) override {
    return base_->SyncDir(dirname);
  }
  uint64_t NowNanos() override { return base_->NowNanos(); }

  /// Deterministic queue-depth model: requests execute serially (counters
  /// identical to sequential Reads) but their modeled waits are charged in
  /// waves of min(io_depth, options().io_depth) requests, each wave
  /// costing the max of its members — overlapped I/O costs max, not sum.
  /// io_depth=1 degenerates to the exact sequential sum.
  std::unique_ptr<ReadBatch> NewReadBatch(int io_depth) override;

  /// Waits `ns` nanoseconds (spinning or sleeping per the options) and
  /// accounts the wait. Exposed for the file wrappers; not intended for
  /// external callers.
  void SpinFor(uint64_t ns);

 private:
  Env* const base_;
  const SimEnvOptions options_;
  IoStats stats_;
};

}  // namespace lilsm

#endif  // LILSM_UTIL_SIM_ENV_H_
