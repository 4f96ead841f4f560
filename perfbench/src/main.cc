// perfbench: the lilsm benchmark. One binary runs one workload against the
// real PosixEnv (no modeled latency), checks every result, and prints the
// run context, a per-layer breakdown (traced run) and, as its last line,
// one JSON object with the metrics.
//
//   perfbench --workload point_lookup|mixed_ingest|server_rpc --seed N
//             --seconds S --trace 0|1 --dir WORKDIR
//             [--git-sha SHA] [--build-type TYPE]
//
// --trace 0 measures the end-to-end metrics. --trace 1 alternates tracing
// on and off every 250 ms of the timed phase and reports per-layer
// metrics from the traced slices, plus the throughput cost of tracing.
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "client/client.h"
#include "instrumented.h"
#include "lsm/db.h"
#include "server/server.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/dataset.h"
#include "workload/zipf.h"

namespace perfbench {
namespace {

using lilsm::Client;
using lilsm::Counter;
using lilsm::DB;
using lilsm::DBOptions;
using lilsm::Random;
using lilsm::ReadOptions;
using lilsm::Status;
using lilsm::Timer;
using lilsm::WriteBatch;
using lilsm::WriteOptions;
using lilsm::ZipfGenerator;

constexpr uint32_t kKeySize = 24;  // DBOptions::key_size default
constexpr uint64_t kRecordBytes = kKeySize + kValueSize;
constexpr double kWindowSeconds = 0.1;  // untraced run: one measurement window
constexpr double kSliceSeconds = 0.25;  // traced run: one traced/untraced slice
// Percentiles are taken over groups of consecutive windows holding at
// least this many samples (20 beyond a p99), and reported as the median
// over groups.
constexpr size_t kGroupSamples = 2'000;
constexpr size_t kScanLength = 100;
constexpr size_t kRpcBatch = 16;

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class Workload { kPointLookup, kMixedIngest, kServerRpc };

struct WorkloadConfig {
  const char* name;
  size_t load_keys;       // books keys loaded at set-up
  size_t pool_factor;     // absent/fresh keys per loaded key
  size_t threads;         // closed-loop threads (clients for server_rpc)
  size_t block_cache_mb;  // 0: no block cache
  bool background;        // kBackground + group commit (lilsm_server's engine)
  int setup_reps;         // set-ups per run; setup_s is their median
  // Whether the timed phase runs writes / scans. Where it does not, write_*
  // samples come from the tail and scan_* samples from the probes.
  bool timed_writes;
  bool timed_scans;
};

WorkloadConfig ConfigFor(Workload w) {
  switch (w) {
    case Workload::kPointLookup:
      return {"point_lookup", 1'000'000, 1, 1, 8, false, 3, false, false};
    case Workload::kMixedIngest:
      return {"mixed_ingest", 500'000, 2, 2, 0, true, 5, true, true};
    case Workload::kServerRpc:
      return {"server_rpc", 200'000, 1, 3, 64, true, 5, true, false};
  }
  return {};
}

// Workloads whose timed phase runs no scans measure scan latency with a
// single-threaded probe of kProbeScans scans after every kProbeEvery
// measurement windows, while the closed loops are held; each probe is one
// window of the scan samples. Probes read through a snapshot taken right after
// set-up, so every probe scans the same settled tree however the timed
// phase reshapes the live one.
constexpr size_t kProbeScans = 2'000;
constexpr size_t kProbeEvery = 10;

// The fixed single-threaded tail every workload ends with: kTailCycles
// rounds of kTailWrites updates, each followed by a close and a timed
// reopen that replays those updates from the WAL. Each round is one
// measurement window of the tail's write samples.
constexpr size_t kTailCycles = 25;
constexpr size_t kTailWrites = 10'000;
constexpr std::chrono::milliseconds kTailReopenGap{200};

struct Args {
  Workload workload = Workload::kPointLookup;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string git_sha = "unknown";
  std::string build_type = "unknown";
};

// ---------------------------------------------------------------------------
// Per-thread results
// ---------------------------------------------------------------------------

/// Latency samples in ns, kept per measurement window.
struct Samples {
  std::vector<std::vector<uint32_t>> windows;

  void Add(size_t window, uint64_t v) {
    if (windows.size() <= window) windows.resize(window + 1);
    windows[window].push_back(v > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(v));
  }
  void Append(const Samples& o) {
    if (windows.size() < o.windows.size()) windows.resize(o.windows.size());
    for (size_t w = 0; w < o.windows.size(); w++) {
      windows[w].insert(windows[w].end(), o.windows[w].begin(), o.windows[w].end());
    }
  }
  size_t Count() const {
    size_t n = 0;
    for (const auto& w : windows) n += w.size();
    return n;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The q-percentile in us: consecutive windows are merged into groups of
/// at least kGroupSamples samples, and the result is the median over groups
/// of each group's percentile, so bursts of outside interference (other
/// tenants, CPU steal) in a minority of groups do not move it. A trailing
/// short group is dropped unless it is the only one. *groups reports how
/// many were used.
double GroupedPercentileUs(const Samples& s, double q, size_t* groups) {
  std::vector<double> per_group;
  std::vector<uint32_t> group;
  for (const auto& w : s.windows) {
    group.insert(group.end(), w.begin(), w.end());
    if (group.size() >= kGroupSamples) {
      per_group.push_back(Percentile(&group, q) / 1e3);
      group.clear();
    }
  }
  if (per_group.empty() && !group.empty()) {
    per_group.push_back(Percentile(&group, q) / 1e3);
  }
  if (groups != nullptr) *groups = per_group.size();
  return Median(per_group);
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK status other than an expected NotFound
  uint64_t wrong = 0;   // a value or scan that does not check out
  std::string first_problem;

  void Fail(const std::string& what) {
    failed++;
    if (first_problem.empty()) first_problem = what;
  }
  void Wrong(const std::string& what) {
    wrong++;
    if (first_problem.empty()) first_problem = what;
  }
  void Merge(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    if (first_problem.empty()) first_problem = o.first_problem;
  }
};

struct ThreadResult {
  Samples read, write, scan;  // untraced operations only
  Outcome outcome;
  size_t window = 0;              // window of the operation in progress
  std::vector<uint64_t> window_units;  // untraced units, per window
  uint64_t units[2] = {0, 0};     // keys read + records written, by traced
  uint64_t ops[2] = {0, 0};       // operations, by traced
  uint64_t op_ns[2] = {0, 0};     // summed operation latency, by traced
  uint64_t records_written[2] = {0, 0};
  uint64_t fresh_inserted = 0;

  void AddUnits(bool traced, uint64_t n) {
    units[traced] += n;
    if (traced) return;
    if (window_units.size() <= window) window_units.resize(window + 1);
    window_units[window] += n;
  }
};

// Checks a point read of `key`; `expect_found` says whether it was loaded.
void CheckRead(const Status& s, Key key, bool expect_found,
               const std::string& value, Outcome* out) {
  out->attempted++;
  if (s.IsNotFound()) {
    if (expect_found) out->Fail("loaded key " + std::to_string(key) + " not found");
    return;
  }
  if (!s.ok()) {
    out->Fail("read " + std::to_string(key) + ": " + s.ToString());
    return;
  }
  if (!expect_found) {
    out->Wrong("absent key " + std::to_string(key) + " was found");
  } else if (!VerifyValue(key, value)) {
    out->Wrong("wrong value for key " + std::to_string(key));
  }
}

void CheckWrite(const Status& s, Outcome* out) {
  out->attempted++;
  if (!s.ok()) out->Fail("write: " + s.ToString());
}

// A scan from `start` must return kScanLength strictly increasing keys
// >= start (set-up guarantees enough keys follow), each with its value,
// and skip none of the (sorted) `loaded` keys in the range it covers.
void CheckScan(const Status& s, Key start,
               const std::vector<std::pair<Key, std::string>>& rows,
               const std::vector<Key>& loaded, Outcome* out) {
  out->attempted++;
  if (!s.ok()) {
    out->Fail("scan: " + s.ToString());
    return;
  }
  if (rows.size() != kScanLength) {
    out->Wrong("scan from " + std::to_string(start) + " returned " +
               std::to_string(rows.size()) + " rows");
    return;
  }
  Key prev = start;
  for (size_t i = 0; i < rows.size(); i++) {
    if (rows[i].first < prev || (i > 0 && rows[i].first == prev) ||
        !VerifyValue(rows[i].first, rows[i].second)) {
      out->Wrong("scan from " + std::to_string(start) + " row " +
                 std::to_string(i) + " does not check out");
      return;
    }
    prev = rows[i].first;
  }
  size_t row = 0;
  for (auto it = std::lower_bound(loaded.begin(), loaded.end(), start);
       it != loaded.end() && *it <= prev; ++it) {
    while (rows[row].first < *it) row++;
    if (rows[row].first != *it) {
      out->Wrong("scan from " + std::to_string(start) + " skipped loaded key " +
                 std::to_string(*it));
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Closed loops
// ---------------------------------------------------------------------------

std::atomic<bool> g_traced_slice{false};
std::atomic<uint32_t> g_window{0};

struct LoopTimes {
  double seconds[2] = {0, 0};   // wall time spent untraced / traced
  std::vector<double> windows;  // length of each untraced window
};

/// Lets the controller hold every loop thread between two operations.
class PauseGate {
 public:
  explicit PauseGate(size_t threads) : threads_(threads) {}

  /// Loop thread, between operations: blocks while the gate is closed.
  void MaybeWait() {
    if (!paused_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(mu_);
    waiting_++;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !paused_.load(std::memory_order_relaxed); });
    waiting_--;
  }
  /// Controller: closes the gate and returns once every loop thread waits.
  void Pause() {
    std::unique_lock<std::mutex> lock(mu_);
    paused_.store(true, std::memory_order_release);
    cv_.wait(lock, [&] { return waiting_ == threads_; });
  }
  void Resume() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_.store(false, std::memory_order_release);
    }
    cv_.notify_all();
  }

 private:
  const size_t threads_;
  std::atomic<bool> paused_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  size_t waiting_ = 0;
};

/// How server_rpc shares out the CPUs: its whole request path (client
/// threads, the server's event loop and workers) runs on CPU `request`, and
/// every other thread (set-up, the engine's background work, probes, the
/// tail) on `rest`. When the host takes a vCPU away for a while, the
/// request path then slows down as a whole instead of stalling the 1-5%
/// of round trips that had a hop on that vCPU, which would move p99 by
/// several times while p50 stays put.
struct CpuSplit {
  int request = -1;  // -1: nothing is pinned
  cpu_set_t rest;
};

/// Reserves the second CPU the process may use (the first, usually CPU 0,
/// tends to take the VM's device interrupts). With fewer than two CPUs
/// nothing is pinned.
CpuSplit SplitCpus() {
  CpuSplit split;
  CPU_ZERO(&split.rest);
  if (::sched_getaffinity(0, sizeof(split.rest), &split.rest) != 0 ||
      CPU_COUNT(&split.rest) < 2) {
    return split;
  }
  int seen = 0;
  for (int c = 0; c < CPU_SETSIZE && split.request < 0; c++) {
    if (CPU_ISSET(c, &split.rest) && ++seen == 2) split.request = c;
  }
  CPU_CLR(split.request, &split.rest);
  return split;
}

void PinThisThread(const cpu_set_t& set) {
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

/// Pins the calling thread to `cpu`; a no-op for -1.
void PinThisThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  PinThisThread(set);
}

/// Runs `threads` closed loops of `op(thread, traced, result)` for
/// `seconds`, cut into slices, each loop pinned to `cpu` unless it is -1.
/// An untraced run cuts it into kWindowSeconds
/// measurement windows; each operation records its samples in the window
/// current at its start, and after every kProbeEvery windows the loops are
/// held while `probe(n)` (if set) runs, outside the windows' time. A
/// traced run alternates untraced and traced kSliceSeconds slices; each
/// operation takes the mode current at its start.
LoopTimes RunClosedLoop(size_t threads, int cpu, double seconds, bool trace,
                        const std::function<void(size_t, bool, ThreadResult*)>& op,
                        const std::function<void(size_t)>& probe,
                        std::vector<ThreadResult>* results) {
  results->assign(threads, ThreadResult());
  g_window.store(0);
  std::atomic<bool> stop{false};
  PauseGate gate(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      PinThisThread(cpu);
      Tracer::MarkOpThread();
      ThreadResult* r = &(*results)[t];
      while (true) {
        gate.MaybeWait();
        if (stop.load(std::memory_order_relaxed)) break;
        const bool traced = g_traced_slice.load(std::memory_order_relaxed);
        r->window = g_window.load(std::memory_order_relaxed);
        const uint64_t t0 = NowNs();
        op(t, traced, r);
        r->op_ns[traced] += NowNs() - t0;
        r->ops[traced]++;
      }
    });
  }
  LoopTimes times;
  const uint64_t slice_ns =
      static_cast<uint64_t>((trace ? kSliceSeconds : kWindowSeconds) * 1e9);
  uint64_t slice_start = NowNs();
  uint64_t end = slice_start + static_cast<uint64_t>(seconds * 1e9);
  for (uint32_t slice = 0; slice_start < end; slice++) {
    const bool traced = trace && slice % 2 == 1;
    g_window.store(trace ? 0 : slice, std::memory_order_relaxed);
    g_traced_slice.store(traced, std::memory_order_relaxed);
    Tracer::background_enabled.store(traced, std::memory_order_relaxed);
    const uint64_t slice_end = std::min(end, slice_start + slice_ns);
    for (uint64_t now = NowNs(); now < slice_end; now = NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(slice_end - now));
    }
    const double length = Seconds(slice_end - slice_start);
    times.seconds[traced] += length;
    if (!trace) times.windows.push_back(length);
    slice_start = slice_end;
    if (!trace && probe && (slice + 1) % kProbeEvery == 0 && slice_end < end) {
      const uint64_t pause_start = NowNs();
      gate.Pause();
      probe((slice + 1) / kProbeEvery - 1);
      g_window.store(slice + 1, std::memory_order_relaxed);
      gate.Resume();
      slice_start = NowNs();
      end += slice_start - pause_start;
    }
  }
  stop.store(true);
  for (std::thread& w : workers) w.join();
  g_traced_slice.store(false);
  Tracer::background_enabled.store(false);
  return times;
}

// ---------------------------------------------------------------------------
// Database helpers
// ---------------------------------------------------------------------------

DBOptions MakeOptions(const WorkloadConfig& cfg, lilsm::Env* env) {
  DBOptions o;
  o.env = env;
  o.value_size = static_cast<uint32_t>(kValueSize);
  o.key_size = kKeySize;
  o.sync_wal = false;
  o.block_cache_bytes = cfg.block_cache_mb << 20;
  if (cfg.background) {
    o.concurrency = lilsm::ConcurrencyMode::kBackground;
    o.group_commit = true;
    o.max_background_jobs = 1;
  }
  return o;
}

/// Bulk-loads `keys` (version 1, shuffled order, WAL off) into a fresh
/// database, settles the tree, and opens it with `options`. The load runs
/// on the inline engine, so the settled tree's shape depends only on the
/// keys, not on background-thread timing; a background-mode workload then
/// reopens it in its own mode.
Status LoadAndSettle(const DBOptions& options, const std::string& path,
                     const std::vector<Key>& keys, uint64_t seed,
                     std::unique_ptr<DB>* db) {
  DBOptions load_options = options;
  load_options.concurrency = lilsm::ConcurrencyMode::kInline;
  DB::Destroy(options, path);
  Status s = DB::Open(load_options, path, db);
  if (!s.ok()) return s;
  std::vector<Key> order = keys;
  Random rnd(seed ^ 0x10adull);
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[rnd.Uniform(i)]);
  }
  WriteOptions wo;
  wo.disable_wal = true;
  WriteBatch batch;
  char value[kValueSize];
  for (size_t i = 0; i < order.size(); i++) {
    FillValue(order[i], 1, value);
    batch.Put(order[i], lilsm::Slice(value, kValueSize));
    if (batch.Count() == 1000 || i + 1 == order.size()) {
      s = (*db)->Write(wo, &batch);
      if (!s.ok()) return s;
      batch.Clear();
    }
  }
  s = (*db)->FlushMemTable();
  if (s.ok()) s = (*db)->CompactUntilStable();
  if (!s.ok() || options.concurrency == lilsm::ConcurrencyMode::kInline) return s;
  db->reset();
  return DB::Open(options, path, db);
}

Status Quiesce(DB* db) {
  Status s = db->FlushMemTable();
  if (s.ok()) s = db->CompactUntilStable();
  return s;
}

/// Writes back every dirty page of the filesystem holding `path`. The
/// TracedEnv's syncs stop at the page cache, so without this the kernel's
/// flusher would write the set-up's tables back ~30 s later, in the middle
/// of whatever is being timed then; the run calls it between timed phases.
void WriteBack(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

uint64_t DirBytes(const std::string& path) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::string FsType(const std::string& path) {
  struct statfs sfs;
  if (::statfs(path.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sfs.f_type));
      return buf;
    }
  }
}

double PeakRssMib() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Counters and timers the DB accumulated between two Stats copies.
struct StatsDelta {
  const lilsm::Stats& before;
  const lilsm::Stats& after;
  double Count(Counter c) const {
    return static_cast<double>(after.Count(c) - before.Count(c));
  }
  double Nanos(Timer t) const {
    return static_cast<double>(after.TimeNanos(t) - before.TimeNanos(t));
  }
  double Calls(Timer t) const {
    return static_cast<double>(after.TimerCount(t) - before.TimerCount(t));
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Run {
 public:
  explicit Run(const Args& args)
      : args_(args), cfg_(ConfigFor(args.workload)), env_(lilsm::Env::Default()) {
    db_path_ = args.dir + "/db";
  }

  int Main();

 private:
  Status GenerateKeys();
  Status Setup();
  void TimedPhase();
  void OpPointLookup(size_t t, bool traced, ThreadResult* r);
  void OpMixed(size_t t, bool traced, ThreadResult* r);
  void OpRpc(size_t t, bool traced, ThreadResult* r);
  void Probe(size_t window);
  Status Tail();
  void Report();
  void ReportLayers(const ThreadResult& all);
  void PrintContext();

  Key Zipf(size_t t) { return loaded_[zipf_[t]->NextScrambled()]; }
  Key ScanStart(Random* rnd) {
    return loaded_[rnd->Uniform(loaded_.size() - 2 * kScanLength)];
  }
  uint64_t NextVersion(size_t t) { return (uint64_t{t + 2} << 40) | ++versions_[t]; }

  const Args args_;
  const WorkloadConfig cfg_;
  TracedEnv env_;
  std::string db_path_;
  DBOptions options_;
  std::unique_ptr<DB> db_;
  const lilsm::Snapshot* probe_snapshot_ = nullptr;
  lilsm::Stats traced_stats_;  // lookup stages of traced operations

  std::vector<Key> loaded_, absent_;  // absent_ doubles as the fresh-key pool
  std::vector<std::unique_ptr<Random>> rnd_;
  std::vector<std::unique_ptr<ZipfGenerator>> zipf_;
  std::vector<uint64_t> versions_;
  std::vector<size_t> fresh_begin_, fresh_next_, fresh_end_;

  // server_rpc (declared in the order they may be destroyed in reverse)
  CpuSplit cpus_;
  PendingRequests pending_;
  std::unique_ptr<TracedDB> traced_db_;
  std::unique_ptr<lilsm::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;

  std::vector<double> setup_s_;
  std::vector<ThreadResult> results_;
  LoopTimes loop_times_;
  ThreadResult tail_;
  Outcome setup_outcome_;
  std::vector<double> reopen_ms_, recover_ms_, wal_replayed_;
  lilsm::Stats stats_before_, stats_after_;
  SpanTable spans_{};
  double space_amp_ = 0, index_mem_bytes_ = 0, live_keys_ = 0;
  std::vector<Metric> metrics_;
};

Status Run::GenerateKeys() {
  // Loaded keys and absent keys interleave in one books key set, so
  // absent-key probes and fresh inserts land inside the loaded key range.
  const size_t stride = 1 + cfg_.pool_factor;
  const std::vector<Key> all = lilsm::GenerateKeys(
      lilsm::Dataset::kBooks, stride * cfg_.load_keys, args_.seed);
  if (all.size() != stride * cfg_.load_keys) {
    return Status::InvalidArgument("books generator returned too few keys");
  }
  loaded_.reserve(cfg_.load_keys);
  absent_.reserve(cfg_.load_keys * cfg_.pool_factor);
  for (size_t i = 0; i < all.size(); i++) {
    (i % stride == 0 ? loaded_ : absent_).push_back(all[i]);
  }
  const size_t n = cfg_.threads;
  versions_.assign(n, 0);
  for (size_t t = 0; t < n; t++) {
    const uint64_t seed = args_.seed * 0x9E3779B97f4A7C15ull + t + 1;
    rnd_.push_back(std::make_unique<Random>(seed));
    zipf_.push_back(std::make_unique<ZipfGenerator>(loaded_.size(), 0.99, seed));
    fresh_begin_.push_back(absent_.size() * t / n);
    fresh_next_.push_back(fresh_begin_.back());
    fresh_end_.push_back(absent_.size() * (t + 1) / n);
  }
  return Status::OK();
}

Status Run::Setup() {
  options_ = MakeOptions(cfg_, &env_);
  for (int rep = 0; rep < cfg_.setup_reps; rep++) {
    db_.reset();
    const uint64_t t0 = NowNs();
    Status s = LoadAndSettle(options_, db_path_, loaded_, args_.seed, &db_);
    if (!s.ok()) return s;
    if (args_.workload == Workload::kServerRpc) {
      // Warm the block cache with one pass over every loaded key.
      std::vector<std::string> values;
      std::vector<Status> statuses;
      for (size_t i = 0; i < loaded_.size(); i += 256) {
        const size_t n = std::min<size_t>(256, loaded_.size() - i);
        s = db_->MultiGet(ReadOptions(), std::span<const Key>(&loaded_[i], n),
                          &values, &statuses);
        if (!s.ok()) return s;
        for (size_t k = 0; k < n; k++) {
          CheckRead(statuses[k], loaded_[i + k], true, values[k], &setup_outcome_);
        }
      }
    }
    setup_s_.push_back(Seconds(NowNs() - t0));
  }
  return Status::OK();
}

void Run::OpPointLookup(size_t t, bool traced, ThreadResult* r) {
  Random* rnd = rnd_[t].get();
  const bool present = rnd->Uniform(10) != 0;
  const Key key = present ? loaded_[rnd->Uniform(loaded_.size())]
                          : absent_[rnd->Uniform(absent_.size())];
  ReadOptions ro;
  if (traced) ro.stats = &traced_stats_;
  std::string value;
  Status s;
  const uint64_t t0 = NowNs();
  {
    ScopedSpan span(traced, kLsmGet, traced ? Tracer::NextRequestId() : 0);
    s = db_->Get(ro, key, &value);
  }
  if (!traced) r->read.Add(r->window, NowNs() - t0);
  CheckRead(s, key, present, value, &r->outcome);
  r->AddUnits(traced, 1);
}

void Run::OpMixed(size_t t, bool traced, ThreadResult* r) {
  Random* rnd = rnd_[t].get();
  const uint64_t dice = rnd->Uniform(100);
  const uint64_t request = traced ? Tracer::NextRequestId() : 0;
  if (dice < 40) {  // zipfian Get
    const Key key = Zipf(t);
    ReadOptions ro;
    if (traced) ro.stats = &traced_stats_;
    std::string value;
    Status s;
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(traced, kLsmGet, request);
      s = db_->Get(ro, key, &value);
    }
    if (!traced) r->read.Add(r->window, NowNs() - t0);
    CheckRead(s, key, true, value, &r->outcome);
    r->AddUnits(traced, 1);
  } else if (dice < 95) {  // zipfian update or fresh insert
    Key key;
    if (dice < 75) {
      key = Zipf(t);
    } else {
      // This thread's slice of the pool; once used up it starts over, so
      // later "fresh" Puts overwrite keys this thread inserted earlier.
      if (fresh_next_[t] == fresh_end_[t]) fresh_next_[t] = fresh_begin_[t];
      key = absent_[fresh_next_[t]++];
      r->fresh_inserted++;
    }
    char value[kValueSize];
    FillValue(key, NextVersion(t), value);
    Status s;
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(traced, kLsmPut, request);
      s = db_->Put(WriteOptions(), key, lilsm::Slice(value, kValueSize));
    }
    if (!traced) r->write.Add(r->window, NowNs() - t0);
    CheckWrite(s, &r->outcome);
    r->AddUnits(traced, 1);
    r->records_written[traced]++;
  } else {  // 100-entry range lookup
    const Key start = ScanStart(rnd);
    std::vector<std::pair<Key, std::string>> rows;
    Status s;
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(traced, kLsmScan, request);
      s = db_->RangeLookup(ReadOptions(), start, kScanLength, &rows);
    }
    if (!traced) r->scan.Add(r->window, NowNs() - t0);
    CheckScan(s, start, rows, loaded_, &r->outcome);
    r->AddUnits(traced, rows.size());
  }
}

void Run::OpRpc(size_t t, bool traced, ThreadResult* r) {
  Random* rnd = rnd_[t].get();
  Client* client = clients_[t].get();
  const uint64_t request = traced ? Tracer::NextRequestId() : 0;
  Key keys[kRpcBatch];
  for (Key& k : keys) k = Zipf(t);
  if (rnd->Uniform(10) == 0) {  // WriteBatch of 16 updates
    WriteBatch batch;
    char value[kValueSize];
    for (Key k : keys) {
      FillValue(k, NextVersion(t), value);
      batch.Put(k, lilsm::Slice(value, kValueSize));
    }
    if (traced) pending_.Register(HashBatch(batch), request);
    Status s;
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(traced, kClientWrite, request);
      span.set_amount(kRpcBatch);
      s = client->Write(batch);
    }
    if (!traced) r->write.Add(r->window, NowNs() - t0);
    if (traced) pending_.Unregister(request);
    CheckWrite(s, &r->outcome);
    r->AddUnits(traced, kRpcBatch);
    r->records_written[traced] += kRpcBatch;
  } else {  // MultiGet of 16 keys
    const std::span<const Key> span_keys(keys, kRpcBatch);
    if (traced) pending_.Register(HashKeys(span_keys), request);
    std::vector<std::string> values;
    std::vector<Status> statuses;
    Status s;
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(traced, kClientMultiGet, request);
      span.set_amount(kRpcBatch);
      s = client->MultiGet(span_keys, &values, &statuses);
    }
    if (!traced) r->read.Add(r->window, NowNs() - t0);
    if (traced) pending_.Unregister(request);
    if (!s.ok() || statuses.size() != kRpcBatch || values.size() != kRpcBatch) {
      r->outcome.attempted++;
      r->outcome.Fail("multiget: " + s.ToString());
      return;
    }
    for (size_t i = 0; i < kRpcBatch; i++) {
      CheckRead(statuses[i], keys[i], true, values[i], &r->outcome);
    }
    r->AddUnits(traced, kRpcBatch);
  }
}

void Run::TimedPhase() {
  std::function<void(size_t, bool, ThreadResult*)> op;
  switch (args_.workload) {
    case Workload::kPointLookup:
      op = [this](size_t t, bool tr, ThreadResult* r) { OpPointLookup(t, tr, r); };
      break;
    case Workload::kMixedIngest:
      op = [this](size_t t, bool tr, ThreadResult* r) { OpMixed(t, tr, r); };
      break;
    case Workload::kServerRpc:
      op = [this](size_t t, bool tr, ThreadResult* r) { OpRpc(t, tr, r); };
      break;
  }
  std::function<void(size_t)> probe;
  if (!cfg_.timed_scans) probe = [this](size_t window) { Probe(window); };
  loop_times_ = RunClosedLoop(cfg_.threads, cpus_.request, args_.seconds, args_.trace,
                              op, probe, &results_);
}

void Run::Probe(size_t window) {
  Random rnd(args_.seed ^ (0x5ca7ull + window));
  std::vector<std::pair<Key, std::string>> rows;
  ReadOptions ro;
  ro.snapshot = probe_snapshot_;
  for (size_t i = 0; i < kProbeScans; i++) {
    const Key start = ScanStart(&rnd);
    const uint64_t t0 = NowNs();
    Status s = db_->RangeLookup(ro, start, kScanLength, &rows);
    tail_.scan.Add(window, NowNs() - t0);
    CheckScan(s, start, rows, loaded_, &tail_.outcome);
  }
}

Status Run::Tail() {
  // Updates of loaded keys go through the WAL (no flush), so each reopen
  // replays kTailWrites records.
  Random rnd(args_.seed ^ 0x7a11ull);
  uint64_t version = uint64_t{1} << 50;
  char value[kValueSize];
  for (size_t cycle = 0; cycle < kTailCycles; cycle++) {
    for (size_t i = 0; i < kTailWrites; i++) {
      const Key key = loaded_[rnd.Uniform(loaded_.size())];
      FillValue(key, ++version, value);
      const uint64_t t0 = NowNs();
      Status s = db_->Put(WriteOptions(), key, lilsm::Slice(value, kValueSize));
      tail_.write.Add(cycle, NowNs() - t0);
      CheckWrite(s, &tail_.outcome);
    }
    db_.reset();
    // Spaces the reopens over several seconds, so that at least some of
    // them fall outside any one slow spell of the host.
    std::this_thread::sleep_for(kTailReopenGap);
    const Key probe = loaded_[rnd.Uniform(loaded_.size())];
    std::string probe_value;
    const uint64_t t0 = NowNs();
    Status s = DB::Open(options_, db_path_, &db_);
    if (!s.ok()) return s;
    s = db_->Get(ReadOptions(), probe, &probe_value);
    reopen_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    // Untimed: fold the recovered L0 table in, so every round starts from
    // a settled tree instead of piling up L0 files.
    Status settle = db_->CompactUntilStable();
    if (!settle.ok()) return settle;
    CheckRead(s, probe, true, probe_value, &tail_.outcome);
    recover_ms_.push_back(db_->stats()->TimeNanos(Timer::kRecover) / 1e6);
    wal_replayed_.push_back(
        static_cast<double>(db_->stats()->Count(Counter::kWalRecordsReplayed)));
  }
  return Status::OK();
}

void Run::PrintContext() {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg_.name, static_cast<unsigned long long>(args_.seed),
              args_.seconds, args_.trace ? 1 : 0);
  std::printf("# git_sha=%s build_type=%s nproc=%ld\n", args_.git_sha.c_str(),
              args_.build_type.c_str(), ::sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# db_dir=%s filesystem=%s\n", db_path_.c_str(),
              FsType(args_.dir).c_str());
  std::printf("# env=PosixEnv, no modeled latency (TracedEnv decorator)\n");
  std::printf("# flush policy: sync_wal=false; tables and MANIFEST synced by "
              "the engine to the page cache only (as on tmpfs); set-up bulk "
              "load with the WAL off\n");
  std::printf("# engine: %s, block cache %zu MiB, index PGM (defaults)\n",
              cfg_.background ? "kBackground + group commit, 1 background job"
                              : "kInline",
              cfg_.block_cache_mb);
  std::printf("# dataset: books, %zu loaded keys, %zu absent/fresh keys, "
              "%u B keys, %zu B values; %zu closed-loop %s\n",
              loaded_.size(), absent_.size(), kKeySize, kValueSize, cfg_.threads,
              args_.workload == Workload::kServerRpc ? "client connections"
                                                     : "threads");
  std::printf("# tail: %zu x (%zu updates, close, reopen); scan probes of %zu; "
              "write samples from %s, scan samples from %s\n",
              kTailCycles, kTailWrites, kProbeScans,
              cfg_.timed_writes ? "timed phase" : "tail",
              cfg_.timed_scans ? "timed phase" : "probes");
  if (cpus_.request >= 0) {
    std::printf("# cpus: request path (clients, server loop and workers) on CPU %d, "
                "every other thread on the other %d\n",
                cpus_.request, CPU_COUNT(&cpus_.rest));
  }
}

int Run::Main() {
  std::signal(SIGPIPE, SIG_IGN);
  std::error_code ec;
  std::filesystem::create_directories(args_.dir, ec);
  uint64_t mark = NowNs();
  std::string phases;
  auto phase_done = [&](const char* name) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s %.2f s", phases.empty() ? "" : ", ",
                  name, Seconds(NowNs() - mark));
    phases += buf;
    mark = NowNs();
  };
  if (args_.workload == Workload::kServerRpc) {
    // Before any thread starts, so the engine's background thread and the
    // Env's pool inherit the rest of the CPUs.
    cpus_ = SplitCpus();
    if (cpus_.request >= 0) PinThisThread(cpus_.rest);
  }
  Status s = GenerateKeys();
  phase_done("keys");
  if (s.ok()) s = Setup();
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", s.ToString().c_str());
    return 1;
  }
  phase_done("setup");
  WriteBack(db_path_);
  phase_done("writeback");
  PrintContext();
  std::fflush(stdout);

  if (args_.workload == Workload::kServerRpc) {
    traced_db_ = std::make_unique<TracedDB>(db_.get(), &pending_, &traced_stats_);
    lilsm::ServerOptions so;
    so.socket_path = args_.dir + "/rpc.sock";
    so.num_workers = 4;
    // The server's threads inherit the request CPU from this thread.
    PinThisThread(cpus_.request);
    s = lilsm::Server::Start(traced_db_.get(), so, &server_);
    if (cpus_.request >= 0) PinThisThread(cpus_.rest);
    for (size_t t = 0; s.ok() && t < cfg_.threads; t++) {
      clients_.emplace_back();
      s = Client::Connect(so.socket_path, &clients_.back());
    }
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: server: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  if (!cfg_.timed_scans) probe_snapshot_ = db_->GetSnapshot();
  stats_before_ = *db_->stats();
  TimedPhase();
  clients_.clear();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  traced_db_.reset();
  if (probe_snapshot_ != nullptr) db_->ReleaseSnapshot(probe_snapshot_);
  probe_snapshot_ = nullptr;
  phase_done("timed");
  s = Quiesce(db_.get());
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: quiesce: %s\n", s.ToString().c_str());
    return 1;
  }
  stats_after_ = *db_->stats();
  spans_ = Tracer::Collect();

  size_t fresh = 0;
  for (size_t t = 0; t < results_.size(); t++) {
    fresh += std::min<size_t>(results_[t].fresh_inserted,
                              fresh_end_[t] - fresh_begin_[t]);
  }
  live_keys_ = static_cast<double>(loaded_.size() + fresh);
  space_amp_ = Ratio(static_cast<double>(DirBytes(db_path_)),
                     live_keys_ * static_cast<double>(kRecordBytes));
  index_mem_bytes_ = static_cast<double>(db_->TotalIndexMemory());
  phase_done("quiesce");
  WriteBack(db_path_);
  phase_done("writeback");

  s = Tail();
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: tail: %s\n", s.ToString().c_str());
    return 1;
  }
  phase_done("tail");
  db_.reset();
  DB::Destroy(options_, db_path_);
  phase_done("close");
  std::printf("# phases: %s\n", phases.c_str());
  if (args_.trace) {
    const std::string path = args_.dir + "/spans.tsv";
    const size_t n = Tracer::WriteSpans(path);
    std::printf("# trace: %zu spans written to %s\n", n, path.c_str());
  }
  Report();
  return 0;
}

void Run::Report() {
  ThreadResult all;
  Outcome outcome = setup_outcome_;
  for (const ThreadResult& r : results_) {
    all.read.Append(r.read);
    all.write.Append(r.write);
    all.scan.Append(r.scan);
    outcome.Merge(r.outcome);
    if (all.window_units.size() < r.window_units.size()) {
      all.window_units.resize(r.window_units.size());
    }
    for (size_t w = 0; w < r.window_units.size(); w++) {
      all.window_units[w] += r.window_units[w];
    }
    for (int m = 0; m < 2; m++) {
      all.units[m] += r.units[m];
      all.ops[m] += r.ops[m];
      all.op_ns[m] += r.op_ns[m];
      all.records_written[m] += r.records_written[m];
    }
  }
  outcome.Merge(tail_.outcome);
  if (!cfg_.timed_writes) all.write = tail_.write;
  if (!cfg_.timed_scans) all.scan = tail_.scan;

  const double failed_frac =
      Ratio(static_cast<double>(outcome.failed), static_cast<double>(outcome.attempted));
  std::printf("# checks: attempted=%llu failed=%llu wrong=%llu failed_frac=%.6g%s%s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.wrong), failed_frac,
              outcome.first_problem.empty() ? "" : " first problem: ",
              outcome.first_problem.c_str());

  if (!args_.trace) {
    // Throughput, p50 and p99 are medians over measurement windows.
    std::vector<double> window_kops;
    for (size_t w = 0; w < loop_times_.windows.size(); w++) {
      const double units = w < all.window_units.size()
                               ? static_cast<double>(all.window_units[w])
                               : 0.0;
      window_kops.push_back(Ratio(units, loop_times_.windows[w]) / 1e3);
    }
    std::sort(window_kops.begin(), window_kops.end());
    std::printf("# kops/s over %zu windows: min %.1f, median %.1f, max %.1f\n",
                window_kops.size(), window_kops.empty() ? 0.0 : window_kops.front(),
                Median(window_kops), window_kops.empty() ? 0.0 : window_kops.back());
    double pct[3][2];
    const std::pair<const char*, const Samples*> classes[3] = {
        {"read", &all.read}, {"write", &all.write}, {"scan", &all.scan}};
    for (int c = 0; c < 3; c++) {
      size_t groups = 0;
      pct[c][0] = GroupedPercentileUs(*classes[c].second, 0.50, &groups);
      pct[c][1] = GroupedPercentileUs(*classes[c].second, 0.99, nullptr);
      const size_t n = classes[c].second->Count();
      std::printf("# %s samples: %zu in %zu groups (%zu beyond the pooled p99)\n",
                  classes[c].first, n, groups, SamplesBeyond(n, 0.99));
    }
    // A reopen is one thread's work for ~20 ms, and on a shared host
    // reopens come in streaks a third slower than the rest; the fastest of
    // the tail's reopens is the one the host left alone.
    const double reopen_ms = *std::min_element(reopen_ms_.begin(), reopen_ms_.end());
    std::printf("# reopen ms over %zu reopens: min %.2f, median %.2f\n",
                reopen_ms_.size(), reopen_ms, Median(reopen_ms_));
    metrics_ = {
        {"setup_s", Median(setup_s_), "s"},
        {"throughput_kops", Median(window_kops), "kops/s"},
        {"read_p50_us", pct[0][0], "us"},
        {"read_p99_us", pct[0][1], "us"},
        {"write_p50_us", pct[1][0], "us"},
        {"write_p99_us", pct[1][1], "us"},
        {"scan_p50_us", pct[2][0], "us"},
        {"scan_p99_us", pct[2][1], "us"},
        {"reopen_ms", reopen_ms, "ms"},
        {"space_amp", space_amp_, "ratio"},
        {"index_mem_mib", index_mem_bytes_ / 1048576.0, "MiB"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
    };
  } else {
    ReportLayers(all);
  }

  for (const Metric& m : metrics_) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += outcome.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); i++) {
    char buf[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i > 0 ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void Run::ReportLayers(const ThreadResult& all) {
  const StatsDelta db{stats_before_, stats_after_};
  const lilsm::Stats& tr = traced_stats_;
  auto span = [&](uint16_t name, uint16_t root) -> const SpanTotals& {
    return spans_[name][root];
  };
  auto sum_roots = [&](uint16_t name, std::initializer_list<uint16_t> roots,
                       uint64_t SpanTotals::*field) {
    double total = 0;
    for (uint16_t r : roots) total += static_cast<double>(span(name, r).*field);
    return total;
  };
  const std::initializer_list<uint16_t> engine_roots = {kLsmGet, kLsmPut, kLsmScan,
                                                         kLsmMultiGet, kLsmWrite};
  const std::initializer_list<uint16_t> read_roots = {kLsmGet, kLsmMultiGet};
  const std::initializer_list<uint16_t> all_roots = {
      kLsmGet, kLsmPut, kLsmScan, kLsmMultiGet, kLsmWrite, kClientMultiGet,
      kClientWrite, kEnvRead, kEnvAppend, kEnvSync, kEnvSeqRead};

  // Traced lookups: in-process Gets plus keys of traced MultiGets.
  const SpanTotals& get = span(kLsmGet, kLsmGet);
  const SpanTotals& mget = span(kLsmMultiGet, kLsmMultiGet);
  const double gets = static_cast<double>(get.count + mget.amount);
  const double per_get = Ratio(1.0, gets);

  const double client_n = static_cast<double>(span(kClientMultiGet, kClientMultiGet).count +
                                              span(kClientWrite, kClientWrite).count);
  const double client_ns = static_cast<double>(span(kClientMultiGet, kClientMultiGet).dur_ns +
                                               span(kClientWrite, kClientWrite).dur_ns);
  const double engine_req_ns =
      static_cast<double>(mget.dur_ns + span(kLsmWrite, kLsmWrite).dur_ns);
  const double server_self_ns = client_n > 0 ? client_ns - engine_req_ns : 0;

  const double writes_n = static_cast<double>(span(kLsmPut, kLsmPut).count +
                                              span(kLsmWrite, kLsmWrite).count);
  const double write_self_ns = static_cast<double>(span(kLsmPut, kLsmPut).self_ns +
                                                   span(kLsmWrite, kLsmWrite).self_ns);

  const double env_read_n = sum_roots(kEnvRead, read_roots, &SpanTotals::count);
  const double env_read_bytes = sum_roots(kEnvRead, read_roots, &SpanTotals::amount);
  const double env_read_ns = sum_roots(kEnvRead, read_roots, &SpanTotals::dur_ns);
  double env_fg_ns = 0;
  for (uint16_t name : {kEnvRead, kEnvAppend, kEnvSync, kEnvSeqRead}) {
    env_fg_ns += sum_roots(name, engine_roots, &SpanTotals::dur_ns);
  }
  const double appended = sum_roots(kEnvAppend, all_roots, &SpanTotals::amount);
  const double syncs = sum_roots(kEnvSync, all_roots, &SpanTotals::count);
  const double sync_ns = sum_roots(kEnvSync, all_roots, &SpanTotals::dur_ns);

  const double bloom_ns = static_cast<double>(tr.TimeNanos(Timer::kBloomCheck));
  const double predict_ns = static_cast<double>(tr.TimeNanos(Timer::kIndexPredict));
  const double search_ns = static_cast<double>(tr.TimeNanos(Timer::kBinarySearch));
  const double disk_ns = static_cast<double>(tr.TimeNanos(Timer::kDiskRead));
  const double hits = static_cast<double>(tr.Count(Counter::kBlockCacheHits));
  const double misses = static_cast<double>(tr.Count(Counter::kBlockCacheMisses));
  const double negatives = static_cast<double>(tr.Count(Counter::kBloomNegatives));
  const double false_pos = static_cast<double>(tr.Count(Counter::kBloomFalsePositive));

  // Attribution of the mean traced operation latency to layers.
  const double ops = static_cast<double>(all.ops[1]);
  const double op_mean_ns = Ratio(static_cast<double>(all.op_ns[1]), ops);
  double engine_self_ns = 0;
  for (uint16_t name : engine_roots) engine_self_ns += static_cast<double>(span(name, name).self_ns);
  const double table_self_ns = std::max(0.0, disk_ns - env_read_ns);
  const double index_ns = predict_ns + search_ns;
  const double attr_server = Ratio(server_self_ns, ops);
  const double attr_bloom = Ratio(bloom_ns, ops);
  const double attr_index = Ratio(index_ns, ops);
  const double attr_table = Ratio(table_self_ns, ops);
  const double attr_env = Ratio(env_fg_ns, ops);
  const double attr_lsm =
      Ratio(engine_self_ns, ops) - attr_bloom - attr_index - attr_table;
  const double unattributed = op_mean_ns - attr_server - attr_lsm - attr_bloom -
                              attr_index - attr_table - attr_env;

  const double tput_untraced = Ratio(static_cast<double>(all.units[0]), loop_times_.seconds[0]);
  const double tput_traced = Ratio(static_cast<double>(all.units[1]), loop_times_.seconds[1]);
  const double user_bytes = static_cast<double>(all.records_written[1] * kRecordBytes);

  std::printf("# layer attribution of the mean traced operation (%.0f ops):\n", ops);
  std::printf("#   op_mean %.3f us = server %.3f + lsm %.3f + bloom %.3f + index %.3f"
              " + table %.3f + env %.3f + unattributed %.3f\n",
              op_mean_ns / 1e3, attr_server / 1e3, attr_lsm / 1e3, attr_bloom / 1e3,
              attr_index / 1e3, attr_table / 1e3, attr_env / 1e3, unattributed / 1e3);

  metrics_ = {
      {"client.rtt_us", Ratio(client_ns, client_n) / 1e3, "us"},
      {"server.self_us_per_req", Ratio(server_self_ns, client_n) / 1e3, "us"},
      {"server.queue_us", Ratio(db.Nanos(Timer::kServerQueue), db.Calls(Timer::kServerQueue)) / 1e3, "us"},
      {"server.bytes_per_req",
       Ratio(db.Count(Counter::kServerBytesIn) + db.Count(Counter::kServerBytesOut),
             db.Count(Counter::kServerRequests)),
       "B"},
      {"lsm.get_self_us", Ratio(static_cast<double>(get.self_ns), static_cast<double>(get.count)) / 1e3, "us"},
      {"lsm.multiget_self_us_per_key",
       Ratio(static_cast<double>(mget.self_ns), static_cast<double>(mget.amount)) / 1e3, "us"},
      {"lsm.write_self_us", Ratio(write_self_ns, writes_n) / 1e3, "us"},
      {"lsm.tables_per_get", static_cast<double>(tr.Count(Counter::kTablesConsulted)) * per_get, "count"},
      {"lsm.table_lookup_ns_per_get", static_cast<double>(tr.TimeNanos(Timer::kTableLookup)) * per_get, "ns"},
      {"lsm.memtable_ns_per_get", static_cast<double>(tr.TimeNanos(Timer::kMemtableGet)) * per_get, "ns"},
      {"lsm.flushes", db.Count(Counter::kFlushes), "count"},
      {"lsm.compactions", db.Count(Counter::kCompactions), "count"},
      {"lsm.compaction_s", db.Nanos(Timer::kCompactTotal) / 1e9, "s"},
      {"lsm.write_stalls", db.Count(Counter::kWriteStalls), "count"},
      {"lsm.write_slowdowns", db.Count(Counter::kWriteSlowdowns), "count"},
      {"lsm.group_size_mean",
       Ratio(db.Count(Counter::kGroupCommitBatchSize), db.Count(Counter::kGroupCommits)), "count"},
      {"lsm.recover_ms", Median(recover_ms_), "ms"},
      {"lsm.wal_records_replayed", Median(wal_replayed_), "count"},
      {"bloom.ns_per_get", bloom_ns * per_get, "ns"},
      {"bloom.fp_ratio", Ratio(false_pos, false_pos + negatives), "ratio"},
      {"index.predict_ns_per_get", predict_ns * per_get, "ns"},
      {"index.search_ns_per_get", search_ns * per_get, "ns"},
      {"index.segments_per_get", static_cast<double>(tr.Count(Counter::kSegmentsFetched)) * per_get, "count"},
      {"index.train_s", db.Nanos(Timer::kCompactTrain) / 1e9, "s"},
      {"index.write_model_s", db.Nanos(Timer::kCompactWriteModel) / 1e9, "s"},
      {"index.bytes_per_key", Ratio(index_mem_bytes_, live_keys_), "B"},
      {"table.read_ns_per_get", disk_ns * per_get, "ns"},
      {"table.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"table.cache_lookups", hits + misses, "count"},
      {"table.cache_evictions", static_cast<double>(tr.Count(Counter::kBlockCacheEvictions)), "count"},
      {"env.reads_per_get", env_read_n * per_get, "count"},
      {"env.read_bytes_per_get", env_read_bytes * per_get, "B"},
      {"env.read_self_us", env_read_ns * per_get / 1e3, "us"},
      {"env.write_amp", Ratio(appended, user_bytes), "ratio"},
      {"env.syncs", syncs, "count"},
      {"env.sync_us", Ratio(sync_ns, syncs) / 1e3, "us"},
      {"trace_overhead_pct", Ratio(tput_untraced - tput_traced, tput_untraced) * 100.0, "%"},
      {"op_mean_us", op_mean_ns / 1e3, "us"},
      {"attr.server_us", attr_server / 1e3, "us"},
      {"attr.lsm_us", attr_lsm / 1e3, "us"},
      {"attr.bloom_us", attr_bloom / 1e3, "us"},
      {"attr.index_us", attr_index / 1e3, "us"},
      {"attr.table_us", attr_table / 1e3, "us"},
      {"attr.env_us", attr_env / 1e3, "us"},
      {"unattributed_us", unattributed / 1e3, "us"},
  };
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      if (value == "point_lookup") {
        args->workload = Workload::kPointLookup;
      } else if (value == "mixed_ingest") {
        args->workload = Workload::kMixedIngest;
      } else if (value == "server_rpc") {
        args->workload = Workload::kServerRpc;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--dir") {
      args->dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--build-type") {
      args->build_type = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload point_lookup|mixed_ingest|server_rpc "
                 "--seed N --seconds S --trace 0|1 --dir WORKDIR "
                 "[--git-sha SHA] [--build-type TYPE]\n",
                 argv[0]);
    return 2;
  }
  perfbench::Run run(args);
  return run.Main();
}
