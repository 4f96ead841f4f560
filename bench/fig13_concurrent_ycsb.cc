// Figure 13 (beyond the paper): aggregate YCSB throughput against thread
// count under ConcurrencyMode::kBackground — the payoff of moving flushes
// and compactions off the foreground path. Readers pin refcounted state
// and proceed concurrently; writers serialize on the DB mutex but only
// stall on the L0 triggers. Compare e.g.:
//   fig13_concurrent_ycsb --threads 1
//   fig13_concurrent_ycsb --threads 4
//
// Device model: a SimEnv in sleep mode — every table read blocks for a
// disk-class latency instead of busy-spinning, so concurrent readers
// overlap their waits exactly the way a real device serves a queue of
// outstanding I/Os. That makes the speedup visible even on a single core
// (the paper figures are unaffected: they all run kInline with the
// spinning SimEnv; see EXPERIMENTS.md).
//
// Write-heavy mode (PR 6): --workload=writeheavy switches to the parallel
// write path experiment — N writer threads issue sync'd Puts on disjoint
// key stripes against a device model that charges a ~100 us fsync
// (SimEnvOptions::sync_latency_ns). Group commit amortizes that fsync
// across the writer queue, so aggregate throughput scales with --writers;
// the run reports group-commit/stall/subcompaction counters alongside the
// ops table. Compare e.g.:
//   fig13_concurrent_ycsb --workload=writeheavy --writers=1
//   fig13_concurrent_ycsb --workload=writeheavy --writers=4
// Knobs: --bg-jobs=N and --subcompactions=N (default 2 each here, 1 in
// YCSB mode).
//
// Server mode (PR 8): --server --clients=N runs the same zipfian read
// workload through the service layer instead of in-process calls — a
// lilsm_server embedded in the bench process, N client threads each with
// its own unix-socket connection, every request one MultiGet batch
// (default 256 keys) in one frame each way. Client batches land on the
// worker pool and overlap their device waits, so aggregate throughput
// scales with --clients the way in-process threads scale in YCSB mode.
// The run reports the kServerRequests / kServerBatchKeys / kServerBytes*
// counters and the parse-to-worker queue delay. Compare e.g.:
//   fig13_concurrent_ycsb --server --clients=1
//   fig13_concurrent_ycsb --server --clients=4
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "client/client.h"
#include "lsm/db.h"
#include "server/server.h"
#include "util/sim_env.h"
#include "workload/dataset.h"
#include "workload/ycsb.h"

using namespace lilsm;

namespace {

struct ThreadResult {
  uint64_t ops = 0;
  uint64_t not_found = 0;
  Status status;
};

void RunWorker(DB* db, const std::vector<Key>& keys, YcsbWorkload workload,
               size_t ops, uint32_t value_size, uint64_t seed,
               size_t thread_id, size_t num_threads, size_t multiget_batch,
               ThreadResult* result) {
  YcsbGenerator gen(workload, keys.size(), seed);
  const Key max_key = keys.back();
  std::string value;
  std::vector<std::pair<Key, std::string>> range;
  std::vector<Key> pending;  // buffered reads for --multiget-batch
  std::vector<std::string> mg_values;
  std::vector<Status> mg_statuses;
  auto flush_reads = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    Status s = db->MultiGet(ReadOptions(), pending, &mg_values,
                            &mg_statuses);
    if (s.ok()) {
      for (const Status& st : mg_statuses) {
        if (st.IsNotFound()) {
          result->not_found++;
        } else if (!st.ok()) {
          s = st;
          break;
        }
      }
    }
    result->ops += pending.size();
    pending.clear();
    return s;
  };
  for (size_t i = 0; i < ops; i++) {
    const YcsbOp op = gen.Next();
    // Inserts address indexes past the loaded set: synthesize fresh keys
    // above max_key, striped so threads do not collide.
    const Key key =
        op.key_index < keys.size()
            ? keys[op.key_index]
            : max_key + 1 +
                  (op.key_index - keys.size()) * num_threads + thread_id;
    Status s;
    if (multiget_batch > 1 && op.type == YcsbOp::Type::kRead) {
      pending.push_back(key);
      if (pending.size() >= multiget_batch) {
        s = flush_reads();
        if (!s.ok()) {
          result->status = s;
          return;
        }
      }
      continue;
    }
    if (multiget_batch > 1 && !pending.empty()) {
      // A write/scan op follows buffered reads: flush so those reads are
      // not reordered past it.
      s = flush_reads();
      if (!s.ok()) {
        result->status = s;
        return;
      }
    }
    switch (op.type) {
      case YcsbOp::Type::kRead:
        s = db->Get(key, &value);
        if (s.IsNotFound()) {
          result->not_found++;
          s = Status::OK();
        }
        break;
      case YcsbOp::Type::kUpdate:
      case YcsbOp::Type::kInsert:
        s = db->Put(key, DeriveValue(key + i, value_size));
        break;
      case YcsbOp::Type::kScan:
        s = db->RangeLookup(key, op.scan_length, &range);
        break;
      case YcsbOp::Type::kReadModifyWrite:
        s = db->Get(key, &value);
        if (s.IsNotFound()) {
          result->not_found++;
          s = Status::OK();
        }
        if (s.ok()) {
          s = db->Put(key, DeriveValue(key + i + 1, value_size));
        }
        break;
    }
    if (!s.ok()) {
      result->status = s;
      return;
    }
    result->ops++;
  }
  result->status = flush_reads();
}

/// One write-heavy worker: sync'd Puts on the writer's disjoint key
/// stripe (w * 2^32 + i), fresh keys throughout — an ingest stream.
void RunWriteWorker(DB* db, size_t ops, uint32_t value_size, size_t writer,
                    ThreadResult* result) {
  WriteOptions wopts;
  wopts.sync = true;  // every write wants durability; groups amortize it
  for (size_t i = 0; i < ops; i++) {
    const Key key = (static_cast<Key>(writer) << 32) + i + 1;
    Status s = db->Put(wopts, key, DeriveValue(key, value_size));
    if (!s.ok()) {
      result->status = s;
      return;
    }
    result->ops++;
  }
}

/// The write-heavy experiment: aggregate sync'd-Put throughput for one
/// writer count. Fresh DB per call; returns false on failure.
bool RunWriteHeavy(const DBOptions& options, const std::string& dbdir,
                   Env* env, const ExperimentDefaults& d, size_t writers,
                   ReportTable* table) {
  DB::Destroy(options, dbdir);
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dbdir, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "fig13: open: %s\n", s.ToString().c_str());
    return false;
  }
  const size_t ops_per_writer = d.num_ops / writers;
  std::vector<ThreadResult> results(writers);
  const uint64_t start = env->NowNanos();
  {
    std::vector<std::thread> workers;
    for (size_t w = 0; w < writers; w++) {
      workers.emplace_back(RunWriteWorker, db.get(), ops_per_writer,
                           d.value_size, w, &results[w]);
    }
    for (std::thread& w : workers) w.join();
  }
  const double seconds = (env->NowNanos() - start) / 1e9;

  uint64_t total_ops = 0;
  for (const ThreadResult& r : results) {
    if (!r.status.ok()) {
      std::fprintf(stderr, "fig13: writer: %s\n", r.status.ToString().c_str());
      return false;
    }
    total_ops += r.ops;
  }
  const Stats* stats = db->stats();
  const uint64_t groups = stats->Count(Counter::kGroupCommits);
  const uint64_t served = stats->Count(Counter::kGroupCommitBatchSize);
  const double mean_group =
      groups > 0 ? static_cast<double>(served) / groups : 0.0;
  const double kops_per_sec = total_ops / seconds / 1000.0;
  table->AddRow({"writeheavy", std::to_string(writers),
                 std::to_string(total_ops), FormatMicros(kops_per_sec),
                 FormatMicros(seconds * 1e6 * writers / total_ops)});
  std::printf(
      "# writers=%zu: group_commits=%llu mean_group=%.2f write_stalls=%llu "
      "write_slowdowns=%llu subcompactions=%llu flushes=%llu "
      "compactions=%llu\n",
      writers, static_cast<unsigned long long>(groups), mean_group,
      static_cast<unsigned long long>(stats->Count(Counter::kWriteStalls)),
      static_cast<unsigned long long>(stats->Count(Counter::kWriteSlowdowns)),
      static_cast<unsigned long long>(stats->Count(Counter::kSubcompactions)),
      static_cast<unsigned long long>(stats->Count(Counter::kFlushes)),
      static_cast<unsigned long long>(stats->Count(Counter::kCompactions)));
  db.reset();
  DB::Destroy(options, dbdir);
  return true;
}

/// One service-layer client: a dedicated socket connection issuing the
/// zipfian YCSB-C read stream as MultiGet batches, one frame per batch.
void RunServerClient(const std::string& socket_path,
                     const std::vector<Key>& keys, size_t ops, uint64_t seed,
                     size_t batch, ThreadResult* result) {
  std::unique_ptr<Client> client;
  Status s = Client::Connect(socket_path, &client);
  if (!s.ok()) {
    result->status = s;
    return;
  }
  YcsbGenerator gen(YcsbWorkload::kC, keys.size(), seed);
  std::vector<Key> pending;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  pending.reserve(batch);
  for (size_t i = 0; i < ops; i += pending.size()) {
    pending.clear();
    const size_t want = std::min(batch, ops - i);
    while (pending.size() < want) {
      pending.push_back(keys[gen.Next().key_index]);
    }
    s = client->MultiGet(pending, &values, &statuses);
    if (!s.ok()) {
      result->status = s;
      return;
    }
    for (const Status& st : statuses) {
      if (st.IsNotFound()) result->not_found++;
    }
    result->ops += pending.size();
  }
}

/// The client-scaling experiment: aggregate MultiGet throughput through
/// lilsm_server for one client count. Fresh DB per call.
bool RunServerMode(const DBOptions& options, const std::string& dbdir,
                   Env* env, const ExperimentDefaults& d, size_t clients,
                   size_t batch, ReportTable* table) {
  DB::Destroy(options, dbdir);
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dbdir, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "fig13: open: %s\n", s.ToString().c_str());
    return false;
  }
  std::vector<Key> keys = GenerateKeys(d.dataset, d.num_keys, d.seed);
  for (Key key : keys) {
    s = db->Put(key, DeriveValue(key, d.value_size));
    if (!s.ok()) break;
  }
  if (s.ok()) s = db->FlushMemTable();
  if (!s.ok()) {
    std::fprintf(stderr, "fig13: load: %s\n", s.ToString().c_str());
    return false;
  }
  db->stats()->Reset();  // report steady-state service counters only

  ServerOptions server_options;
  // Next to (not inside) the DB dir: Destroy wipes the directory.
  server_options.socket_path = dbdir + ".sock";
  server_options.num_workers =
      static_cast<int>(std::max<size_t>(4, clients));
  std::unique_ptr<Server> server;
  s = Server::Start(db.get(), server_options, &server);
  if (!s.ok()) {
    std::fprintf(stderr, "fig13: server: %s\n", s.ToString().c_str());
    return false;
  }

  const size_t ops_per_client = d.num_ops / clients;
  std::vector<ThreadResult> results(clients);
  const uint64_t start = env->NowNanos();
  {
    std::vector<std::thread> workers;
    for (size_t c = 0; c < clients; c++) {
      workers.emplace_back(RunServerClient, server_options.socket_path,
                           std::cref(keys), ops_per_client,
                           d.seed + 2000 + c, batch, &results[c]);
    }
    for (std::thread& w : workers) w.join();
  }
  const double seconds = (env->NowNanos() - start) / 1e9;
  server->Stop();
  server.reset();

  uint64_t total_ops = 0;
  for (const ThreadResult& r : results) {
    if (!r.status.ok()) {
      std::fprintf(stderr, "fig13: client: %s\n", r.status.ToString().c_str());
      return false;
    }
    total_ops += r.ops;
  }
  const Stats* stats = db->stats();
  const double kops_per_sec = total_ops / seconds / 1000.0;
  table->AddRow({"server/C", std::to_string(clients),
                 std::to_string(total_ops), FormatMicros(kops_per_sec),
                 FormatMicros(seconds * 1e6 * clients / total_ops)});
  std::printf(
      "# clients=%zu: server_requests=%llu batch_keys=%llu "
      "bytes_in=%llu bytes_out=%llu queue_us=%.1f\n",
      clients,
      static_cast<unsigned long long>(stats->Count(Counter::kServerRequests)),
      static_cast<unsigned long long>(stats->Count(Counter::kServerBatchKeys)),
      static_cast<unsigned long long>(stats->Count(Counter::kServerBytesIn)),
      static_cast<unsigned long long>(stats->Count(Counter::kServerBytesOut)),
      stats->MeanMicros(Timer::kServerQueue));
  db.reset();
  DB::Destroy(options, dbdir);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t threads = 2;
  size_t multiget_batch = 0;
  size_t block_cache_mb = 0;
  // fig13-specific flags are stripped before BenchDefaults (which rejects
  // unknown flags); the rest pass through.
  std::string workload_mode;
  size_t writers = 4;
  size_t bg_jobs = 2;
  size_t subcompactions = 2;
  bool server_mode = false;
  size_t clients = 4;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; i++) {
    size_t value = 0;
    if (std::strcmp(argv[i], "--server") == 0) {
      server_mode = true;
    } else if (bench::ParseSizeFlag(argc, argv, &i, "--clients", &value)) {
      if (value == 0) {
        std::fprintf(stderr, "--clients must be positive\n");
        return 2;
      }
      server_mode = true;
      clients = value;
    } else if (bench::ParseStringFlag(argc, argv, &i, "--workload",
                                      &workload_mode)) {
      if (workload_mode != "writeheavy" && workload_mode != "ycsb") {
        std::fprintf(stderr,
                     "--workload must be 'ycsb' or 'writeheavy' (got '%s')\n",
                     workload_mode.c_str());
        return 2;
      }
    } else if (bench::ParseSizeFlag(argc, argv, &i, "--writers", &value)) {
      if (value == 0) {
        std::fprintf(stderr, "--writers must be positive\n");
        return 2;
      }
      writers = value;
    } else if (bench::ParseSizeFlag(argc, argv, &i, "--bg-jobs", &value)) {
      if (value == 0) {
        std::fprintf(stderr, "--bg-jobs must be positive\n");
        return 2;
      }
      bg_jobs = value;
    } else if (bench::ParseSizeFlag(argc, argv, &i, "--subcompactions",
                                    &value)) {
      if (value == 0) {
        std::fprintf(stderr, "--subcompactions must be positive\n");
        return 2;
      }
      subcompactions = value;
    } else {
      if (std::strcmp(argv[i], "--help") == 0 ||
          std::strcmp(argv[i], "-h") == 0) {
        std::printf(
            "fig13 extras: [--workload ycsb|writeheavy] [--writers N] "
            "[--bg-jobs N] [--subcompactions N] [--server] [--clients N]\n");
      }
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  size_t io_depth = 0;
  ExperimentDefaults d =
      bench::BenchDefaults(pass_argc, passthrough.data(), nullptr, &threads,
                           nullptr, &multiget_batch, &block_cache_mb,
                           &io_depth);
  const bool writeheavy = workload_mode == "writeheavy";

  if (server_mode) {
    bench::PrintHeader("Figure 13", "service-layer client scaling", d);
    // Batch-first default: one frame carries a whole MultiGet batch.
    const size_t batch = multiget_batch > 1 ? multiget_batch : 256;
    // Same blocking device model as YCSB mode, so client batches overlap
    // their read waits on the worker pool.
    SimEnvOptions sim_options = SimEnv::OptionsFromEnvironment();
    sim_options.sleep_instead_of_spin = true;
    if (std::getenv("LILSM_READ_LAT_NS") == nullptr) {
      sim_options.read_base_latency_ns = 20'000;
    }
    SimEnv sim_env(Env::Default(), sim_options);
    std::printf(
        "# clients=%zu, multiget batch=%zu, one frame per batch, "
        "blocking-read device model (%.0f us + OS timer slack)\n\n",
        clients, batch, sim_options.read_base_latency_ns / 1000.0);

    DBOptions options;
    options.env = &sim_env;
    options.concurrency = ConcurrencyMode::kBackground;
    options.write_buffer_size = d.write_buffer_size;
    options.sstable_target_size = d.sstable_target_size;
    options.size_ratio = d.size_ratio;
    options.bloom_bits_per_key = d.bloom_bits_per_key;
    options.key_size = d.key_size;
    options.value_size = d.value_size;
    options.block_cache_bytes = d.block_cache_bytes;
    options.io_depth = d.io_depth;
    const std::string dbdir = bench::BenchDir("fig13");

    ReportTable table("Figure 13 (server): MultiGet throughput by clients");
    table.SetHeader({"workload", "clients", "total ops", "kops/s",
                     "mean us/op"});
    if (!RunServerMode(options, dbdir, &sim_env, d, clients, batch,
                       &table)) {
      return 1;
    }
    table.Emit();
    return 0;
  }

  if (writeheavy) {
    bench::PrintHeader("Figure 13", "parallel write path throughput", d);
    // Blocking device model with an fsync cost: every WAL Sync charges a
    // flash-class ~100 us unless LILSM_SYNC_LAT_NS overrides it. This is
    // the serial cost group commit amortizes across a writer group.
    SimEnvOptions sim_options = SimEnv::OptionsFromEnvironment();
    sim_options.sleep_instead_of_spin = true;
    if (std::getenv("LILSM_SYNC_LAT_NS") == nullptr) {
      sim_options.sync_latency_ns = 100'000;
    }
    SimEnv sim_env(Env::Default(), sim_options);
    std::printf(
        "# writers=%zu, bg_jobs=%zu, subcompactions=%zu, fsync model %.0f "
        "us\n\n",
        writers, bg_jobs, subcompactions,
        sim_options.sync_latency_ns / 1000.0);

    DBOptions options;
    options.env = &sim_env;
    options.concurrency = ConcurrencyMode::kBackground;
    options.max_background_jobs = static_cast<int>(bg_jobs);
    options.max_subcompactions = static_cast<int>(subcompactions);
    options.write_buffer_size = d.write_buffer_size;
    options.sstable_target_size = d.sstable_target_size;
    options.size_ratio = d.size_ratio;
    options.bloom_bits_per_key = d.bloom_bits_per_key;
    options.key_size = d.key_size;
    options.value_size = d.value_size;
    const std::string dbdir = bench::BenchDir("fig13");

    ReportTable table("Figure 13 (write-heavy): sync'd Put throughput");
    table.SetHeader({"workload", "writers", "total ops", "kops/s",
                     "mean us/op"});
    if (!RunWriteHeavy(options, dbdir, &sim_env, d, writers, &table)) {
      return 1;
    }
    table.Emit();
    return 0;
  }
  bench::PrintHeader("Figure 13", "concurrent YCSB aggregate throughput", d);
  if (multiget_batch > 1) {
    std::printf("# reads served through MultiGet, batch=%zu\n\n",
                multiget_batch);
  }
  if (d.block_cache_bytes > 0) {
    std::printf("# shared block cache: %zu MiB\n\n",
                d.block_cache_bytes >> 20);
  }
  if (d.io_depth > 1) {
    std::printf("# async I/O: io_depth=%d\n\n", d.io_depth);
  }

  // Blocking (sleeping) device model: waits overlap across threads. The
  // effective floor is the OS timer slack (~60 us), i.e. a loaded
  // SATA-class read; LILSM_READ_LAT_NS still overrides the target.
  SimEnvOptions sim_options = SimEnv::OptionsFromEnvironment();
  sim_options.sleep_instead_of_spin = true;
  if (std::getenv("LILSM_READ_LAT_NS") == nullptr) {
    sim_options.read_base_latency_ns = 20'000;
  }
  SimEnv sim_env(Env::Default(), sim_options);
  std::printf(
      "# threads=%zu, concurrency=kBackground, blocking-read device model "
      "(%.0f us + OS timer slack)\n\n",
      threads, sim_options.read_base_latency_ns / 1000.0);

  DBOptions options;
  options.env = &sim_env;
  options.concurrency = ConcurrencyMode::kBackground;
  options.write_buffer_size = d.write_buffer_size;
  options.sstable_target_size = d.sstable_target_size;
  options.size_ratio = d.size_ratio;
  options.bloom_bits_per_key = d.bloom_bits_per_key;
  options.key_size = d.key_size;
  options.value_size = d.value_size;
  options.block_cache_bytes = d.block_cache_bytes;
  options.io_depth = d.io_depth;
  const std::string dbdir = bench::BenchDir("fig13");

  ReportTable table("Figure 13: aggregate throughput by workload");
  table.SetHeader({"workload", "threads", "total ops", "kops/s",
                   "mean us/op"});

  for (YcsbWorkload workload :
       {YcsbWorkload::kC, YcsbWorkload::kB, YcsbWorkload::kA}) {
    // Fresh load per workload: writes mutate the tree.
    DB::Destroy(options, dbdir);
    std::unique_ptr<DB> db;
    Status s = DB::Open(options, dbdir, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "fig13: open: %s\n", s.ToString().c_str());
      return 1;
    }
    std::vector<Key> keys = GenerateKeys(d.dataset, d.num_keys, d.seed);
    {
      // Shuffled load, as a YCSB load phase would issue it.
      std::vector<size_t> order(keys.size());
      for (size_t i = 0; i < order.size(); i++) order[i] = i;
      Random rnd(d.seed);
      for (size_t i = order.size(); i > 1; i--) {
        std::swap(order[i - 1], order[rnd.Uniform(i)]);
      }
      for (size_t i : order) {
        s = db->Put(keys[i], DeriveValue(keys[i], d.value_size));
        if (!s.ok()) break;
      }
    }
    if (s.ok()) s = db->FlushMemTable();
    if (!s.ok()) {
      std::fprintf(stderr, "fig13: load: %s\n", s.ToString().c_str());
      return 1;
    }

    std::vector<ThreadResult> results(threads);
    Env* env = &sim_env;
    const uint64_t start = env->NowNanos();
    {
      std::vector<std::thread> workers;
      for (size_t t = 0; t < threads; t++) {
        workers.emplace_back(RunWorker, db.get(), std::cref(keys), workload,
                             d.num_ops, d.value_size, d.seed + 1000 + t, t,
                             threads, multiget_batch, &results[t]);
      }
      for (std::thread& w : workers) w.join();
    }
    const double seconds = (env->NowNanos() - start) / 1e9;

    uint64_t total_ops = 0;
    for (const ThreadResult& r : results) {
      if (!r.status.ok()) {
        std::fprintf(stderr, "fig13: worker: %s\n",
                     r.status.ToString().c_str());
        return 1;
      }
      total_ops += r.ops;
    }
    const double kops_per_sec = total_ops / seconds / 1000.0;
    const double mean_us = seconds * 1e6 * threads / total_ops;
    table.AddRow({YcsbWorkloadName(workload), std::to_string(threads),
                  std::to_string(total_ops), FormatMicros(kops_per_sec),
                  FormatMicros(mean_us)});
    db.reset();
    DB::Destroy(options, dbdir);
  }
  table.Emit();
  return 0;
}
