#include "core/testbed.h"

#include <algorithm>
#include <span>

namespace lilsm {

Status Testbed::Create(const Options& options,
                       std::unique_ptr<Testbed>* testbed) {
  std::unique_ptr<Testbed> bed(new Testbed());
  bed->options_ = options;
  bed->setup_ = options.setup;

  Env* base_env = Env::Default();
  Env* env = base_env;
  if (options.use_sim_env) {
    bed->sim_env_ = std::make_unique<SimEnv>(base_env, options.sim);
    env = bed->sim_env_.get();
  }

  const ExperimentDefaults& d = options.defaults;

  DBOptions db_options;
  db_options.env = env;
  db_options.write_buffer_size = d.write_buffer_size;
  db_options.size_ratio = d.size_ratio;
  db_options.sstable_target_size = d.sstable_target_size;
  db_options.bloom_bits_per_key = d.bloom_bits_per_key;
  db_options.key_size = d.key_size;
  db_options.value_size = d.value_size;
  db_options.index_type = options.setup.type;
  db_options.index_config = options.setup.ToIndexConfig();
  db_options.index_granularity = options.setup.granularity;
  db_options.block_cache_bytes = d.block_cache_bytes;
  db_options.io_depth = d.io_depth;

  DB::Destroy(db_options, options.dir);
  std::unique_ptr<DB> db;
  Status s = DB::Open(db_options, options.dir, &db);
  if (!s.ok()) return s;
  bed->db_ = std::move(db);

  // Dataset: generate load keys plus a disjoint pool for YCSB inserts and
  // negative lookups. Pool keys are spread through the key space by taking
  // every k-th generated key.
  const size_t pool_size = std::max<size_t>(1024, d.num_ops);
  std::vector<Key> all = GenerateKeys(d.dataset, d.num_keys + pool_size,
                                      d.seed);
  bed->keys_.reserve(d.num_keys);
  std::vector<Key> pool;
  pool.reserve(pool_size);
  const size_t stride = all.size() / pool_size;
  for (size_t i = 0; i < all.size(); i++) {
    if (stride > 0 && i % stride == stride / 2 && pool.size() < pool_size) {
      pool.push_back(all[i]);
    } else {
      bed->keys_.push_back(all[i]);
    }
  }
  bed->keys_.resize(std::min(bed->keys_.size(), d.num_keys));
  bed->pool_ = std::move(pool);

  // Load phase: shuffled insertion order, as a YCSB load would produce.
  std::vector<Key> load_order = bed->keys_;
  Random rnd(d.seed ^ 0x10adull);
  for (size_t i = load_order.size(); i > 1; i--) {
    std::swap(load_order[i - 1], load_order[rnd.Uniform(i)]);
  }
  for (Key key : load_order) {
    s = bed->db_->Put(key, DeriveValue(key, d.value_size));
    if (!s.ok()) return s;
  }
  if (options.compact_after_load) {
    s = bed->db_->FlushMemTable();
    if (!s.ok()) return s;
  }
  bed->db_->stats()->Reset();
  *testbed = std::move(bed);
  return Status::OK();
}

Testbed::~Testbed() = default;

Key Testbed::AbsentKey(uint64_t i) const {
  return pool_[i % pool_.size()];
}

Status Testbed::Reconfigure(const IndexSetup& setup) {
  setup_ = setup;
  db_->SetIndexGranularity(setup.granularity);
  return db_->ReconfigureIndexes(setup.type, setup.ToIndexConfig());
}

void Testbed::BeginRun() {
  db_->stats()->Reset();
  read_stats_.Reset();
  // Every measured run starts with a cold block cache: without this, the
  // rows of a (type x boundary) sweep inherit the previous config's warm
  // set and stop being comparable to each other.
  db_->ClearBlockCache();
  if (sim_env_ != nullptr) {
    io_reads_at_start_ = sim_env_->io_stats()->random_reads.load();
    io_blocks_at_start_ = sim_env_->io_stats()->blocks_read.load();
  }
}

void Testbed::EndRun(RunMetrics* metrics) {
  metrics->index_memory = db_->TotalIndexMemory();
  metrics->filter_memory = db_->TotalFilterMemory();
  metrics->stats = *db_->stats();
  metrics->stats.Merge(read_stats_);
  if (sim_env_ != nullptr) {
    metrics->io_reads =
        sim_env_->io_stats()->random_reads.load() - io_reads_at_start_;
    metrics->io_blocks =
        sim_env_->io_stats()->blocks_read.load() - io_blocks_at_start_;
  }
}

Status Testbed::RunPointLookups(size_t count, bool zipfian,
                                RunMetrics* metrics, size_t multiget_batch) {
  Env* env = db_->stats() != nullptr && sim_env_ != nullptr
                 ? static_cast<Env*>(sim_env_.get())
                 : Env::Default();
  const ExperimentDefaults& d = options_.defaults;

  // Pre-generate the request stream so generator cost stays out of the
  // latency measurements.
  std::vector<Key> requests;
  requests.reserve(count);
  if (zipfian) {
    ZipfGenerator zipf(keys_.size(), 0.99, d.seed ^ 0x21f);
    for (size_t i = 0; i < count; i++) {
      requests.push_back(keys_[zipf.NextScrambled()]);
    }
  } else {
    Random rnd(d.seed ^ 0x9e37);
    for (size_t i = 0; i < count; i++) {
      requests.push_back(keys_[rnd.Uniform(keys_.size())]);
    }
  }

  BeginRun();
  ReadOptions ropts;
  ropts.stats = &read_stats_;
  if (multiget_batch > 1) {
    std::vector<std::string> values;
    std::vector<Status> statuses;
    for (size_t start = 0; start < requests.size();
         start += multiget_batch) {
      const size_t n = std::min(multiget_batch, requests.size() - start);
      const std::span<const Key> batch(requests.data() + start, n);
      const uint64_t t0 = env->NowNanos();
      Status s = db_->MultiGet(ropts, batch, &values, &statuses);
      const double per_key =
          static_cast<double>(env->NowNanos() - t0) / static_cast<double>(n);
      for (size_t i = 0; i < n; i++) metrics->latency_ns.Add(per_key);
      if (!s.ok()) return s;
      for (const Status& st : statuses) {
        if (!st.ok()) {
          return Status::Corruption("multiget lost a loaded key");
        }
      }
    }
    EndRun(metrics);
    return Status::OK();
  }
  std::string value;
  for (Key key : requests) {
    const uint64_t t0 = env->NowNanos();
    Status s = db_->Get(ropts, key, &value);
    metrics->latency_ns.Add(static_cast<double>(env->NowNanos() - t0));
    if (!s.ok()) {
      return Status::Corruption("point lookup lost a loaded key");
    }
  }
  EndRun(metrics);
  return Status::OK();
}

Status Testbed::RunRangeLookups(size_t count, size_t range_len,
                                RunMetrics* metrics) {
  Env* env = sim_env_ != nullptr ? static_cast<Env*>(sim_env_.get())
                                 : Env::Default();
  Random rnd(options_.defaults.seed ^ 0x1235813);
  std::vector<Key> starts;
  starts.reserve(count);
  for (size_t i = 0; i < count; i++) {
    starts.push_back(keys_[rnd.Uniform(keys_.size())]);
  }

  BeginRun();
  ReadOptions ropts;
  ropts.stats = &read_stats_;
  std::vector<std::pair<Key, std::string>> out;
  for (Key start : starts) {
    const uint64_t t0 = env->NowNanos();
    Status s = db_->RangeLookup(ropts, start, range_len, &out);
    metrics->latency_ns.Add(static_cast<double>(env->NowNanos() - t0));
    if (!s.ok()) return s;
  }
  EndRun(metrics);
  return Status::OK();
}

Key Testbed::MapYcsbKey(uint64_t key_index) const {
  if (key_index < keys_.size()) return keys_[key_index];
  const uint64_t overflow = key_index - keys_.size();
  return pool_[overflow % pool_.size()];
}

Status Testbed::RunYcsb(YcsbWorkload workload, size_t count,
                        RunMetrics* metrics, size_t multiget_batch) {
  Env* env = sim_env_ != nullptr ? static_cast<Env*>(sim_env_.get())
                                 : Env::Default();
  const ExperimentDefaults& d = options_.defaults;
  YcsbGenerator gen(workload, keys_.size(), d.seed ^ 0x5ca1ab1e);

  BeginRun();
  ReadOptions ropts;
  ropts.stats = &read_stats_;
  std::string value;
  std::vector<std::pair<Key, std::string>> scan_out;
  std::vector<Key> pending;           // buffered kRead keys
  std::vector<std::string> mg_values;
  std::vector<Status> mg_statuses;
  auto flush_reads = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    const uint64_t t0 = env->NowNanos();
    Status s = db_->MultiGet(ropts, pending, &mg_values, &mg_statuses);
    const double per_key = static_cast<double>(env->NowNanos() - t0) /
                           static_cast<double>(pending.size());
    for (size_t i = 0; i < pending.size(); i++) {
      metrics->latency_ns.Add(per_key);
    }
    pending.clear();
    if (!s.ok()) return s;
    for (const Status& st : mg_statuses) {
      // NotFound is a fresh-insert race in D, like the single-Get path.
      if (!st.ok() && !st.IsNotFound()) return st;
    }
    return Status::OK();
  };
  Status s;
  for (size_t i = 0; i < count; i++) {
    const YcsbOp op = gen.Next();
    const Key key = MapYcsbKey(op.key_index);
    if (multiget_batch > 1 && op.type == YcsbOp::Type::kRead) {
      pending.push_back(key);
      if (pending.size() >= multiget_batch) {
        s = flush_reads();
        if (!s.ok()) return s;
      }
      continue;
    }
    if (multiget_batch > 1 && !pending.empty()) {
      // A non-read op: flush first so it observes every buffered read's
      // position in the stream (reads cannot be reordered past writes).
      s = flush_reads();
      if (!s.ok()) return s;
    }
    const uint64_t t0 = env->NowNanos();
    switch (op.type) {
      case YcsbOp::Type::kRead:
        s = db_->Get(ropts, key, &value);
        if (s.IsNotFound()) s = Status::OK();  // fresh-insert race in D
        break;
      case YcsbOp::Type::kUpdate:
        s = db_->Put(key, DeriveValue(key ^ i, d.value_size));
        break;
      case YcsbOp::Type::kInsert:
        s = db_->Put(key, DeriveValue(key, d.value_size));
        break;
      case YcsbOp::Type::kScan:
        s = db_->RangeLookup(ropts, key, op.scan_length, &scan_out);
        break;
      case YcsbOp::Type::kReadModifyWrite:
        s = db_->Get(ropts, key, &value);
        if (s.IsNotFound()) s = Status::OK();
        if (s.ok()) {
          s = db_->Put(key, DeriveValue(key + 1, d.value_size));
        }
        break;
    }
    metrics->latency_ns.Add(static_cast<double>(env->NowNanos() - t0));
    if (!s.ok()) return s;
  }
  s = flush_reads();
  if (!s.ok()) return s;
  EndRun(metrics);
  return Status::OK();
}

Status Testbed::RunWriteOnly(size_t count, RunMetrics* metrics) {
  Env* env = sim_env_ != nullptr ? static_cast<Env*>(sim_env_.get())
                                 : Env::Default();
  const ExperimentDefaults& d = options_.defaults;
  Random rnd(d.seed ^ 0x3717);

  BeginRun();
  Status s;
  for (size_t i = 0; i < count; i++) {
    // Mix fresh keys (from the pool) and updates, like a sustained ingest.
    const Key key = (i % 4 == 0 && !pool_.empty())
                        ? pool_[next_insert_seq_++ % pool_.size()]
                        : keys_[rnd.Uniform(keys_.size())];
    const uint64_t t0 = env->NowNanos();
    s = db_->Put(key, DeriveValue(key ^ i, d.value_size));
    metrics->latency_ns.Add(static_cast<double>(env->NowNanos() - t0));
    if (!s.ok()) return s;
  }
  s = db_->FlushMemTable();
  if (!s.ok()) return s;
  EndRun(metrics);
  return Status::OK();
}

}  // namespace lilsm
