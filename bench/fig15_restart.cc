// Figure 15 (beyond the paper): restart time with persisted learned
// models. One compacted level-granularity tree is opened two ways —
//
//   maintained  kCompactionMaintained: open stitches each level model
//               from the segments its tables' own index blobs export
//               (zero key scans)
//   lazy        kLazyRebuild: open does no model work; the first reads
//               pay the full-level scans (ModelCatalog::TrainFull) instead
//
// — reporting DB::Open wall time, first-read latency, and the mean of
// the first 100 reads, plus the model counters that prove where the
// work went. A running checksum over identical read sequences proves both
// opens serve bit-identical results.
//
//   fig15_restart            # full sweep
//   fig15_restart --n 4000   # the smoke_fig15_restart ctest entry
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "lsm/db.h"
#include "workload/dataset.h"

using namespace lilsm;

namespace {

struct Mode {
  const char* name;
  LevelModelPolicy policy;
};

constexpr Mode kModes[] = {
    {"maintained", LevelModelPolicy::kCompactionMaintained},
    {"lazy", LevelModelPolicy::kLazyRebuild},
};
constexpr size_t kNumModes = std::size(kModes);

struct ModeResult {
  double open_ms = 0;
  double first_read_us = 0;
  double mean100_read_us = 0;
  uint64_t models_stitched = 0;
  uint64_t model_build_bytes = 0;
  uint64_t checksum = 0;
};

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

DBOptions RestartOptions(const ExperimentDefaults& d, const Mode& mode) {
  DBOptions options;
  const uint64_t entry_size = d.key_size + 8 + d.value_size;
  options.write_buffer_size = std::max<size_t>(
      32 << 10, std::min<uint64_t>(d.write_buffer_size,
                                   d.num_keys * entry_size / 8));
  options.sstable_target_size = options.write_buffer_size / 2;
  options.size_ratio = d.size_ratio;
  options.bloom_bits_per_key = d.bloom_bits_per_key;
  options.key_size = d.key_size;
  options.value_size = d.value_size;
  options.index_granularity = IndexGranularity::kLevel;
  options.level_model_policy = mode.policy;
  options.index_config = IndexConfig::FromPositionBoundary(64);
  return options;
}

Status RunMode(const Mode& mode, const ExperimentDefaults& d,
               const std::string& dbdir, const std::vector<Key>& probes,
               ModeResult* result) {
  Env* env = Env::Default();
  DBOptions options = RestartOptions(d, mode);
  std::unique_ptr<DB> db;
  const uint64_t open_start = env->NowNanos();
  Status s = DB::Open(options, dbdir, &db);
  if (!s.ok()) return s;
  result->open_ms = (env->NowNanos() - open_start) / 1e6;

  uint64_t checksum = 1469598103934665603ull;  // FNV offset basis
  std::string value;
  double first_100_ns = 0;
  for (size_t i = 0; i < probes.size(); i++) {
    const uint64_t t0 = env->NowNanos();
    s = db->Get(probes[i], &value);
    const uint64_t dt = env->NowNanos() - t0;
    if (!s.ok()) return s;
    if (i == 0) result->first_read_us = dt / 1e3;
    if (i < 100) first_100_ns += static_cast<double>(dt);
    checksum = Fnv1a(checksum, probes[i]);
    for (size_t b = 0; b + 8 <= value.size(); b += 8) {
      uint64_t word = 0;
      std::memcpy(&word, value.data() + b, 8);
      checksum = Fnv1a(checksum, word);
    }
  }
  result->mean100_read_us =
      first_100_ns / std::min<size_t>(probes.size(), 100) / 1e3;
  result->checksum = checksum;

  const Stats& stats = *db->stats();
  result->models_stitched = stats.Count(Counter::kModelsStitched);
  result->model_build_bytes = stats.Count(Counter::kModelBuildBytesRead);
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentDefaults d = bench::BenchDefaults(argc, argv);
  bench::PrintHeader("Figure 15",
                     "restart time with persisted learned models", d);

  // Build one compacted tree every open shares.
  const std::string dbdir = bench::BenchDir("fig15");
  std::vector<Key> keys = GenerateKeys(d.dataset, d.num_keys, d.seed);
  {
    DBOptions options = RestartOptions(d, kModes[0]);
    DB::Destroy(options, dbdir);
    std::unique_ptr<DB> db;
    Status s = DB::Open(options, dbdir, &db);
    if (s.ok()) {
      for (Key key : keys) {
        s = db->Put(key, DeriveValue(key, d.value_size));
        if (!s.ok()) break;
      }
    }
    if (s.ok()) s = db->CompactAll();
    if (!s.ok()) {
      std::fprintf(stderr, "fig15: load failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  // A fixed probe sequence every mode replays identically.
  std::vector<Key> probes;
  {
    Random rnd(d.seed ^ 0xF15);
    const size_t n = std::min<size_t>(keys.size(), 2000);
    probes.reserve(n);
    for (size_t i = 0; i < n; i++) {
      probes.push_back(keys[rnd.Uniform(keys.size())]);
    }
  }

  ReportTable table("Figure 15: open + first-read cost by model source");
  table.SetHeader({"mode", "open_ms", "first_read_us", "mean100_read_us",
                   "models_stitched", "model_scan_MB"});
  ModeResult results[kNumModes];
  for (size_t m = 0; m < kNumModes; m++) {
    Status s = RunMode(kModes[m], d, dbdir, probes, &results[m]);
    if (!s.ok()) {
      std::fprintf(stderr, "fig15 %s: %s\n", kModes[m].name,
                   s.ToString().c_str());
      return 1;
    }
    table.AddRow({kModes[m].name, FormatMicros(results[m].open_ms),
                  FormatMicros(results[m].first_read_us),
                  FormatMicros(results[m].mean100_read_us),
                  std::to_string(results[m].models_stitched),
                  FormatMicros(results[m].model_build_bytes / 1048576.0)});
  }
  table.Emit();

  for (size_t m = 1; m < kNumModes; m++) {
    if (results[m].checksum != results[0].checksum) {
      std::fprintf(stderr,
                   "fig15: mode %s returned DIFFERENT Get results\n",
                   kModes[m].name);
      return 1;
    }
  }
  std::printf("# Get results identical across all %zu open modes "
              "(checksum %llx)\n",
              kNumModes,
              static_cast<unsigned long long>(results[0].checksum));
  if (results[0].model_build_bytes != 0) {
    std::fprintf(stderr, "fig15: maintained open scanned %llu key bytes\n",
                 static_cast<unsigned long long>(
                     results[0].model_build_bytes));
    return 1;
  }

  {
    DBOptions options = RestartOptions(d, kModes[0]);
    DB::Destroy(options, dbdir);
  }
  return 0;
}
