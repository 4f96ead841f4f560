// Microbenchmarks (google-benchmark): index build and predict costs per
// type, plus the DESIGN.md ablations — PGM's EpsilonRecursive and
// RadixSpline's RadixBits (the paper fixes them at 4 and 1) — and the
// crc32c cost every checksummed byte pays.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "index/index.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

// Key count for every micro; overridden by --n (the bench_smoke ctest
// entry passes a tiny value so bit-rot is caught without a full run).
size_t bench_num_keys = 200000;

const std::vector<Key>& BenchKeys() {
  static const std::vector<Key> keys =
      GenerateKeys(Dataset::kRandom, bench_num_keys, 42);
  return keys;
}

void BM_IndexBuild(benchmark::State& state) {
  const auto type = static_cast<IndexType>(state.range(0));
  const uint32_t boundary = static_cast<uint32_t>(state.range(1));
  const std::vector<Key>& keys = BenchKeys();
  IndexConfig config = IndexConfig::FromPositionBoundary(boundary);
  for (auto _ : state) {
    auto index = CreateIndex(type);
    Status s = index->Build(keys.data(), keys.size(), config);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
  auto index = CreateIndex(type);
  index->Build(keys.data(), keys.size(), config);
  state.counters["segments"] = static_cast<double>(index->SegmentCount());
  state.counters["memory_bytes"] =
      static_cast<double>(index->MemoryUsage());
  state.SetLabel(IndexTypeName(type));
}

void BM_IndexPredict(benchmark::State& state) {
  const auto type = static_cast<IndexType>(state.range(0));
  const uint32_t boundary = static_cast<uint32_t>(state.range(1));
  const std::vector<Key>& keys = BenchKeys();
  auto index = CreateIndex(type);
  IndexConfig config = IndexConfig::FromPositionBoundary(boundary);
  Status s = index->Build(keys.data(), keys.size(), config);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  Random rnd(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->Predict(keys[rnd.Uniform(keys.size())]));
  }
  state.SetLabel(IndexTypeName(type));
}

void BM_PgmEpsilonRecursive(benchmark::State& state) {
  // Ablation: the paper keeps EpsilonRecursive=4 after finding it barely
  // matters in LSM-trees; this sweep regenerates that observation.
  const std::vector<Key>& keys = BenchKeys();
  IndexConfig config = IndexConfig::FromPositionBoundary(64);
  config.epsilon_recursive = static_cast<uint32_t>(state.range(0));
  auto index = CreateIndex(IndexType::kPGM);
  Status s = index->Build(keys.data(), keys.size(), config);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  Random rnd(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->Predict(keys[rnd.Uniform(keys.size())]));
  }
  state.counters["memory_bytes"] =
      static_cast<double>(index->MemoryUsage());
}

void BM_RadixSplineBits(benchmark::State& state) {
  // Ablation: RadixBits (paper picks 1 as the LSM sweet spot).
  const std::vector<Key>& keys = BenchKeys();
  IndexConfig config = IndexConfig::FromPositionBoundary(64);
  config.radix_bits = static_cast<uint32_t>(state.range(0));
  auto index = CreateIndex(IndexType::kRadixSpline);
  Status s = index->Build(keys.data(), keys.size(), config);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  Random rnd(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->Predict(keys[rnd.Uniform(keys.size())]));
  }
  state.counters["memory_bytes"] =
      static_cast<double>(index->MemoryUsage());
}

void BM_Crc32c(benchmark::State& state) {
  // Sizes: a WAL Put record (160 B), a 16-key MultiGet wire frame (2 KiB),
  // an io block (4 KiB). The label says which body Extend dispatches to.
  const size_t n = static_cast<size_t>(state.range(0));
  Random rnd(13);
  std::string buf(n, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(crc32c::IsAccelerated() ? "sse4.2" : "portable");
}

void RegisterAll() {
  for (IndexType type : kAllIndexTypes) {
    for (int64_t boundary : {256, 32, 8}) {
      benchmark::RegisterBenchmark("BM_IndexBuild",
                                   BM_IndexBuild)
          ->Args({static_cast<int64_t>(type), boundary})
          ->Unit(benchmark::kMillisecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark("BM_IndexPredict", BM_IndexPredict)
          ->Args({static_cast<int64_t>(type), boundary})
          ->MinTime(0.05);
    }
  }
  for (int64_t er : {1, 4, 16, 64}) {
    benchmark::RegisterBenchmark("BM_PgmEpsilonRecursive",
                                 BM_PgmEpsilonRecursive)
        ->Arg(er)
        ->MinTime(0.05);
  }
  for (int64_t bits : {1, 4, 8, 16}) {
    benchmark::RegisterBenchmark("BM_RadixSplineBits", BM_RadixSplineBits)
        ->Arg(bits)
        ->MinTime(0.05);
  }
  for (int64_t bytes : {160, 2048, 4096}) {
    benchmark::RegisterBenchmark("BM_Crc32c", BM_Crc32c)
        ->Arg(bytes)
        ->MinTime(0.05);
  }
}

}  // namespace
}  // namespace lilsm

int main(int argc, char** argv) {
  // Consume --n before google-benchmark sees the argument list; the rest
  // (--benchmark_filter, --benchmark_out, ...) passes through untouched.
  int kept = 1;
  for (int i = 1; i < argc; i++) {
    size_t value = 0;
    if (lilsm::bench::ParseSizeFlag(argc, argv, &i, "--n", &value)) {
      if (value == 0) {
        std::fprintf(stderr, "--n must be positive\n");
        return 2;
      }
      lilsm::bench_num_keys = value;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  lilsm::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
