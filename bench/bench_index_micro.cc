// Microbenchmarks (google-benchmark): index build and predict costs per
// type, plus the DESIGN.md ablations — PGM's EpsilonRecursive and
// RadixSpline's RadixBits (the paper fixes them at 4 and 1) — the
// crc32c cost every checksummed byte pays, the block cache's cost per
// segment fetch, and the clock read the stage timers pay.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "index/index.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "util/lru_cache.h"
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

// The segmented reader's cached fetch over a cache much smaller than the
// data: probe every block of a span, then either assemble it from the
// cache or insert its blocks from the fetched bytes. The shape of the
// point-lookup benchmark: 4 KiB blocks, 4-block spans, an 8 MiB cache
// over 144 MiB of 4 MiB files, about 1% of spans all-hit.
constexpr size_t kCacheBlock = 4096;
constexpr size_t kSpanBlocks = 4;

void BM_BlockCacheChurn(benchmark::State& state) {
  constexpr uint64_t kBlocksPerFile = (4 << 20) / kCacheBlock;
  constexpr uint64_t kFiles = 36;  // 144 MiB
  BlockCache cache(8 << 20);
  std::string fetched(kSpanBlocks * kCacheBlock, 'd');
  std::vector<BlockCache::BlockRef> refs(kSpanBlocks);
  Random rnd(17);
  uint64_t span_hits = 0;
  for (auto _ : state) {
    const uint64_t file = 1 + rnd.Uniform(kFiles);
    const uint64_t first =
        rnd.Uniform(kBlocksPerFile - kSpanBlocks + 1) * kCacheBlock;
    size_t hit_count = 0;
    for (size_t i = 0; i < kSpanBlocks; i++) {
      refs[i] = cache.Lookup(file, first + i * kCacheBlock);
      if (refs[i] != nullptr) hit_count++;
    }
    if (hit_count == kSpanBlocks) {
      for (size_t i = 0; i < kSpanBlocks; i++) {
        std::memcpy(fetched.data() + i * kCacheBlock, refs[i]->data(),
                    refs[i]->size());
      }
      span_hits++;
    } else {
      for (size_t i = 0; i < kSpanBlocks; i++) {
        if (refs[i] != nullptr) continue;
        cache.Insert(file, first + i * kCacheBlock,
                     fetched.data() + i * kCacheBlock, kCacheBlock);
      }
    }
    for (BlockCache::BlockRef& ref : refs) ref = nullptr;
    benchmark::DoNotOptimize(fetched.data());
    benchmark::ClobberMemory();
  }
  const double spans =
      static_cast<double>(std::max<int64_t>(state.iterations(), 1));
  state.counters["span_hit_pct"] = 100.0 * span_hits / spans;
  state.counters["evictions_per_span"] = cache.evictions() / spans;
}

// An all-hit span: four lookups and the copy out of the cache.
void BM_BlockCacheHitSpan(benchmark::State& state) {
  BlockCache cache(8 << 20);
  std::string fetched(kSpanBlocks * kCacheBlock, 'h');
  for (size_t i = 0; i < kSpanBlocks; i++) {
    cache.Insert(1, i * kCacheBlock, fetched.data() + i * kCacheBlock,
                 kCacheBlock);
  }
  for (auto _ : state) {
    for (size_t i = 0; i < kSpanBlocks; i++) {
      BlockCache::BlockRef ref = cache.Lookup(1, i * kCacheBlock);
      std::memcpy(fetched.data() + i * kCacheBlock, ref->data(),
                  ref->size());
    }
    benchmark::DoNotOptimize(fetched.data());
    benchmark::ClobberMemory();
  }
}

// One clock read: every ScopedTimer stage boundary pays it, about 25
// times per point lookup.
void BM_EnvNowNanos(benchmark::State& state) {
  Env* env = Env::Default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(env->NowNanos());
  }
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
  benchmark::RegisterBenchmark("BM_BlockCacheChurn", BM_BlockCacheChurn)
      ->MinTime(0.2);
  benchmark::RegisterBenchmark("BM_BlockCacheHitSpan", BM_BlockCacheHitSpan)
      ->MinTime(0.05);
  benchmark::RegisterBenchmark("BM_EnvNowNanos", BM_EnvNowNanos)
      ->MinTime(0.05);
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
