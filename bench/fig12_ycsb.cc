// Figure 12: the six YCSB mixes — average operation latency against index
// memory across index types (Observation 7: mixed-workload tradeoffs
// mirror the read-only ones; PGM stays on the frontier).
//
// --multiget-batch=N routes read ops through DB::MultiGet in batches of N
// (0/1 keeps per-key Get). The blm+prd/op column reports bloom probes and
// index predictions per operation; batching amortizes both across each
// sorted run of keys, so compare a batched run against the default to see
// the per-key probe reduction (EXPERIMENTS.md records the numbers).
//
// --block-cache-mb=N opens the DB with an N MiB shared block cache; the
// extra hit% column then reports the block-cache hit rate per config, and
// the io/op column the Env reads actually issued per operation — sweep N
// to trade memory for device reads on the zipfian mixes (EXPERIMENTS.md).
//
// --io-depth=N opens the DB with DBOptions::io_depth = N so batched reads
// fetch each level's runs as one async batch. It defaults off (synchronous
// paper path); combine it with --multiget-batch to reproduce the io-depth
// scaling table in EXPERIMENTS.md (BENCH_pr7.json).
#include "bench/bench_common.h"

using namespace lilsm;

int main(int argc, char** argv) {
  bool ops_from_flags = false;
  size_t multiget_batch = 0;
  size_t block_cache_mb = 0;
  size_t io_depth = 0;
  ExperimentDefaults d = bench::BenchDefaults(argc, argv, &ops_from_flags,
                                              nullptr, nullptr,
                                              &multiget_batch,
                                              &block_cache_mb, &io_depth);
  if (!ops_from_flags) d.num_ops = std::max<size_t>(500, d.num_ops / 2);
  bench::PrintHeader("Figure 12", "YCSB A-F: latency vs index memory", d);
  if (multiget_batch > 1) {
    std::printf("# reads served through MultiGet, batch=%zu\n\n",
                multiget_batch);
  }
  if (d.io_depth > 1) {
    std::printf("# async I/O: io_depth=%d\n\n", d.io_depth);
  }
  // The env override (LILSM_BLOCK_CACHE_MB) enables the cache too, so
  // key the extra columns off the resolved capacity, not the flag.
  const bool cached = d.block_cache_bytes > 0;
  if (cached) {
    std::printf("# shared block cache: %zu MiB\n\n",
                d.block_cache_bytes >> 20);
  }

  for (YcsbWorkload workload : kAllYcsbWorkloads) {
    // Writes mutate the tree, so each workload gets a fresh load.
    IndexSetup setup;
    setup.type = IndexType::kPGM;
    setup.position_boundary = 64;
    std::unique_ptr<Testbed> bed;
    Status s = bench::MakeTestbed("fig12", setup, d, &bed);
    if (!s.ok()) {
      std::fprintf(stderr, "fig12: %s\n", s.ToString().c_str());
      return 1;
    }
    ReportTable table(std::string("Figure 12: YCSB-") +
                      YcsbWorkloadName(workload));
    std::vector<std::string> header;
    for (uint32_t boundary : {128u, 16u}) {
      const std::string prefix = "b=" + std::to_string(boundary);
      header.push_back(prefix + " us");
      header.push_back(prefix + " mem");
      header.push_back(prefix + " blm+prd/op");
      if (cached) {
        header.push_back(prefix + " hit%");
        header.push_back(prefix + " io/op");
      }
    }
    header.insert(header.begin(), "index");
    table.SetHeader(header);
    for (IndexType type : kAllIndexTypes) {
      std::vector<std::string> row = {IndexTypeName(type)};
      for (uint32_t boundary : {128u, 16u}) {
        IndexSetup config;
        config.type = type;
        config.position_boundary = boundary;
        if (!(s = bed->Reconfigure(config)).ok()) break;
        RunMetrics metrics;
        if (!(s = bed->RunYcsb(workload, d.num_ops, &metrics,
                               multiget_batch))
                 .ok()) {
          break;
        }
        row.push_back(FormatMicros(metrics.MeanLatencyUs()));
        row.push_back(std::to_string(metrics.index_memory));
        const double ops = static_cast<double>(d.num_ops);
        char probes[64];
        std::snprintf(
            probes, sizeof(probes), "%.2f+%.2f",
            metrics.stats.TimerCount(Timer::kBloomCheck) / ops,
            metrics.stats.TimerCount(Timer::kIndexPredict) / ops);
        row.push_back(probes);
        if (cached) {
          const double hits = static_cast<double>(
              metrics.stats.Count(Counter::kBlockCacheHits));
          const double misses = static_cast<double>(
              metrics.stats.Count(Counter::kBlockCacheMisses));
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.1f",
                        hits + misses > 0 ? 100.0 * hits / (hits + misses)
                                          : 0.0);
          row.push_back(buf);
          std::snprintf(buf, sizeof(buf), "%.2f",
                        static_cast<double>(metrics.io_reads) / ops);
          row.push_back(buf);
        }
      }
      if (!s.ok()) break;
      table.AddRow(row);
    }
    if (!s.ok()) {
      std::fprintf(stderr, "fig12: %s\n", s.ToString().c_str());
      return 1;
    }
    table.Emit();
  }
  return 0;
}
