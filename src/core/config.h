// The paper's unified configuration space (Section 4.1): index type x
// position boundary x index granularity, plus the scaled experiment
// defaults shared by benches and examples.
#ifndef LILSM_CORE_CONFIG_H_
#define LILSM_CORE_CONFIG_H_

#include <string>
#include <vector>

#include "lsm/db.h"
#include "workload/dataset.h"

namespace lilsm {

/// One point in the configuration space.
struct IndexSetup {
  IndexType type = IndexType::kPGM;
  uint32_t position_boundary = 64;
  IndexGranularity granularity = IndexGranularity::kFile;

  IndexConfig ToIndexConfig() const {
    return IndexConfig::FromPositionBoundary(position_boundary);
  }
  std::string ToString() const;
};

/// Scaled experiment defaults. The paper runs 6.4M x (24 B, 1000 B) with
/// 1M operations; the benches default to a 1/32-scale shape and honour the
/// environment overrides below so the full-size runs remain one command
/// away:
///   LILSM_N, LILSM_VALUE_SIZE, LILSM_OPS, LILSM_SST_MB, LILSM_SEED,
///   LILSM_DATASET, LILSM_READ_LAT_NS, LILSM_BLOCK_CACHE_MB,
///   LILSM_IO_DEPTH.
struct ExperimentDefaults {
  size_t num_keys = 200'000;
  uint32_t key_size = 24;
  uint32_t value_size = 120;
  size_t num_ops = 40'000;
  uint64_t sstable_target_size = 2 << 20;
  size_t write_buffer_size = 2 << 20;
  int size_ratio = 10;
  int bloom_bits_per_key = 10;
  uint64_t seed = 42;
  Dataset dataset = Dataset::kRandom;
  /// Shared block cache capacity (0 = off, the paper's configuration —
  /// every segment fetch is a device I/O). The benches expose it as
  /// --block-cache-mb.
  size_t block_cache_bytes = 0;
  /// DBOptions::io_depth (1 = fully synchronous reads, the paper's
  /// configuration). The benches expose it as --io-depth.
  int io_depth = 1;

  /// Reads the LILSM_* environment overrides.
  static ExperimentDefaults FromEnvironment();
};

/// The boundary sweep used across the paper's figures.
inline constexpr uint32_t kPositionBoundaries[] = {256, 128, 64, 32, 16, 8};

/// Enumerates (type x boundary) at file granularity.
std::vector<IndexSetup> EnumerateTypeBoundarySpace();

}  // namespace lilsm

#endif  // LILSM_CORE_CONFIG_H_
