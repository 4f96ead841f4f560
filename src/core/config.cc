#include "core/config.h"

#include <cstdlib>

namespace lilsm {

std::string IndexSetup::ToString() const {
  std::string out = IndexTypeName(type);
  out += "/b";
  out += std::to_string(position_boundary);
  if (granularity == IndexGranularity::kLevel) {
    out += "/L";
  }
  return out;
}

ExperimentDefaults ExperimentDefaults::FromEnvironment() {
  ExperimentDefaults d;
  if (const char* v = std::getenv("LILSM_N")) {
    d.num_keys = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = std::getenv("LILSM_VALUE_SIZE")) {
    d.value_size = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
  }
  if (const char* v = std::getenv("LILSM_OPS")) {
    d.num_ops = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = std::getenv("LILSM_SST_MB")) {
    d.sstable_target_size = std::strtoull(v, nullptr, 10) << 20;
  }
  if (const char* v = std::getenv("LILSM_SEED")) {
    d.seed = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = std::getenv("LILSM_DATASET")) {
    Dataset dataset;
    if (ParseDataset(v, &dataset)) d.dataset = dataset;
  }
  if (const char* v = std::getenv("LILSM_BLOCK_CACHE_MB")) {
    d.block_cache_bytes = std::strtoull(v, nullptr, 10) << 20;
  }
  if (const char* v = std::getenv("LILSM_IO_DEPTH")) {
    const long depth = std::strtol(v, nullptr, 10);
    if (depth > 0) d.io_depth = static_cast<int>(depth);
  }
  return d;
}

std::vector<IndexSetup> EnumerateTypeBoundarySpace() {
  std::vector<IndexSetup> space;
  for (IndexType type : kAllIndexTypes) {
    for (uint32_t boundary : kPositionBoundaries) {
      IndexSetup setup;
      setup.type = type;
      setup.position_boundary = boundary;
      space.push_back(setup);
    }
  }
  return space;
}

}  // namespace lilsm
