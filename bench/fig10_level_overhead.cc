// Figure 10 (left): per-level read overhead, index size and level size
// under uniform and read-latest distributions (Observation 5: skew breaks
// the proportionality between level size and read cost).
#include "bench/bench_common.h"

using namespace lilsm;

namespace {

Status RunDistribution(Testbed* bed, const ExperimentDefaults& d,
                       bool zipfian, const char* label) {
  RunMetrics metrics;
  Status s = bed->RunPointLookups(d.num_ops, zipfian, &metrics);
  if (!s.ok()) return s;

  uint64_t total_read_ns = 0;
  uint64_t total_entries = 0;
  size_t total_index = 0;
  for (int level = 0; level < kNumLevels; level++) {
    total_read_ns += metrics.stats.LevelReadNanos(level);
    total_entries += bed->db()->EntriesAtLevel(level);
    total_index += bed->db()->LevelIndexMemory(level);
  }
  ReportTable table(std::string("Figure 10: per-level proportions (") +
                    label + " query distribution)");
  table.SetHeader({"level", "read_overhead", "index_size", "level_size",
                   "files"});
  for (int level = 0; level < kNumLevels; level++) {
    if (bed->db()->NumFilesAtLevel(level) == 0 &&
        metrics.stats.LevelReads(level) == 0) {
      continue;
    }
    auto pct = [](uint64_t part, uint64_t whole) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.2f",
                    whole > 0 ? static_cast<double>(part) / whole : 0.0);
      return std::string(buf);
    };
    // Appended, not "L" + std::to_string(...): gcc 12's -Wrestrict
    // misfires on that operator+ in optimized builds.
    std::string name = "L";
    name += std::to_string(level);
    table.AddRow({name,
                  pct(metrics.stats.LevelReadNanos(level), total_read_ns),
                  pct(bed->db()->LevelIndexMemory(level), total_index),
                  pct(bed->db()->EntriesAtLevel(level), total_entries),
                  std::to_string(bed->db()->NumFilesAtLevel(level))});
  }
  table.Emit();
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentDefaults d = bench::BenchDefaults(argc, argv);
  bench::PrintHeader("Figure 10", "read overhead across LSM levels", d);

  IndexSetup setup;
  setup.type = IndexType::kPGM;
  setup.position_boundary = 64;
  std::unique_ptr<Testbed> bed;
  Status s = bench::MakeTestbed("fig10", setup, d, &bed);
  if (s.ok()) s = RunDistribution(bed.get(), d, /*zipfian=*/false, "uniform");
  if (s.ok()) s = RunDistribution(bed.get(), d, /*zipfian=*/true, "zipfian");
  if (!s.ok()) {
    std::fprintf(stderr, "fig10: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
