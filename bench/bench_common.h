// Shared scaffolding for the figure benches: environment-scaled defaults
// and testbed construction. Every bench honours the LILSM_* overrides
// documented in core/config.h so a full-size (paper-scale) run is one
// command away.
#ifndef LILSM_BENCH_BENCH_COMMON_H_
#define LILSM_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/report.h"
#include "core/testbed.h"

namespace lilsm {
namespace bench {

inline ExperimentDefaults BenchDefaults() {
  ExperimentDefaults d = ExperimentDefaults::FromEnvironment();
  // A zero (or non-numeric) size from the environment is rejected like
  // the equivalent flag: benches divide by these counts.
  for (const char* name : {"LILSM_N", "LILSM_OPS", "LILSM_VALUE_SIZE"}) {
    const char* v = std::getenv(name);
    if (v != nullptr && std::strtoull(v, nullptr, 10) == 0) {
      std::fprintf(stderr, "%s must be positive\n", name);
      std::exit(2);
    }
  }
  if (std::getenv("LILSM_N") == nullptr) d.num_keys = 60'000;
  if (std::getenv("LILSM_OPS") == nullptr) d.num_ops = 6'000;
  if (std::getenv("LILSM_VALUE_SIZE") == nullptr) d.value_size = 120;
  if (std::getenv("LILSM_SST_MB") == nullptr) {
    d.sstable_target_size = 1 << 20;
  }
  d.write_buffer_size = 1 << 20;
  return d;
}

/// Parses "--flag N" / "--flag=N"; returns true and advances *i on match.
/// A matched flag with a missing, non-numeric, negative, or overflowing
/// value is a hard error (exit 2) — strtoull alone would silently wrap
/// "-1" to 2^64-1 and clamp overflow to ULLONG_MAX.
inline bool ParseSizeFlag(int argc, char** argv, int* i, const char* flag,
                          size_t* out) {
  const char* arg = argv[*i];
  size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) return false;
  const char* value = nullptr;
  if (arg[flag_len] == '=') {
    value = arg + flag_len + 1;
  } else if (arg[flag_len] == '\0') {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      std::exit(2);
    }
    value = argv[++*i];
  } else {
    return false;  // a different flag sharing this prefix, e.g. --no-x
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  // Require a leading digit: strtoull itself skips whitespace and accepts
  // a sign, silently wrapping " -1" to 2^64-1.
  if (value[0] < '0' || value[0] > '9' || end == value || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, value);
    std::exit(2);
  }
  *out = static_cast<size_t>(parsed);
  return true;
}

/// Parses "--flag VALUE" / "--flag=VALUE" string flags; returns true and
/// advances *i on match. A matched flag with a missing value is a hard
/// error (exit 2), mirroring ParseSizeFlag.
inline bool ParseStringFlag(int argc, char** argv, int* i, const char* flag,
                            std::string* out) {
  const char* arg = argv[*i];
  size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) return false;
  if (arg[flag_len] == '=') {
    *out = arg + flag_len + 1;
  } else if (arg[flag_len] == '\0') {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      std::exit(2);
    }
    *out = argv[++*i];
  } else {
    return false;  // a different flag sharing this prefix
  }
  return true;
}

/// Maps a --level-model value to the policy; exits 2 on unknown values.
inline LevelModelPolicy ParseLevelModelPolicy(const std::string& name) {
  if (name == "lazy") return LevelModelPolicy::kLazyRebuild;
  if (name == "maintained") return LevelModelPolicy::kCompactionMaintained;
  std::fprintf(stderr,
               "--level-model must be 'lazy' or 'maintained' (got '%s')\n",
               name.c_str());
  std::exit(2);
}

/// BenchDefaults() plus command-line overrides. CLI flags win over the
/// LILSM_* environment variables; --n is what the bench_smoke ctest
/// entries use to keep every figure bench fast under tier-1.
///
/// ops_from_flags (optional) reports whether --ops was given, so benches
/// that rescale the default op count (fig11, fig12) can leave an explicit
/// request untouched.
///
/// threads (optional) enables the --threads flag for the multi-threaded
/// benches (fig13); when null, --threads is rejected like any unknown
/// flag so single-threaded benches stay strict.
///
/// level_model (optional) enables the --level-model={lazy,maintained}
/// flag for the model-lifecycle benches (fig14); it receives the raw
/// value (empty when the flag was not given) so a bench can default to
/// sweeping both policies.
///
/// multiget_batch (optional) enables the --multiget-batch=N flag for the
/// lookup benches (fig12, fig13): read ops are served through
/// DB::MultiGet in batches of N (0 or 1 keeps the per-key Get path).
///
/// block_cache (optional) enables the --block-cache-mb=N flag for the
/// lookup benches (fig12, fig13): the DB is opened with an N MiB shared
/// block cache (0, the default, keeps the paper's uncached read path).
/// The parsed capacity lands in ExperimentDefaults::block_cache_bytes;
/// the pointer just opts the flag in and reports the raw MiB value.
///
/// io_depth (optional) enables the --io-depth=N flag (fig12, fig13):
/// the DB is opened with DBOptions::io_depth = N, so MultiGet fetches
/// each level's runs through one async read batch (1, the default, keeps
/// the synchronous paper path). Lands in ExperimentDefaults::io_depth.
inline ExperimentDefaults BenchDefaults(int argc, char** argv,
                                        bool* ops_from_flags = nullptr,
                                        size_t* threads = nullptr,
                                        std::string* level_model = nullptr,
                                        size_t* multiget_batch = nullptr,
                                        size_t* block_cache_mb = nullptr,
                                        size_t* io_depth = nullptr) {
  ExperimentDefaults d = BenchDefaults();
  if (ops_from_flags != nullptr) *ops_from_flags = false;
  auto require_positive = [](const char* flag, size_t value) {
    if (value == 0) {
      std::fprintf(stderr, "%s must be positive\n", flag);
      std::exit(2);
    }
  };
  for (int i = 1; i < argc; i++) {
    size_t value = 0;
    if (ParseSizeFlag(argc, argv, &i, "--n", &value)) {
      require_positive("--n", value);
      d.num_keys = value;
    } else if (ParseSizeFlag(argc, argv, &i, "--ops", &value)) {
      require_positive("--ops", value);
      d.num_ops = value;
      if (ops_from_flags != nullptr) *ops_from_flags = true;
    } else if (ParseSizeFlag(argc, argv, &i, "--value-size", &value)) {
      require_positive("--value-size", value);
      if (value > UINT32_MAX) {
        std::fprintf(stderr, "--value-size too large (max %u)\n",
                     UINT32_MAX);
        std::exit(2);
      }
      d.value_size = static_cast<uint32_t>(value);
    } else if (ParseSizeFlag(argc, argv, &i, "--seed", &value)) {
      d.seed = value;
    } else if (threads != nullptr &&
               ParseSizeFlag(argc, argv, &i, "--threads", &value)) {
      require_positive("--threads", value);
      *threads = value;
    } else if (level_model != nullptr &&
               ParseStringFlag(argc, argv, &i, "--level-model",
                               level_model)) {
      ParseLevelModelPolicy(*level_model);  // validate eagerly
    } else if (multiget_batch != nullptr &&
               ParseSizeFlag(argc, argv, &i, "--multiget-batch", &value)) {
      *multiget_batch = value;
    } else if (block_cache_mb != nullptr &&
               ParseSizeFlag(argc, argv, &i, "--block-cache-mb", &value)) {
      *block_cache_mb = value;
      d.block_cache_bytes = value << 20;
    } else if (io_depth != nullptr &&
               ParseSizeFlag(argc, argv, &i, "--io-depth", &value)) {
      require_positive("--io-depth", value);
      if (value > 1024) {
        std::fprintf(stderr, "--io-depth too large (max 1024)\n");
        std::exit(2);
      }
      *io_depth = value;
      d.io_depth = static_cast<int>(value);
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: %s [--n KEYS] [--ops OPS] [--value-size BYTES] "
          "[--seed SEED]%s%s%s%s%s\n"
          "Environment overrides (LILSM_N, LILSM_OPS, ...) are documented "
          "in src/core/config.h; flags take precedence.\n",
          argv[0], threads != nullptr ? " [--threads T]" : "",
          level_model != nullptr ? " [--level-model lazy|maintained]" : "",
          multiget_batch != nullptr ? " [--multiget-batch N]" : "",
          block_cache_mb != nullptr ? " [--block-cache-mb MB]" : "",
          io_depth != nullptr ? " [--io-depth N]" : "");
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s (try --help)\n", argv[0],
                   argv[i]);
      std::exit(2);
    }
  }
  return d;
}

inline std::string BenchDir(const std::string& name) {
  const char* base = std::getenv("LILSM_BENCH_DIR");
  return std::string(base != nullptr ? base : "/tmp") + "/lilsm_bench_" +
         name;
}

inline Status MakeTestbed(const std::string& name, const IndexSetup& setup,
                          const ExperimentDefaults& defaults,
                          std::unique_ptr<Testbed>* bed) {
  Testbed::Options options;
  options.dir = BenchDir(name);
  options.defaults = defaults;
  options.setup = setup;
  options.sim = SimEnv::OptionsFromEnvironment();
  return Testbed::Create(options, bed);
}

inline void PrintHeader(const char* figure, const char* what,
                        const ExperimentDefaults& d) {
  std::printf(
      "# %s — %s\n"
      "# scaled run: N=%zu keys, %u B values, %zu ops, SST=%.1f MiB "
      "(paper: 6.4M keys, 1000 B values, 1M ops; see EXPERIMENTS.md)\n\n",
      figure, what, d.num_keys, d.value_size, d.num_ops,
      d.sstable_target_size / 1048576.0);
}

}  // namespace bench
}  // namespace lilsm

#endif  // LILSM_BENCH_BENCH_COMMON_H_
