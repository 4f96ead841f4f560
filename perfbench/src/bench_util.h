// Helpers of the perfbench harness that carry no engine state: latency
// percentiles, the self-verifying value codec, and span self-time
// computation. Header-only so the unit tests exercise exactly this code.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock for every timing the harness takes.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `samples`, which it reorders.
/// The rank is ceil(q * n), clamped to [1, n]; an empty set reads as 0.
inline double Percentile(std::vector<uint32_t>* samples, double q) {
  if (samples->empty()) return 0.0;
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(q * static_cast<double>(n) + 0.999999999);
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = samples->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples->begin(), nth, samples->end());
  return static_cast<double>(*nth);
}

/// How many samples lie strictly beyond the q-percentile's rank.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(q * static_cast<double>(n) + 0.999999999);
  return n > rank ? n - rank : 0;
}

// ---------------------------------------------------------------------------
// Self-verifying values
// ---------------------------------------------------------------------------

/// Every value the benchmark writes is kValueSize bytes: the key (8 bytes,
/// little-endian), a write version (8 bytes), and filler derived from both.
/// A read verifies it against the key it asked for, with no shared oracle.
inline constexpr size_t kValueSize = 120;

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

inline void FillValue(uint64_t key, uint64_t version, char* out) {
  std::memcpy(out, &key, 8);
  std::memcpy(out + 8, &version, 8);
  uint64_t state = Mix64(key ^ (version * 0x9E3779B97f4A7C15ull));
  for (size_t i = 16; i < kValueSize; i += 8) {
    state = Mix64(state + 0x9E3779B97f4A7C15ull);
    std::memcpy(out + i, &state, std::min<size_t>(8, kValueSize - i));
  }
}

inline std::string EncodeValue(uint64_t key, uint64_t version) {
  std::string value(kValueSize, '\0');
  FillValue(key, version, value.data());
  return value;
}

/// True when `value` is a well-formed value written for `key`; reports its
/// version through *version (may be null).
inline bool VerifyValue(uint64_t key, std::string_view value,
                        uint64_t* version = nullptr) {
  if (value.size() != kValueSize) return false;
  uint64_t stored_key = 0, stored_version = 0;
  std::memcpy(&stored_key, value.data(), 8);
  std::memcpy(&stored_version, value.data() + 8, 8);
  if (stored_key != key) return false;
  char expected[kValueSize];
  FillValue(key, stored_version, expected);
  if (std::memcmp(expected, value.data(), kValueSize) != 0) return false;
  if (version != nullptr) *version = stored_version;
  return true;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval at a layer boundary. Spans of one thread are stored in
/// start order, so a parent always precedes its children; `parent` indexes
/// into the same thread's span list (-1: a root).
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request = 0;  // one id per request; 0 for unowned work
  uint64_t amount = 0;   // bytes for I/O spans, keys/records for operations
  int32_t parent = -1;
  uint16_t name = 0;
};

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (children of one thread never overlap each other).
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (size_t i = 0; i < spans.size(); i++) {
    const int32_t p = spans[i].parent;
    if (p < 0) continue;
    const Span& parent = spans[static_cast<size_t>(p)];
    const uint64_t lo = std::max(spans[i].start_ns, parent.start_ns);
    const uint64_t hi = std::min(spans[i].end_ns, parent.end_ns);
    const uint64_t covered = hi > lo ? hi - lo : 0;
    self[static_cast<size_t>(p)] -= std::min(covered, self[static_cast<size_t>(p)]);
  }
  return self;
}

/// Index of each span's root (itself when it has no parent).
inline std::vector<int32_t> RootsOf(const std::vector<Span>& spans) {
  std::vector<int32_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    const int32_t p = spans[i].parent;
    root[i] = p < 0 ? static_cast<int32_t>(i) : root[static_cast<size_t>(p)];
  }
  return root;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
