// CRC32C (Castagnoli) checksums: one implementation behind every
// checksummed byte lilsm writes or reads — wire frames (server and client),
// WAL and MANIFEST records, and checksummed table blocks (meta, bloom and
// index).
//
// Extend picks its body once, on first use, from the CPU: the SSE4.2 crc32
// instruction on x86-64 CPUs that have it, otherwise a portable
// byte-at-a-time table loop. Both produce identical values, so the choice
// never changes what is stored.
#ifndef LILSM_UTIL_CRC32C_H_
#define LILSM_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace lilsm {
namespace crc32c {

/// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the
/// crc32c of some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The portable table-loop body of Extend: the fallback on CPUs without a
/// crc32 instruction, and the reference the accelerated body is tested
/// against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// True when Extend runs on the CPU's crc32 instruction (x86-64 SSE4.2).
bool IsAccelerated();

/// crc32c of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

/// Masked CRCs are stored on disk so that a CRC of data that itself
/// contains embedded CRCs does not degrade (LevelDB convention).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace lilsm

#endif  // LILSM_UTIL_CRC32C_H_
