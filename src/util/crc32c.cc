#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define LILSM_CRC32C_SSE42 1
#endif

namespace lilsm {
namespace crc32c {

namespace {

// Byte-at-a-time table for CRC32C (polynomial 0x1EDC6F41, reflected
// 0x82F63B78). constexpr, so it is constant-initialized: a CRC taken during
// another translation unit's static initialization sees a complete table.
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    t[i] = crc;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#ifdef LILSM_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes the same reflected CRC32C: eight
// bytes per instruction (little-endian load, so byte order matches the
// table loop), then a byte tail. Compiled for SSE4.2 on its own, so the
// rest of the binary still runs on x86-64 without it.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  const char* p = data;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; p++, n--) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
  }
  return crc32 ^ 0xFFFFFFFFu;
}

bool DetectSse42() {
  // The CPU model is filled in by a libgcc constructor; initialize it here
  // in case this runs during static initialization, before that constructor.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool IsAccelerated() {
#ifdef LILSM_CRC32C_SSE42
  // Function-local, so the CPU check runs on first use (thread-safe) rather
  // than in a namespace-scope initializer another TU could race ahead of.
  static const bool accelerated = DetectSse42();
  return accelerated;
#else
  return false;
#endif
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#ifdef LILSM_CRC32C_SSE42
  if (IsAccelerated()) return ExtendSse42(init_crc, data, n);
#endif
  return ExtendPortable(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace lilsm
