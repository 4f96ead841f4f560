// CRC32C known-answer tests, masking behaviour, and equivalence of the
// CPU-chosen body with the portable reference.
#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/random.h"

namespace lilsm {
namespace crc32c {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// Known-answer vectors from the CRC32C specification (iSCSI / RFC 3720,
// also used by LevelDB's crc32c_test).
void ExpectStandardResults(ExtendFn extend) {
  char buf[32];
  std::memset(buf, 0, sizeof(buf));
  EXPECT_EQ(extend(0, buf, sizeof(buf)), 0x8a9136aau);
  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(extend(0, buf, sizeof(buf)), 0x62a8ab43u);
  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(extend(0, buf, sizeof(buf)), 0x46dd794eu);
  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(extend(0, buf, sizeof(buf)), 0x113fdb5cu);
}

TEST(Crc32cTest, StandardResults) {
  ExpectStandardResults(&Extend);
  ExpectStandardResults(&ExtendPortable);
}

std::string RandomBytes(size_t n, uint32_t seed) {
  Random rnd(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rnd.Uniform(256));
  return s;
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndOffset) {
  // Covers the 8-byte loop, every tail length, and unaligned starts.
  const std::string buf = RandomBytes(4100 + 8, 1);
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t n = 0; n <= 4100; n++) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(Extend(0, p, n), ExtendPortable(0, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, DispatchedExtendSplitsLikePortable) {
  const std::string buf = RandomBytes(300, 2);
  const uint32_t whole = ExtendPortable(0, buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split++) {
    const uint32_t head = Extend(0, buf.data(), split);
    EXPECT_EQ(head, ExtendPortable(0, buf.data(), split));
    EXPECT_EQ(Extend(head, buf.data() + split, buf.size() - split), whole)
        << "split at " << split;
  }
}

// Taken during this binary's static initialization, which may run before
// anything in crc32c.cc has been touched: the value must still be right.
const uint32_t kStaticInitCheck = Value("123456789", 9);

TEST(Crc32cTest, CorrectDuringStaticInitialization) {
  EXPECT_EQ(kStaticInitCheck, 0xe3069283u);  // the CRC-32C check value
}

TEST(Crc32cTest, AcceleratedWhereTheCpuAllowsIt) {
  // A build or dispatch mistake that silently falls back to the table loop
  // keeps every value right; only this check notices it.
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  EXPECT_EQ(IsAccelerated(), __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(IsAccelerated());
#endif
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
  EXPECT_NE(Value("a", 1), Value("b", 1));
}

TEST(Crc32cTest, ExtendComposes) {
  std::string hello = "hello ";
  std::string world = "world";
  std::string both = hello + world;
  EXPECT_EQ(Value(both.data(), both.size()),
            Extend(Value(hello.data(), hello.size()), world.data(),
                   world.size()));
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  const uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(Value("", 0), 0u);
}

}  // namespace
}  // namespace crc32c
}  // namespace lilsm
