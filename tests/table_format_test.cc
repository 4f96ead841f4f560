// On-disk format primitives: handles, footer, checksummed blocks, user-key
// encoding.
#include "table/format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "tests/test_util.h"
#include "util/random.h"

namespace lilsm {
namespace {

using testing_util::ScratchDir;

TEST(BlockHandleTest, RoundTrip) {
  BlockHandle handle;
  handle.offset = 123456789;
  handle.size = 42;
  std::string encoded;
  handle.EncodeTo(&encoded);
  BlockHandle decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input));
  EXPECT_EQ(decoded.offset, handle.offset);
  EXPECT_EQ(decoded.size, handle.size);
}

TEST(FooterTest, RoundTripAndFixedSize) {
  Footer footer;
  footer.meta_handle = {100, 10};
  footer.bloom_handle = {200, 20};
  footer.index_handle = {300, 30};
  std::string encoded;
  footer.EncodeTo(&encoded);
  EXPECT_EQ(encoded.size(), Footer::kEncodedLength);

  Footer decoded;
  Slice input(encoded);
  ASSERT_LILSM_OK(decoded.DecodeFrom(&input));
  EXPECT_EQ(decoded.meta_handle.offset, 100u);
  EXPECT_EQ(decoded.bloom_handle.size, 20u);
  EXPECT_EQ(decoded.index_handle.offset, 300u);
}

TEST(FooterTest, RejectsBadMagic) {
  Footer footer;
  std::string encoded;
  footer.EncodeTo(&encoded);
  encoded.back() = static_cast<char>(encoded.back() ^ 1);
  Footer decoded;
  Slice input(encoded);
  EXPECT_TRUE(decoded.DecodeFrom(&input).IsCorruption());
}

TEST(ChecksummedBlockTest, WriteReadVerify) {
  ScratchDir dir("fmt");
  const std::string fname = dir.file("blk");
  std::unique_ptr<WritableFile> file;
  ASSERT_LILSM_OK(Env::Default()->NewWritableFile(fname, &file));
  const std::string payload(10000, 'p');
  BlockHandle handle;
  ASSERT_LILSM_OK(WriteChecksummedBlock(file.get(), 0, payload, &handle));
  ASSERT_LILSM_OK(file->Close());
  EXPECT_EQ(handle.size, payload.size() + 4);

  std::unique_ptr<RandomAccessFile> reader;
  ASSERT_LILSM_OK(Env::Default()->NewRandomAccessFile(fname, &reader));
  std::string contents;
  ASSERT_LILSM_OK(ReadChecksummedBlock(reader.get(), handle, &contents));
  EXPECT_EQ(contents, payload);

  // Any flipped byte must be caught.
  BlockHandle bad = handle;
  std::string raw;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &raw));
  raw[500] = static_cast<char>(raw[500] ^ 0xff);
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), raw, fname));
  ASSERT_LILSM_OK(Env::Default()->NewRandomAccessFile(fname, &reader));
  EXPECT_TRUE(ReadChecksummedBlock(reader.get(), bad, &contents)
                  .IsCorruption());
}

/// Serves reads from an in-memory copy of a file, so a test can corrupt
/// bytes without rewriting the file for every variant.
class StringFile final : public RandomAccessFile {
 public:
  explicit StringFile(std::string contents) : contents_(std::move(contents)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (offset > contents_.size()) {
      *result = Slice();
      return Status::OK();
    }
    n = std::min<size_t>(n, contents_.size() - offset);
    std::memcpy(scratch, contents_.data() + offset, n);
    *result = Slice(scratch, n);
    return Status::OK();
  }

  std::string contents_;
};

TEST(ChecksummedBlockTest, EveryFlippedBitFailsVerify) {
  ScratchDir dir("fmt");
  const std::string fname = dir.file("blk");
  std::unique_ptr<WritableFile> file;
  ASSERT_LILSM_OK(Env::Default()->NewWritableFile(fname, &file));
  std::string payload(300, '\0');
  Random rnd(5);
  for (char& c : payload) c = static_cast<char>(rnd.Uniform(256));
  BlockHandle handle;
  ASSERT_LILSM_OK(WriteChecksummedBlock(file.get(), 0, payload, &handle));
  ASSERT_LILSM_OK(file->Close());
  std::string raw;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &raw));
  ASSERT_EQ(raw.size(), handle.size);

  StringFile image(raw);
  std::string contents;
  ASSERT_LILSM_OK(ReadChecksummedBlock(&image, handle, &contents));
  EXPECT_EQ(contents, payload);
  // A flip in the payload or in the crc trailer must be caught.
  for (size_t bit = 0; bit < raw.size() * 8; bit++) {
    image.contents_ = raw;
    char& byte = image.contents_[bit / 8];
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    EXPECT_TRUE(ReadChecksummedBlock(&image, handle, &contents).IsCorruption())
        << "flipped bit " << bit;
  }
}

TEST(UserKeyCodecTest, BigEndianOrderMatchesIntegerOrder) {
  Random rnd(3);
  char a_buf[24], b_buf[24];
  for (int trial = 0; trial < 2000; trial++) {
    const uint64_t a = rnd.Next();
    const uint64_t b = rnd.Next();
    EncodeUserKey(a, 24, a_buf);
    EncodeUserKey(b, 24, b_buf);
    EXPECT_EQ(a < b, memcmp(a_buf, b_buf, 24) < 0);
    EXPECT_EQ(DecodeUserKey(a_buf), a);
  }
}

TEST(UserKeyCodecTest, PaddingIsZero) {
  char buf[24];
  EncodeUserKey(0x0102030405060708ull, 24, buf);
  for (int i = 8; i < 24; i++) EXPECT_EQ(buf[i], 0);
  EXPECT_EQ(static_cast<unsigned char>(buf[0]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(buf[7]), 0x08);
}

}  // namespace
}  // namespace lilsm
