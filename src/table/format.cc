#include "table/format.h"

#include <cstring>

#include "util/crc32c.h"

namespace lilsm {

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  meta_handle.EncodeTo(dst);
  bloom_handle.EncodeTo(dst);
  index_handle.EncodeTo(dst);
  segments_handle.EncodeTo(dst);
  dst->resize(original_size + 4 * BlockHandle::kMaxEncodedLength);  // pad
  PutFixed64(dst, kTableMagic);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer: too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  if (DecodeFixed64(magic_ptr) != kTableMagic) {
    return Status::Corruption("footer: bad magic number");
  }
  Slice handles(input->data(), kEncodedLength - 8);
  if (!meta_handle.DecodeFrom(&handles) ||
      !bloom_handle.DecodeFrom(&handles) ||
      !index_handle.DecodeFrom(&handles) ||
      !segments_handle.DecodeFrom(&handles)) {
    return Status::Corruption("footer: bad block handles");
  }
  input->remove_prefix(kEncodedLength);
  return Status::OK();
}

Status WriteChecksummedBlock(WritableFile* file, uint64_t offset,
                             const Slice& contents, BlockHandle* handle) {
  Status s = file->Append(contents);
  if (!s.ok()) return s;
  char trailer[4];
  EncodeFixed32(trailer,
                crc32c::Mask(crc32c::Value(contents.data(), contents.size())));
  s = file->Append(Slice(trailer, 4));
  if (!s.ok()) return s;
  handle->offset = offset;
  handle->size = contents.size() + 4;
  return Status::OK();
}

Status ReadChecksummedBlock(RandomAccessFile* file, const BlockHandle& handle,
                            std::string* result) {
  if (handle.size < 4) {
    return Status::Corruption("block: handle smaller than crc trailer");
  }
  std::string buf(handle.size, '\0');
  Slice contents;
  Status s = file->Read(handle.offset, handle.size, &contents, buf.data());
  if (!s.ok()) return s;
  if (contents.size() != handle.size) {
    return Status::Corruption("block: truncated read");
  }
  const size_t payload = contents.size() - 4;
  const uint32_t expected =
      crc32c::Unmask(DecodeFixed32(contents.data() + payload));
  if (expected != crc32c::Value(contents.data(), payload)) {
    return Status::Corruption("block: checksum mismatch");
  }
  result->assign(contents.data(), payload);
  return Status::OK();
}

Status ReadFooter(RandomAccessFile* file, uint64_t file_size, Footer* footer) {
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("table file too short for footer");
  }
  char buf[Footer::kEncodedLength];
  Slice contents;
  Status s = file->Read(file_size - Footer::kEncodedLength,
                        Footer::kEncodedLength, &contents, buf);
  if (!s.ok()) return s;
  if (contents.size() != Footer::kEncodedLength) {
    return Status::Corruption("footer: truncated read");
  }
  Slice input = contents;
  return footer->DecodeFrom(&input);
}

void EncodeUserKey(uint64_t key, uint32_t key_size, char* dst) {
  for (int i = 0; i < 8; i++) {
    dst[i] = static_cast<char>((key >> (8 * (7 - i))) & 0xFF);
  }
  if (key_size > 8) {
    std::memset(dst + 8, 0, key_size - 8);
  }
}

uint64_t DecodeUserKey(const char* src) {
  uint64_t key = 0;
  for (int i = 0; i < 8; i++) {
    key = (key << 8) | static_cast<uint8_t>(src[i]);
  }
  return key;
}

}  // namespace lilsm
