// On-disk building blocks of a table file: block handles, the footer, and
// checksummed auxiliary blocks.
#ifndef LILSM_TABLE_FORMAT_H_
#define LILSM_TABLE_FORMAT_H_

#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace lilsm {

/// Default device I/O block: segment fetches are aligned to it and the
/// simulated environment counts I/O in these units.
constexpr uint64_t kIoBlockSize = 4096;

/// Largest stored key a table accepts: the reader probes single keys
/// through a buffer of this size.
constexpr uint32_t kMaxKeySize = 64;

/// Identifies a byte range within a table file.
struct BlockHandle {
  uint64_t offset = 0;
  uint64_t size = 0;

  void EncodeTo(std::string* dst) const {
    PutVarint64(dst, offset);
    PutVarint64(dst, size);
  }
  bool DecodeFrom(Slice* input) {
    return GetVarint64(input, &offset) && GetVarint64(input, &size);
  }

  /// Maximum encoded size of a handle (two 10-byte varints).
  static constexpr size_t kMaxEncodedLength = 20;
};

/// Fixed-size trailer of every table file:
///   meta_handle | bloom_handle | index_handle | segments_handle
///   | padding | magic(8B)
/// segments_handle is reserved: new tables write it empty (offset 0,
/// size 0) and readers ignore it. Older tables may name a copy of the
/// index's leaf segments there; the index blob is the persisted model.
struct Footer {
  BlockHandle meta_handle;
  BlockHandle bloom_handle;
  BlockHandle index_handle;
  BlockHandle segments_handle;

  static constexpr uint64_t kTableMagic = 0x4c534d5441424c45ull;  // "LSMTABLE"
  static constexpr size_t kEncodedLength =
      4 * BlockHandle::kMaxEncodedLength + 8;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);
};

/// Appends `contents` + crc32c trailer to `file` and records the range in
/// `handle` (the crc is included in handle->size).
Status WriteChecksummedBlock(WritableFile* file, uint64_t offset,
                             const Slice& contents, BlockHandle* handle);

/// Reads a block written by WriteChecksummedBlock and verifies its crc.
/// On success `*result` owns the payload bytes (without the crc).
Status ReadChecksummedBlock(RandomAccessFile* file, const BlockHandle& handle,
                            std::string* result);

/// Reads and decodes the footer of a table file of the given size.
Status ReadFooter(RandomAccessFile* file, uint64_t file_size, Footer* footer);

/// Fixed-width big-endian user-key encoding (sorting as bytes == sorting
/// as integers); the remaining key_size - 8 bytes are zero padding matching
/// the paper's 24-byte key geometry.
void EncodeUserKey(uint64_t key, uint32_t key_size, char* dst);
uint64_t DecodeUserKey(const char* src);

}  // namespace lilsm

#endif  // LILSM_TABLE_FORMAT_H_
