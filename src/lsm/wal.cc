#include "lsm/wal.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace lilsm {

namespace {

/// Records beyond this are never written; a larger length field is a
/// damaged header, not a real record.
constexpr uint32_t kMaxRecordLength = 1u << 30;

}  // namespace

Status LogWriter::AddRecord(const Slice& record) {
  char header[8];
  EncodeFixed32(header,
                crc32c::Mask(crc32c::Value(record.data(), record.size())));
  EncodeFixed32(header + 4, static_cast<uint32_t>(record.size()));
  Status s = file_->Append(Slice(header, 8));
  if (!s.ok()) return s;
  return file_->Append(record);
}

/// Replaces the drained buffer with the next block of the file: one Read
/// of up to kBlockSize bytes. An empty buffer afterwards means end-of-file.
Status LogReader::FillBuffer() {
  Status s = file_->Read(kBlockSize, &buffer_, backing_.get());
  if (!s.ok()) buffer_ = Slice();
  return s;
}

/// Consumes up to `n` bytes of the stream, refilling the buffer as it
/// drains, and hands each buffered piece to `take`. Sets *got to the bytes
/// consumed: fewer than `n` reliably means end-of-file (a short Read is
/// not), the fact the torn-tail classification rests on.
template <typename Take>
Status LogReader::Consume(uint64_t n, uint64_t* got, Take&& take) {
  *got = 0;
  while (*got < n) {
    if (buffer_.empty()) {
      Status s = FillBuffer();
      if (!s.ok()) return s;
      if (buffer_.empty()) break;
    }
    const size_t piece =
        static_cast<size_t>(std::min<uint64_t>(n - *got, buffer_.size()));
    take(Slice(buffer_.data(), piece));
    buffer_.remove_prefix(piece);
    *got += piece;
  }
  return Status::OK();
}

bool LogReader::AtEof() {
  if (!buffer_.empty()) return false;
  return FillBuffer().ok() && buffer_.empty();
}

LogReadStatus LogReader::Read(std::string* record) {
  if (last_ != LogReadStatus::kOk) return last_;  // terminal states stick
  last_ = ReadInternal(record);
  return last_;
}

LogReadStatus LogReader::ReadInternal(std::string* record) {
  char header[8];
  char* fill = header;
  uint64_t got = 0;
  Status s = Consume(sizeof(header), &got, [&fill](const Slice& piece) {
    std::memcpy(fill, piece.data(), piece.size());
    fill += piece.size();
  });
  if (!s.ok() || got == 0) {
    return LogReadStatus::kEof;  // clean end of log
  }
  if (got < sizeof(header)) {
    return LogReadStatus::kTornTail;  // EOF inside the header
  }
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(header));
  const uint32_t length = DecodeFixed32(header + 4);
  if (length > kMaxRecordLength) {
    // Garbage length field. If the file ends before the claimed payload,
    // this is the scribbled final record of a crash; if that many valid
    // bytes actually follow, the header itself was damaged in place. The
    // claimed bytes are skipped, never allocated.
    s = Consume(length, &got, [](const Slice&) {});
    return s.ok() && got < length ? LogReadStatus::kTornTail
                                  : LogReadStatus::kCorruption;
  }
  // Grow the record only as its bytes arrive, at most a buffered block at
  // a time: a garbage length just under the cap must not allocate a
  // gigabyte for a payload the file does not hold.
  record->clear();
  s = Consume(length, &got, [record](const Slice& piece) {
    record->append(piece.data(), piece.size());
  });
  if (!s.ok() || got < length) {
    return LogReadStatus::kTornTail;  // EOF inside the payload
  }
  if (crc32c::Value(record->data(), record->size()) != expected_crc) {
    // Full payload, bad checksum. On the final record this is the torn
    // tail of a crash (zero-filled or partially persisted sectors); with
    // valid bytes beyond it, the middle of the log is damaged.
    return AtEof() ? LogReadStatus::kTornTail : LogReadStatus::kCorruption;
  }
  return LogReadStatus::kOk;
}

}  // namespace lilsm
