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

/// Payload read granularity; bounds what a record allocates beyond the
/// bytes actually present in the file.
constexpr size_t kReadChunk = 64 << 10;

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

/// Accumulates up to `n` bytes into `scratch`, looping over short reads
/// so a result shorter than `n` reliably means end-of-file — the fact
/// the torn-tail classification rests on.
Status LogReader::ReadFully(size_t n, Slice* result, char* scratch) {
  size_t got = 0;
  while (got < n) {
    Slice chunk;
    Status s = file_->Read(n - got, &chunk, scratch + got);
    if (!s.ok()) return s;
    if (chunk.empty()) break;
    if (chunk.data() != scratch + got) {
      std::memmove(scratch + got, chunk.data(), chunk.size());
    }
    got += chunk.size();
  }
  *result = Slice(scratch, got);
  return Status::OK();
}

bool LogReader::AtEof() {
  char byte;
  Slice probe;
  Status s = file_->Read(1, &probe, &byte);
  return s.ok() && probe.empty();
}

/// Consumes the stream to decide whether fewer than `length` bytes
/// remain. Bounded scratch: the garbage length is never allocated.
bool LogReader::EofWithin(uint64_t length) {
  char buf[4096];
  uint64_t remaining = length;
  while (remaining > 0) {
    Slice chunk;
    Status s = file_->Read(
        static_cast<size_t>(std::min<uint64_t>(remaining, sizeof(buf))),
        &chunk, buf);
    if (!s.ok()) return false;
    if (chunk.empty()) return true;
    remaining -= chunk.size();
  }
  return false;
}

LogReadStatus LogReader::Read(std::string* record) {
  if (last_ != LogReadStatus::kOk) return last_;  // terminal states stick
  last_ = ReadInternal(record);
  return last_;
}

LogReadStatus LogReader::ReadInternal(std::string* record) {
  char header[8];
  Slice contents;
  Status s = ReadFully(8, &contents, header);
  if (!s.ok() || contents.size() == 0) {
    return LogReadStatus::kEof;  // clean end of log
  }
  if (contents.size() < 8) {
    return LogReadStatus::kTornTail;  // EOF inside the header
  }
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(contents.data()));
  const uint32_t length = DecodeFixed32(contents.data() + 4);
  if (length > kMaxRecordLength) {
    // Garbage length field. If the file ends before the claimed payload,
    // this is the scribbled final record of a crash; if that many valid
    // bytes actually follow, the header itself was damaged in place.
    return EofWithin(length) ? LogReadStatus::kTornTail
                             : LogReadStatus::kCorruption;
  }
  // Grow the record only as its bytes arrive: a garbage length just under
  // the cap must not allocate (and zero-fill) a gigabyte for a payload the
  // file does not hold.
  record->clear();
  while (record->size() < length) {
    const size_t got = record->size();
    const size_t want = std::min<size_t>(length - got, kReadChunk);
    record->resize(got + want);
    Slice chunk;
    s = ReadFully(want, &chunk, record->data() + got);
    if (!s.ok() || chunk.size() < want) {
      return LogReadStatus::kTornTail;  // EOF inside the payload
    }
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
