// Write-ahead log (also used for the MANIFEST): a sequence of records, each
//   masked crc32c (4B) | payload length (4B) | payload.
// Replay distinguishes two kinds of damage. A record that runs into
// end-of-file (short header, short payload, or a checksum mismatch on the
// final record) is a torn tail: the expected residue of a crash
// mid-append, and a clean end of log. A damaged record with valid bytes
// beyond it is mid-log corruption: committed data after it would be lost,
// so recovery must fail rather than silently truncate history.
//
// Replay reads the file in kBlockSize blocks through one buffer the reader
// owns, so a log costs one SequentialFile::Read per 64 KiB (plus the empty
// read that proves end-of-file) whatever its record count, in every Env.
// Records are not aligned to blocks: a header or payload that straddles a
// block boundary is stitched from two reads. The buffer changes only how
// bytes arrive, never how a log ends: end-of-file is still an empty Read,
// and each classification above is decided on the same byte stream.
//
// Concurrency contract: LogWriter/LogReader are single-threaded objects;
// the engine guarantees one appender at a time. The appender is the DB's
// writer-queue LEADER, which appends with the DB mutex RELEASED — being at
// the front of the queue is the exclusive-writer token, so there is still
// exactly one thread touching the LogWriter, and log order still matches
// sequence order (the leader assigns the group's sequences before
// appending). The MANIFEST writer is only touched by LogAndApply, always
// under the mutex. Rolling the WAL at a memtable switch replaces the
// LogWriter wholesale, under the mutex and while holding the queue front
// (as the leader or as a barrier); the retired log is only read again
// during single-threaded recovery.
#ifndef LILSM_LSM_WAL_H_
#define LILSM_LSM_WAL_H_

#include <memory>
#include <string>

#include "util/env.h"

namespace lilsm {

class LogWriter {
 public:
  explicit LogWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  Status AddRecord(const Slice& record);
  Status Flush() { return file_->Flush(); }
  Status Sync() { return file_->Sync(); }
  Status Close() { return file_->Close(); }

 private:
  std::unique_ptr<WritableFile> file_;
};

/// Outcome of one LogReader::Read call. Everything except kOk is
/// terminal: the reader stays at that status for all further calls.
enum class LogReadStatus {
  kOk = 0,     // *record holds the next record
  kEof,        // clean end of log
  kTornTail,   // record runs into EOF — a crash artifact, recoverable
  kCorruption, // damaged record with valid bytes beyond — fail open
};

class LogReader {
 public:
  /// Bytes asked of the file per Read. A payload grows only by the bytes
  /// each Read delivers, so what a garbage length allocates is bounded by
  /// what the file actually holds.
  static constexpr size_t kBlockSize = 64 << 10;

  explicit LogReader(std::unique_ptr<SequentialFile> file)
      : file_(std::move(file)), backing_(new char[kBlockSize]) {}

  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  /// Reads the next record into *record and returns kOk, or reports how
  /// the log ended. Classification: a record cut off by end-of-file is
  /// kTornTail (the torn final append of a crashed process — replay
  /// stops there, everything before it is intact); a record whose
  /// checksum fails, or whose header is garbage, while valid bytes still
  /// follow is kCorruption (stopping would silently drop committed
  /// records, so the caller must refuse the log).
  LogReadStatus Read(std::string* record);

  /// Legacy surface: true when Read yields a record; on false, result()
  /// carries the typed terminal status.
  bool ReadRecord(std::string* record) {
    return Read(record) == LogReadStatus::kOk;
  }

  /// Terminal status after ReadRecord/Read returns false/non-kOk.
  LogReadStatus result() const { return last_; }

  /// Legacy predicate: the log ended at a damaged record (either kind).
  bool hit_corruption() const {
    return last_ == LogReadStatus::kTornTail ||
           last_ == LogReadStatus::kCorruption;
  }

 private:
  LogReadStatus ReadInternal(std::string* record);
  Status FillBuffer();
  template <typename Take>
  Status Consume(uint64_t n, uint64_t* got, Take&& take);
  bool AtEof();

  std::unique_ptr<SequentialFile> file_;
  std::unique_ptr<char[]> backing_;  // kBlockSize bytes of read scratch
  Slice buffer_;                     // unconsumed bytes of the last Read
  LogReadStatus last_ = LogReadStatus::kOk;
};

}  // namespace lilsm

#endif  // LILSM_LSM_WAL_H_
