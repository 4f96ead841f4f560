// Env: the interface between the storage engine and the operating system.
// PosixEnv implements it with pread/append file I/O; SimEnv (sim_env.h)
// decorates any Env with a calibrated I/O latency model and counters so
// experiments are reproducible on page-cached filesystems.
#ifndef LILSM_UTIL_ENV_H_
#define LILSM_UTIL_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace lilsm {

/// A file abstraction for reading at arbitrary offsets (pread).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to `n` bytes starting at `offset`. Sets `*result` to the data
  /// read (which may point into `scratch`, whose lifetime the caller owns).
  /// A result shorter than `n` means the file ended inside the range.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;

  /// Like Read, but a latency-modeling Env (SimEnv) reports the modeled
  /// device cost in `*latency_ns` instead of stalling inline, so a batch
  /// backend can overlap the waits of many requests (cost = max per wave,
  /// not sum). The default performs a plain Read and reports zero.
  virtual Status ReadDeferred(uint64_t offset, size_t n, Slice* result,
                              char* scratch, uint64_t* latency_ns) const {
    *latency_ns = 0;
    return Read(offset, n, result, scratch);
  }

  /// OS file descriptor for backends that submit raw syscalls (io_uring),
  /// or -1 when the file is not backed by one (wrappers, in-memory files).
  virtual int FileDescriptor() const { return -1; }
};

/// One read in a batch. The caller owns `scratch` (at least `n` bytes) and
/// keeps it alive until the owning ReadBatch::Wait returns; `result` and
/// `status` are filled by the batch. A short `result` means EOF inside the
/// range, mirroring RandomAccessFile::Read.
struct ReadRequest {
  const RandomAccessFile* file = nullptr;
  uint64_t offset = 0;
  size_t n = 0;
  char* scratch = nullptr;
  Slice result;
  Status status;
};

/// An io_uring-shaped submission queue: Add() enqueues requests, Wait()
/// executes them all (up to `io_depth` in flight at once) and returns the
/// first failure, if any — per-request outcomes land in each request's
/// `result`/`status`. Wait() clears the queue, so one batch object can be
/// reused across successive submission rounds (a MultiGet level adds one
/// request per cold span). Batches are not thread-safe; each belongs to
/// one caller.
class ReadBatch {
 public:
  virtual ~ReadBatch() = default;

  /// Enqueues `req` for the next Wait(). The pointed-to request (and its
  /// scratch buffer) must stay alive until Wait() returns.
  virtual void Add(ReadRequest* req) = 0;

  /// Executes every queued request and blocks until all complete. Returns
  /// OK if every request succeeded, else the first failing status (all
  /// requests still run to completion). A Wait() with nothing queued is a
  /// no-op returning OK.
  virtual Status Wait() = 0;
};

/// A file abstraction for sequential appends.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// A file abstraction for sequential reads (WAL/MANIFEST replay).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to `n` bytes into scratch; `*result` views the bytes read.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide default environment (POSIX). Never deleted.
  static Env* Default();

  virtual Status NewRandomAccessFile(const std::string& fname,
                                     std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;
  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status RemoveDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;

  /// Makes the directory's entries durable (fsync of the directory fd on
  /// POSIX). A file's own Sync() persists its data blocks but not the
  /// directory entry naming it; after creating or renaming a file whose
  /// presence must survive a crash, callers sync the parent directory too.
  /// The default is a no-op so in-memory and test Envs need not override.
  virtual Status SyncDir(const std::string& dirname) {
    (void)dirname;
    return Status::OK();
  }

  /// Monotonic clock in nanoseconds, used by all instrumentation.
  virtual uint64_t NowNanos() = 0;
  uint64_t NowMicros() { return NowNanos() / 1000; }

  /// Runs `work` once on a background thread. The default implementation
  /// feeds a process-wide ThreadPool shared by every Env. The engine does
  /// not call this: each DB runs its maintenance jobs on a pool it owns,
  /// so DBs in one process never queue behind each other. Closures must
  /// not assume any ordering beyond FIFO dispatch.
  virtual void Schedule(std::function<void()> work);

  /// Creates a batch that keeps up to `io_depth` reads in flight at once
  /// (clamped to at least 1). The default backend fans submissions out
  /// over a process-wide I/O ThreadPool, with the waiting thread also
  /// pulling requests; PosixEnv upgrades to io_uring when the build found
  /// liburing (LILSM_WITH_URING); SimEnv returns a deterministic
  /// queue-depth model instead of real concurrency.
  virtual std::unique_ptr<ReadBatch> NewReadBatch(int io_depth);
};

/// Reads exactly `n` bytes at `offset` unless the file ends first: loops on
/// short reads, accumulating into `scratch`, and stops at EOF (an empty
/// chunk), so `*result` is only shorter than `n` at end of file. Batch
/// backends use this so wrapped files that return partial reads still
/// produce full spans.
Status FullyRead(const RandomAccessFile* file, uint64_t offset, size_t n,
                 Slice* result, char* scratch);

/// Raw-fd write/read hooks, injectable so tests can force the partial
/// writes, EINTR storms, and EAGAIN stalls real sockets produce. nullptr
/// selects ::write / ::read.
using FdWriteFn = ssize_t (*)(int fd, const void* buf, size_t n);
using FdReadFn = ssize_t (*)(int fd, void* buf, size_t n);

/// Writes exactly `n` bytes to `fd` (the socket mirror of FullyRead):
/// loops on short writes, retries EINTR, and on EAGAIN/EWOULDBLOCK —
/// a full socket send buffer — poll()s for writability before retrying,
/// so callers on blocking or timeout sockets never lose a frame tail.
Status FullyWrite(int fd, const char* data, size_t n,
                  FdWriteFn write_fn = nullptr);

/// Reads exactly `n` bytes from `fd` unless it reaches EOF first: loops
/// on short reads, retries EINTR, and poll()s through EAGAIN. `*got` < n
/// means EOF inside the range (a peer hangup mid-frame).
Status FullyReadFd(int fd, char* data, size_t n, size_t* got,
                   FdReadFn read_fn = nullptr);

/// Reads the entire named file into *data.
Status ReadFileToString(Env* env, const std::string& fname, std::string* data);

/// Creates (or truncates) the named file with the given contents and syncs.
Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname);

}  // namespace lilsm

#endif  // LILSM_UTIL_ENV_H_
