// Measurement from outside the engine: an in-memory span recorder, an Env
// decorator that times every file read, append and sync, and a DB
// decorator (handed to Server::Start) that times the engine's share of
// each server request. Nothing here changes what the engine does.
#ifndef PERFBENCH_INSTRUMENTED_H_
#define PERFBENCH_INSTRUMENTED_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lsm/db.h"
#include "util/env.h"
#include "util/stats.h"

namespace perfbench {

using lilsm::Key;

enum SpanName : uint16_t {
  kLsmGet = 0,      // in-process DB::Get
  kLsmPut,          // in-process DB::Put
  kLsmScan,         // in-process DB::RangeLookup
  kLsmMultiGet,     // server worker -> DB::MultiGet
  kLsmWrite,        // server worker -> DB::Write
  kClientMultiGet,  // Client::MultiGet round trip
  kClientWrite,     // Client::Write round trip
  kEnvRead,         // RandomAccessFile::Read
  kEnvAppend,       // WritableFile::Append
  kEnvSync,         // WritableFile::Sync
  kEnvSeqRead,      // SequentialFile::Read (WAL/MANIFEST replay)
  kNumSpanNames
};

const char* SpanNameString(uint16_t name);

/// Per-(span name, root span name) totals over every recorded span.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t dur_ns = 0;
  uint64_t self_ns = 0;
  uint64_t amount = 0;  // bytes, keys or records (see Span)
};
using SpanTable = std::array<std::array<SpanTotals, kNumSpanNames>, kNumSpanNames>;

/// Process-wide span recorder. Each thread appends to its own log; a log
/// is folded into totals (self time per span via SelfTimes) whenever its
/// thread has no span open, and its first spans are kept verbatim for the
/// trace file.
class Tracer {
 public:
  /// Whether threads that issue no benchmark operation (background flush
  /// and compaction workers) record their file I/O.
  static std::atomic<bool> background_enabled;

  /// Marks the calling thread as one that issues benchmark operations:
  /// its file I/O is recorded only inside an open span.
  static void MarkOpThread();

  /// Whether the Env decorator should record I/O on this thread now.
  static bool ShouldTraceIo();

  /// Opens a span on this thread; returns its handle for End.
  static int32_t Begin(uint16_t name, uint64_t request);
  static void End(int32_t handle, uint64_t amount = 0);

  /// Folds every thread's outstanding spans into the totals and returns
  /// them. Call only while no span is open on any thread.
  static SpanTable Collect();

  /// Writes the kept spans as TSV (name, thread, request, parent, start,
  /// end in ns); returns the number written.
  static size_t WriteSpans(const std::string& path);

  static uint64_t NextRequestId();
};

/// RAII span; a no-op when `enabled` is false.
class ScopedSpan {
 public:
  ScopedSpan(bool enabled, uint16_t name, uint64_t request)
      : handle_(enabled ? Tracer::Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) Tracer::End(handle_, amount_);
  }
  void set_amount(uint64_t amount) { amount_ = amount; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const int32_t handle_;
  uint64_t amount_ = 0;
};

/// Env decorator: forwards to `base`, recording a span for each file read,
/// append and sync when Tracer::ShouldTraceIo() says so. NewReadBatch keeps
/// Env's portable backend, so batched reads also go through the traced
/// files (every workload runs with io_depth 1, where no batch is made).
///
/// File and directory syncs reach the page cache but not the device, as on
/// tmpfs: the database lives in whatever filesystem holds the checkout, and
/// a device sync there takes a few ms that vary with other tenants' I/O.
/// Every write still goes through the real file, so reads after a reopen
/// see exactly what the engine wrote.
class TracedEnv : public lilsm::Env {
 public:
  explicit TracedEnv(lilsm::Env* base) : base_(base) {}

  lilsm::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<lilsm::RandomAccessFile>* result) override;
  lilsm::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<lilsm::WritableFile>* result) override;
  lilsm::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<lilsm::SequentialFile>* result) override;

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  lilsm::Status GetChildren(const std::string& dir,
                            std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  lilsm::Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  lilsm::Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  lilsm::Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  lilsm::Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  lilsm::Status RenameFile(const std::string& src,
                           const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  lilsm::Status SyncDir(const std::string& /*dirname*/) override {
    return lilsm::Status::OK();
  }
  uint64_t NowNanos() override { return base_->NowNanos(); }
  void Schedule(std::function<void()> work) override {
    base_->Schedule(std::move(work));
  }

 private:
  lilsm::Env* const base_;
};

/// Hashes that let the server-side DB decorator find the client request a
/// call belongs to: the client registers the hash of what it sends, the
/// decorator hashes what the server decoded.
uint64_t HashKeys(std::span<const Key> keys);
uint64_t HashBatch(const lilsm::WriteBatch& batch);

/// Traced client requests in flight (at most one per connection).
class PendingRequests {
 public:
  void Register(uint64_t hash, uint64_t request);
  void Unregister(uint64_t request);
  /// The request id registered under `hash`, or 0.
  uint64_t Find(uint64_t hash);

 private:
  std::atomic<int> size_{0};
  std::mutex mu_;
  std::vector<std::pair<uint64_t, uint64_t>> entries_;  // (hash, request)
};

/// DB decorator handed to Server::Start. Calls that belong to a traced
/// client request run inside an engine span and report their lookup stages
/// to `traced_stats`; every other call is forwarded untouched.
class TracedDB : public lilsm::DB {
 public:
  TracedDB(lilsm::DB* base, PendingRequests* pending,
           lilsm::Stats* traced_stats)
      : base_(base), pending_(pending), traced_stats_(traced_stats) {}

  lilsm::Status Put(const lilsm::WriteOptions& o, Key key,
                    const lilsm::Slice& value) override {
    return base_->Put(o, key, value);
  }
  lilsm::Status Delete(const lilsm::WriteOptions& o, Key key) override {
    return base_->Delete(o, key);
  }
  lilsm::Status Write(const lilsm::WriteOptions& o,
                      lilsm::WriteBatch* batch) override;
  lilsm::Status Get(const lilsm::ReadOptions& o, Key key,
                    std::string* value) override {
    return base_->Get(o, key, value);
  }
  lilsm::Status MultiGet(const lilsm::ReadOptions& o, std::span<const Key> keys,
                         std::vector<std::string>* values,
                         std::vector<lilsm::Status>* statuses) override;
  std::unique_ptr<lilsm::Iterator> NewIterator(
      const lilsm::ReadOptions& o) override {
    return base_->NewIterator(o);
  }
  lilsm::Status RangeLookup(
      const lilsm::ReadOptions& o, Key start, size_t count,
      std::vector<std::pair<Key, std::string>>* out) override {
    return base_->RangeLookup(o, start, count, out);
  }
  const lilsm::Snapshot* GetSnapshot() override { return base_->GetSnapshot(); }
  void ReleaseSnapshot(const lilsm::Snapshot* s) override {
    base_->ReleaseSnapshot(s);
  }
  lilsm::Status FlushMemTable() override { return base_->FlushMemTable(); }
  lilsm::Status CompactUntilStable() override {
    return base_->CompactUntilStable();
  }
  lilsm::Status CompactAll() override { return base_->CompactAll(); }
  lilsm::Status ReconfigureIndexes(lilsm::IndexType type,
                                   const lilsm::IndexConfig& config) override {
    return base_->ReconfigureIndexes(type, config);
  }
  void SetIndexGranularity(lilsm::IndexGranularity g) override {
    base_->SetIndexGranularity(g);
  }
  void ClearBlockCache() override { base_->ClearBlockCache(); }
  size_t TotalIndexMemory() const override { return base_->TotalIndexMemory(); }
  size_t TotalFilterMemory() const override {
    return base_->TotalFilterMemory();
  }
  size_t BlockCacheMemory() const override { return base_->BlockCacheMemory(); }
  size_t LevelIndexMemory(int level) const override {
    return base_->LevelIndexMemory(level);
  }
  int NumFilesAtLevel(int level) const override {
    return base_->NumFilesAtLevel(level);
  }
  uint64_t BytesAtLevel(int level) const override {
    return base_->BytesAtLevel(level);
  }
  uint64_t EntriesAtLevel(int level) const override {
    return base_->EntriesAtLevel(level);
  }
  lilsm::SequenceNumber LastSequence() const override {
    return base_->LastSequence();
  }
  lilsm::Stats* stats() const override { return base_->stats(); }

 private:
  lilsm::DB* const base_;
  PendingRequests* const pending_;
  lilsm::Stats* const traced_stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INSTRUMENTED_H_
