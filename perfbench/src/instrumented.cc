#include "instrumented.h"

#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// A thread's log is folded into totals once it holds this many spans and
// the thread has none open; the first kKeepPerThread spans are kept raw.
constexpr size_t kFoldAt = 4096;
constexpr size_t kKeepPerThread = 20000;

struct ThreadLog {
  std::mutex mu;
  uint32_t thread = 0;
  std::vector<Span> spans;  // not yet folded, in start order
  std::vector<int32_t> open;
  SpanTable totals{};
  std::vector<Span> kept;

  void Fold() {
    const std::vector<uint64_t> self = SelfTimes(spans);
    const std::vector<int32_t> root = RootsOf(spans);
    for (size_t i = 0; i < spans.size(); i++) {
      const uint16_t root_name = spans[static_cast<size_t>(root[i])].name;
      SpanTotals& t = totals[spans[i].name][root_name];
      t.count++;
      t.dur_ns += spans[i].end_ns - spans[i].start_ns;
      t.self_ns += self[i];
      t.amount += spans[i].amount;
    }
    // Keep a prefix: parents precede children, so it is closed under
    // the parent relation once re-based.
    const int32_t base = static_cast<int32_t>(kept.size());
    for (size_t i = 0; i < spans.size() && kept.size() < kKeepPerThread; i++) {
      Span s = spans[i];
      if (s.parent >= 0) s.parent += base;
      kept.push_back(s);
    }
    spans.clear();
  }
};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // never shrinks
std::atomic<uint64_t> g_next_request{1};

thread_local ThreadLog* tl_log = nullptr;
thread_local bool tl_op_thread = false;
thread_local int tl_depth = 0;

ThreadLog* LocalLog() {
  if (tl_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->thread = static_cast<uint32_t>(g_logs.size() - 1);
    tl_log = g_logs.back().get();
  }
  return tl_log;
}

}  // namespace

std::atomic<bool> Tracer::background_enabled{false};

const char* SpanNameString(uint16_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "lsm.get",        "lsm.put",      "lsm.scan",   "lsm.multiget",
      "lsm.write",      "client.multiget", "client.write", "env.read",
      "env.append",     "env.sync",     "env.seqread"};
  return name < kNumSpanNames ? kNames[name] : "?";
}

void Tracer::MarkOpThread() { tl_op_thread = true; }

bool Tracer::ShouldTraceIo() {
  if (tl_op_thread) return tl_depth > 0;
  return background_enabled.load(std::memory_order_relaxed);
}

int32_t Tracer::Begin(uint16_t name, uint64_t request) {
  ThreadLog* log = LocalLog();
  std::lock_guard<std::mutex> lock(log->mu);
  Span span;
  span.name = name;
  span.parent = log->open.empty() ? -1 : log->open.back();
  span.request = request != 0 || span.parent < 0
                     ? request
                     : log->spans[static_cast<size_t>(span.parent)].request;
  span.start_ns = NowNs();
  log->spans.push_back(span);
  const int32_t handle = static_cast<int32_t>(log->spans.size() - 1);
  log->open.push_back(handle);
  tl_depth++;
  return handle;
}

void Tracer::End(int32_t handle, uint64_t amount) {
  ThreadLog* log = tl_log;
  std::lock_guard<std::mutex> lock(log->mu);
  Span& span = log->spans[static_cast<size_t>(handle)];
  span.end_ns = NowNs();
  span.amount = amount;
  log->open.pop_back();
  tl_depth--;
  if (log->open.empty() && log->spans.size() >= kFoldAt) log->Fold();
}

SpanTable Tracer::Collect() {
  SpanTable out{};
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : g_logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    if (log->open.empty()) log->Fold();
    for (size_t n = 0; n < kNumSpanNames; n++) {
      for (size_t r = 0; r < kNumSpanNames; r++) {
        SpanTotals& dst = out[n][r];
        const SpanTotals& src = log->totals[n][r];
        dst.count += src.count;
        dst.dur_ns += src.dur_ns;
        dst.self_ns += src.self_ns;
        dst.amount += src.amount;
      }
    }
    log->totals = SpanTable{};
  }
  return out;
}

size_t Tracer::WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "name\tthread\trequest\tparent\tamount\tstart_ns\tend_ns\n");
  size_t written = 0;
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : g_logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    for (const Span& s : log->kept) {
      std::fprintf(f, "%s\t%u\t%llu\t%d\t%llu\t%llu\t%llu\n",
                   SpanNameString(s.name), log->thread,
                   static_cast<unsigned long long>(s.request), s.parent,
                   static_cast<unsigned long long>(s.amount),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
      written++;
    }
  }
  std::fclose(f);
  return written;
}

uint64_t Tracer::NextRequestId() {
  return g_next_request.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// TracedEnv
// ---------------------------------------------------------------------------

namespace {

class TracedRandomAccessFile : public lilsm::RandomAccessFile {
 public:
  explicit TracedRandomAccessFile(std::unique_ptr<lilsm::RandomAccessFile> base)
      : base_(std::move(base)) {}

  lilsm::Status Read(uint64_t offset, size_t n, lilsm::Slice* result,
                     char* scratch) const override {
    ScopedSpan span(Tracer::ShouldTraceIo(), kEnvRead, 0);
    lilsm::Status s = base_->Read(offset, n, result, scratch);
    span.set_amount(result->size());
    return s;
  }

 private:
  const std::unique_ptr<lilsm::RandomAccessFile> base_;
};

class TracedWritableFile : public lilsm::WritableFile {
 public:
  explicit TracedWritableFile(std::unique_ptr<lilsm::WritableFile> base)
      : base_(std::move(base)) {}

  lilsm::Status Append(const lilsm::Slice& data) override {
    ScopedSpan span(Tracer::ShouldTraceIo(), kEnvAppend, 0);
    span.set_amount(data.size());
    return base_->Append(data);
  }
  lilsm::Status Flush() override { return base_->Flush(); }
  // Hands the buffered bytes to the page cache but skips the device flush,
  // as a sync on tmpfs does (see TracedEnv).
  lilsm::Status Sync() override {
    ScopedSpan span(Tracer::ShouldTraceIo(), kEnvSync, 0);
    return base_->Flush();
  }
  lilsm::Status Close() override { return base_->Close(); }

 private:
  const std::unique_ptr<lilsm::WritableFile> base_;
};

class TracedSequentialFile : public lilsm::SequentialFile {
 public:
  explicit TracedSequentialFile(std::unique_ptr<lilsm::SequentialFile> base)
      : base_(std::move(base)) {}

  lilsm::Status Read(size_t n, lilsm::Slice* result, char* scratch) override {
    ScopedSpan span(Tracer::ShouldTraceIo(), kEnvSeqRead, 0);
    lilsm::Status s = base_->Read(n, result, scratch);
    span.set_amount(result->size());
    return s;
  }
  lilsm::Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  const std::unique_ptr<lilsm::SequentialFile> base_;
};

}  // namespace

lilsm::Status TracedEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<lilsm::RandomAccessFile>* result) {
  std::unique_ptr<lilsm::RandomAccessFile> file;
  lilsm::Status s = base_->NewRandomAccessFile(fname, &file);
  if (s.ok()) *result = std::make_unique<TracedRandomAccessFile>(std::move(file));
  return s;
}

lilsm::Status TracedEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<lilsm::WritableFile>* result) {
  std::unique_ptr<lilsm::WritableFile> file;
  lilsm::Status s = base_->NewWritableFile(fname, &file);
  if (s.ok()) *result = std::make_unique<TracedWritableFile>(std::move(file));
  return s;
}

lilsm::Status TracedEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<lilsm::SequentialFile>* result) {
  std::unique_ptr<lilsm::SequentialFile> file;
  lilsm::Status s = base_->NewSequentialFile(fname, &file);
  if (s.ok()) *result = std::make_unique<TracedSequentialFile>(std::move(file));
  return s;
}

// ---------------------------------------------------------------------------
// Request matching and TracedDB
// ---------------------------------------------------------------------------

uint64_t HashKeys(std::span<const Key> keys) {
  uint64_t h = 0x243F6A8885A308D3ull;
  for (Key k : keys) h = Mix64(h ^ k);
  return h;
}

uint64_t HashBatch(const lilsm::WriteBatch& batch) {
  // Skip the 12-byte header: the engine stamps the sequence number there.
  const lilsm::Slice rep = batch.Contents();
  uint64_t h = 0x13198A2E03707344ull;
  for (size_t i = 12; i < rep.size(); i++) {
    h = (h ^ static_cast<uint8_t>(rep[i])) * 0x100000001b3ull;
  }
  return Mix64(h);
}

void PendingRequests::Register(uint64_t hash, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace_back(hash, request);
  size_.store(static_cast<int>(entries_.size()), std::memory_order_release);
}

void PendingRequests::Unregister(uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); i++) {
    if (entries_[i].second == request) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  size_.store(static_cast<int>(entries_.size()), std::memory_order_release);
}

uint64_t PendingRequests::Find(uint64_t hash) {
  if (size_.load(std::memory_order_acquire) == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [h, request] : entries_) {
    if (h == hash) return request;
  }
  return 0;
}

lilsm::Status TracedDB::Write(const lilsm::WriteOptions& o,
                              lilsm::WriteBatch* batch) {
  const uint64_t request = pending_->Find(HashBatch(*batch));
  if (request == 0) return base_->Write(o, batch);
  Tracer::MarkOpThread();
  ScopedSpan span(true, kLsmWrite, request);
  span.set_amount(batch->Count());
  return base_->Write(o, batch);
}

lilsm::Status TracedDB::MultiGet(const lilsm::ReadOptions& o,
                                 std::span<const Key> keys,
                                 std::vector<std::string>* values,
                                 std::vector<lilsm::Status>* statuses) {
  const uint64_t request = pending_->Find(HashKeys(keys));
  if (request == 0) return base_->MultiGet(o, keys, values, statuses);
  Tracer::MarkOpThread();
  lilsm::ReadOptions traced = o;
  traced.stats = traced_stats_;
  ScopedSpan span(true, kLsmMultiGet, request);
  span.set_amount(keys.size());
  return base_->MultiGet(traced, keys, values, statuses);
}

}  // namespace perfbench
