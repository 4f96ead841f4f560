// Shared test helpers: scratch directories, key-set builders, and a gated
// Env that parks appends to chosen files.
#ifndef LILSM_TESTS_TEST_UTIL_H_
#define LILSM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "index/index.h"
#include "table/table.h"
#include "util/env.h"
#include "util/random.h"

namespace lilsm {
namespace testing_util {

/// A per-test scratch directory under /tmp, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info != nullptr ? info->name() : "anon";
    // Sanitize parameterized test names ("Case/3" etc.).
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = "/tmp/lilsm_test_" + tag + "_" + name;
    Cleanup();
    Env::Default()->CreateDir(path_);
  }

  ~ScratchDir() { Cleanup(); }

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  void Cleanup() { RemoveTree(path_, 0); }

  static void RemoveTree(const std::string& dir, int depth) {
    if (depth > 4) return;  // scratch trees are shallow by construction
    Env* env = Env::Default();
    std::vector<std::string> children;
    if (env->GetChildren(dir, &children).ok()) {
      for (const std::string& child : children) {
        if (child == "." || child == "..") continue;
        const std::string path = dir + "/" + child;
        if (!env->RemoveFile(path).ok()) {
          RemoveTree(path, depth + 1);  // a subdirectory
        }
      }
    }
    env->RemoveDir(dir);
  }

  std::string path_;
};

/// n strictly increasing keys with pseudo-random gaps.
inline std::vector<Key> RandomGapKeys(size_t n, uint64_t seed,
                                      uint64_t max_gap = 1000) {
  Random rnd(seed);
  std::vector<Key> keys;
  keys.reserve(n);
  Key current = rnd.Uniform(1000);
  for (size_t i = 0; i < n; i++) {
    keys.push_back(current);
    current += 1 + rnd.Uniform(max_gap);
  }
  return keys;
}

/// Batched point lookup through a table reader's one lookup body:
/// PrepareMultiGet then FinishMultiGet. With `batch` null the plan reads
/// inline; otherwise its reads go on `batch`, which is waited in between.
/// `lo`/`hi` are optional level-model style inclusive entry windows.
inline Status ReaderMultiGet(TableReader* reader, std::span<const Key> keys,
                             std::string* values, uint64_t* tags, bool* founds,
                             const size_t* lo = nullptr,
                             const size_t* hi = nullptr,
                             ReadBatch* batch = nullptr,
                             OpStats stats = OpStats()) {
  PendingMultiGet pending;
  Status s = reader->PrepareMultiGet(keys, lo, hi, batch, &pending, stats);
  if (batch != nullptr) {
    Status ws = batch->Wait();
    if (s.ok()) s = ws;
  }
  if (!s.ok()) return s;
  return reader->FinishMultiGet(&pending, values, tags, founds, stats);
}

/// Point lookup through a table reader: a one-key inline plan.
inline Status ReaderGet(TableReader* reader, Key key, std::string* value,
                        uint64_t* tag, bool* found,
                        const size_t* lo = nullptr,
                        const size_t* hi = nullptr) {
  return ReaderMultiGet(reader, std::span<const Key>(&key, 1), value, tag,
                        found, lo, hi);
}

/// A gate/counting Env wrapper for the files whose names end in
/// `suffix`: blocks their appends while the gate is closed and counts
/// their fsyncs. Gating ".log" parks a writer-queue leader mid-commit, so
/// followers queue behind it deterministically; gating ".lst" parks a
/// flush or compaction job mid-build.
class GatedEnv : public Env {
 public:
  GatedEnv(Env* base, std::string suffix)
      : base_(base), suffix_(std::move(suffix)) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = false;
  }
  void OpenGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = true;
    cv_.notify_all();
  }
  /// Blocks until an append is parked at the closed gate.
  void AwaitBlockedAppender() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return blocked_ > 0; });
  }
  uint64_t gated_syncs() const {
    return gated_syncs_.load(std::memory_order_acquire);
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    Status s = base_->NewWritableFile(fname, result);
    if (s.ok() && fname.size() >= suffix_.size() &&
        fname.compare(fname.size() - suffix_.size(), suffix_.size(),
                      suffix_) == 0) {
      *result = std::make_unique<GatedFile>(this, std::move(*result));
    }
    return s;
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  uint64_t NowNanos() override { return base_->NowNanos(); }

 private:
  class GatedFile : public WritableFile {
   public:
    GatedFile(GatedEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(const Slice& data) override {
      {
        std::unique_lock<std::mutex> lock(env_->mu_);
        if (!env_->gate_open_) {
          env_->blocked_++;
          env_->cv_.notify_all();  // wake AwaitBlockedAppender
          env_->cv_.wait(lock, [this] { return env_->gate_open_; });
          env_->blocked_--;
        }
      }
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      env_->gated_syncs_.fetch_add(1, std::memory_order_acq_rel);
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    GatedEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  Env* const base_;
  const std::string suffix_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_open_ = true;
  int blocked_ = 0;
  std::atomic<uint64_t> gated_syncs_{0};
};

#define ASSERT_LILSM_OK(expr)                                 \
  do {                                                        \
    ::lilsm::Status _s = (expr);                              \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();      \
  } while (0)

#define EXPECT_LILSM_OK(expr)                                 \
  do {                                                        \
    ::lilsm::Status _s = (expr);                              \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();      \
  } while (0)

}  // namespace testing_util
}  // namespace lilsm

#endif  // LILSM_TESTS_TEST_UTIL_H_
