// Read errors on the lookup path: a table pread that fails must surface as
// that IOError from Get and MultiGet, never as NotFound, and every key of a
// batch that the failure left unserved must carry it. Keys served before
// the failure (memtable, or a newer level) keep their answers. Runs at
// io_depth 1 (inline plans) and 8 (a level's runs on the default Env's
// thread-pool ReadBatch), with the failing file in L0 or below it.
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/db.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 56;

std::string ValueFor(Key key, int version) {
  return DeriveValue(key ^ (0xA5A5A5A5u + version), kValueSize);
}

bool IsTableFile(const std::string& fname) {
  return fname.size() > 4 && fname.compare(fname.size() - 4, 4, ".lst") == 0;
}

/// Forwards to the default Env, except that every read of a table file
/// named in the fail set (full path) returns an IOError. The set can
/// change while readers are open: each read checks it. Batched reads are
/// not overridden, so they run on the base class's thread-pool ReadBatch,
/// whose workers call the failing files' Read.
class FailingReadEnv : public Env {
 public:
  void FailFiles(const std::vector<std::string>& fnames) {
    std::lock_guard<std::mutex> lock(mu_);
    failing_.insert(fnames.begin(), fnames.end());
  }
  void ClearFailures() {
    std::lock_guard<std::mutex> lock(mu_);
    failing_.clear();
  }
  uint64_t failed_reads() const { return failed_reads_.load(); }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    Status s = base_->NewRandomAccessFile(fname, result);
    if (s.ok() && IsTableFile(fname)) {
      *result = std::make_unique<FailingFile>(this, fname, std::move(*result));
    }
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
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
  class FailingFile : public RandomAccessFile {
   public:
    FailingFile(FailingReadEnv* env, std::string fname,
                std::unique_ptr<RandomAccessFile> base)
        : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      {
        std::lock_guard<std::mutex> lock(env_->mu_);
        if (env_->failing_.count(fname_) > 0) {
          env_->failed_reads_++;
          return Status::IOError("injected read failure", fname_);
        }
      }
      return base_->Read(offset, n, result, scratch);
    }

   private:
    FailingReadEnv* const env_;
    const std::string fname_;
    const std::unique_ptr<RandomAccessFile> base_;
  };

  Env* const base_ = Env::Default();
  std::mutex mu_;
  std::set<std::string> failing_;
  std::atomic<uint64_t> failed_reads_{0};
};

enum class Target { kLevel0, kDeeper };

struct ErrorCase {
  const char* name;
  int io_depth;
  Target target;
};

class DbReadErrorTest : public ::testing::TestWithParam<ErrorCase> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>(std::string("readerr_") +
                                        GetParam().name);
    DBOptions options;
    options.env = &env_;
    options.write_buffer_size = 64 << 10;
    options.sstable_target_size = 32 << 10;
    options.value_size = kValueSize;
    options.io_depth = GetParam().io_depth;
    ASSERT_LILSM_OK(DB::Open(options, dir_->path(), &db_));

    // Every key compacted below L0 (into several files), overwrites of
    // every ninth key in one L0 file, and a few keys in the memtable.
    keys_ = RandomGapKeys(4000, 61);
    for (Key& key : keys_) key *= 2;  // key + 1 is always absent
    for (Key key : keys_) ASSERT_LILSM_OK(db_->Put(key, ValueFor(key, 0)));
    ASSERT_LILSM_OK(db_->FlushMemTable());
    ASSERT_LILSM_OK(db_->CompactAll());
    ASSERT_EQ(db_->NumFilesAtLevel(0), 0);
    const std::vector<std::string> deeper = TableFiles();
    ASSERT_GE(deeper.size(), 4u);
    for (size_t i = 0; i < keys_.size(); i += 9) {
      ASSERT_LILSM_OK(db_->Put(keys_[i], ValueFor(keys_[i], 1)));
    }
    ASSERT_LILSM_OK(db_->FlushMemTable());
    ASSERT_EQ(db_->NumFilesAtLevel(0), 1);
    std::vector<std::string> level0;
    for (const std::string& fname : TableFiles()) {
      bool old = false;
      for (const std::string& d : deeper) old = old || d == fname;
      if (!old) level0.push_back(fname);
    }
    ASSERT_EQ(level0.size(), 1u);
    for (size_t i = 4; i < keys_.size(); i += 500) {
      ASSERT_LILSM_OK(db_->Put(keys_[i], ValueFor(keys_[i], 2)));
    }

    // Open every reader while reads still succeed, then break the target.
    std::string value;
    for (Key key : keys_) ASSERT_LILSM_OK(db_->Get(key, &value));
    target_files_ = GetParam().target == Target::kLevel0 ? level0 : deeper;
    env_.FailFiles(target_files_);
  }

  std::vector<std::string> TableFiles() {
    std::vector<std::string> children, tables;
    EXPECT_LILSM_OK(env_.GetChildren(dir_->path(), &children));
    for (const std::string& child : children) {
      if (IsTableFile(child)) tables.push_back(dir_->path() + "/" + child);
    }
    return tables;
  }

  bool InMemtable(size_t i) const { return i % 500 == 4; }
  bool InLevel0(size_t i) const { return i % 9 == 0 && !InMemtable(i); }
  int Version(size_t i) const {
    if (InMemtable(i)) return 2;
    return InLevel0(i) ? 1 : 0;
  }
  /// Whether key i's lookup must read the failing files.
  bool ReadsTarget(size_t i) const {
    if (InMemtable(i)) return false;
    return GetParam().target == Target::kLevel0 ? InLevel0(i) : !InLevel0(i);
  }

  FailingReadEnv env_;
  std::unique_ptr<ScratchDir> dir_;
  std::unique_ptr<DB> db_;
  std::vector<Key> keys_;
  std::vector<std::string> target_files_;  // the files whose reads fail
};

TEST_P(DbReadErrorTest, GetReturnsTheReadError) {
  std::string value;
  size_t failed = 0, served = 0;
  for (size_t i = 0; i < keys_.size(); i += 7) {
    Status s = db_->Get(keys_[i], &value);
    if (ReadsTarget(i)) {
      EXPECT_TRUE(s.IsIOError()) << keys_[i] << ": " << s.ToString();
      EXPECT_NE(s.ToString().find("injected read failure"), std::string::npos);
      failed++;
    } else if (InMemtable(i) || GetParam().target == Target::kDeeper) {
      // Answered before the failing level: unaffected.
      ASSERT_LILSM_OK(s);
      EXPECT_EQ(value, ValueFor(keys_[i], Version(i)));
      served++;
    } else {
      // Below a failing L0 whose bloom filter may or may not pass it.
      EXPECT_TRUE(s.ok() || s.IsIOError()) << s.ToString();
      EXPECT_FALSE(s.IsNotFound());
    }
  }
  EXPECT_GT(failed, 10u);
  EXPECT_GT(served, 0u);
  EXPECT_GT(env_.failed_reads(), 0u);
}

TEST_P(DbReadErrorTest, MultiGetMarksEveryUnservedKey) {
  Stats local;
  ReadOptions ropts;
  ropts.stats = &local;
  size_t batches = 0, served = 0;
  for (size_t start = 0; start + 64 * 7 <= keys_.size(); start += 300) {
    // Every seventh key of a stretch that spans files (a table holds
    // ~370 keys), memtable and L0 keys included, in shuffled order.
    std::vector<size_t> picks;
    for (size_t k = 0; k < 64; k++) picks.push_back(start + 7 * k);
    picks.push_back(4 + 500 * (start / 500 + 1));  // a memtable key
    Random rnd(start + 1);
    for (size_t k = picks.size(); k > 1; k--) {
      std::swap(picks[k - 1], picks[rnd.Uniform(k)]);
    }
    std::vector<Key> batch;
    for (size_t i : picks) batch.push_back(keys_[i]);
    std::vector<std::string> values;
    std::vector<Status> statuses;
    const Status s = db_->MultiGet(ropts, batch, &values, &statuses);
    ASSERT_TRUE(s.IsIOError()) << s.ToString();
    batches++;
    for (size_t k = 0; k < batch.size(); k++) {
      const size_t i = picks[k];
      if (statuses[k].ok()) {
        // Served before the failure; a key that must read the failing
        // files never is.
        EXPECT_FALSE(ReadsTarget(i)) << keys_[i];
        EXPECT_EQ(values[k], ValueFor(keys_[i], Version(i)));
        served++;
      } else {
        EXPECT_EQ(statuses[k].ToString(), s.ToString()) << keys_[i];
      }
      if (InMemtable(i) ||
          (GetParam().target == Target::kDeeper && InLevel0(i))) {
        EXPECT_TRUE(statuses[k].ok()) << keys_[i] << ": "
                                      << statuses[k].ToString();
      }
    }
  }
  EXPECT_GT(batches, 5u);
  EXPECT_GE(served, batches);
  if (GetParam().io_depth > 1 && GetParam().target == Target::kDeeper) {
    // The failing level's runs went through the read batch.
    EXPECT_GT(local.Count(Counter::kAsyncReads), 0u);
    EXPECT_GT(local.Count(Counter::kAsyncBatches), 0u);
  }
}

// A scan over failing table preads ends with that IOError, never as an OK
// scan cut short or missing a failed file's entries, and every row it
// returns first is the key's newest version (a merge that skipped the
// failed table would serve older ones) — with the failure there from the
// first read or starting mid-scan (cache off: every block is read).
TEST_P(DbReadErrorTest, ScanReturnsTheReadError) {
  for (bool mid_scan : {false, true}) {
    SCOPED_TRACE(mid_scan ? "mid-scan" : "from the first read");
    if (mid_scan) env_.ClearFailures();
    auto iter = db_->NewIterator();
    iter->SeekToFirst();
    size_t n = 0;  // keys_ index of the scan's row
    for (; iter->Valid(); iter->Next(), n++) {
      if (mid_scan && n == keys_.size() / 4) env_.FailFiles(target_files_);
      ASSERT_LT(n, keys_.size());
      ASSERT_EQ(iter->key(), keys_[n]);
      EXPECT_EQ(iter->value().ToString(), ValueFor(keys_[n], Version(n)))
          << "key " << keys_[n];
    }
    if (mid_scan) {
      EXPECT_GE(n, keys_.size() / 4);
    }
    EXPECT_TRUE(iter->status().IsIOError()) << iter->status().ToString();
    EXPECT_NE(iter->status().ToString().find("injected read failure"),
              std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Targets, DbReadErrorTest,
    ::testing::Values(ErrorCase{"level0_depth1", 1, Target::kLevel0},
                      ErrorCase{"level0_depth8", 8, Target::kLevel0},
                      ErrorCase{"deeper_depth1", 1, Target::kDeeper},
                      ErrorCase{"deeper_depth8", 8, Target::kDeeper}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace lilsm
