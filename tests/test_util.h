// Shared test helpers: scratch directories and key-set builders.
#ifndef LILSM_TESTS_TEST_UTIL_H_
#define LILSM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
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

/// Point lookup through a table reader: a one-key MultiGet, optionally
/// with a level-model style inclusive entry window [*lo, *hi].
inline Status ReaderGet(TableReader* reader, Key key, std::string* value,
                        uint64_t* tag, bool* found,
                        const size_t* lo = nullptr,
                        const size_t* hi = nullptr) {
  return reader->MultiGet(std::span<const Key>(&key, 1), lo, hi, value, tag,
                          found, /*stats=*/nullptr);
}

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
