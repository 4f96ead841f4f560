// Merging iterator: ordering, newest-first tie-breaks, seeks, and a
// child's error ending the merge.
#include "lsm/merger.h"

#include <gtest/gtest.h>

#include <map>

#include "lsm/memtable.h"
#include "tests/test_util.h"

namespace lilsm {
namespace {

std::unique_ptr<TableIterator> MemIter(
    std::vector<std::tuple<Key, SequenceNumber, std::string>> entries,
    std::vector<std::unique_ptr<MemTable>>* keepalive) {
  auto mem = std::make_unique<MemTable>();
  for (const auto& [key, seq, value] : entries) {
    mem->Add(seq, kTypeValue, key, value);
  }
  auto iter = mem->NewIterator();
  keepalive->push_back(std::move(mem));
  return iter;
}

/// Wraps a child and fails with an IOError on its `fail_at`-th Next().
class FailingIterator final : public TableIterator {
 public:
  FailingIterator(std::unique_ptr<TableIterator> base, int fail_at)
      : base_(std::move(base)), fail_at_(fail_at) {}

  bool Valid() const override { return status_.ok() && base_->Valid(); }
  void SeekToFirst() override { base_->SeekToFirst(); }
  void Seek(Key target) override { base_->Seek(target); }
  void Next() override {
    if (++nexts_ == fail_at_) {
      status_ = Status::IOError("injected child failure");
    } else {
      base_->Next();
    }
  }
  Key key() const override { return base_->key(); }
  uint64_t tag() const override { return base_->tag(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return status_; }

 private:
  std::unique_ptr<TableIterator> base_;
  const int fail_at_;
  int nexts_ = 0;
  Status status_;
};

TEST(MergerTest, EmptyChildren) {
  auto merged = NewMergingIterator({});
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());
}

TEST(MergerTest, InterleavesSourcesInKeyOrder) {
  std::vector<std::unique_ptr<MemTable>> keep;
  std::vector<std::unique_ptr<TableIterator>> children;
  children.push_back(MemIter({{10, 1, "a"}, {30, 2, "c"}}, &keep));
  children.push_back(MemIter({{20, 3, "b"}, {40, 4, "d"}}, &keep));
  auto merged = NewMergingIterator(std::move(children));

  std::vector<Key> seen;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    seen.push_back(merged->key());
  }
  EXPECT_EQ(seen, (std::vector<Key>{10, 20, 30, 40}));
}

TEST(MergerTest, NewestVersionComesFirstOnDuplicates) {
  std::vector<std::unique_ptr<MemTable>> keep;
  std::vector<std::unique_ptr<TableIterator>> children;
  children.push_back(MemIter({{10, 1, "old"}}, &keep));
  children.push_back(MemIter({{10, 9, "new"}}, &keep));
  auto merged = NewMergingIterator(std::move(children));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(TagSequence(merged->tag()), 9u);
  EXPECT_EQ(merged->value().ToString(), "new");
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(TagSequence(merged->tag()), 1u);
}

TEST(MergerTest, SeekPositionsAllChildren) {
  std::vector<std::unique_ptr<MemTable>> keep;
  std::vector<std::unique_ptr<TableIterator>> children;
  children.push_back(MemIter({{10, 1, "a"}, {50, 2, "e"}}, &keep));
  children.push_back(MemIter({{30, 3, "c"}, {70, 4, "g"}}, &keep));
  auto merged = NewMergingIterator(std::move(children));
  merged->Seek(25);
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->key(), 30u);
  merged->Seek(71);
  EXPECT_FALSE(merged->Valid());
}

// A child that fails mid-stream ends the merge with its error: the merge
// never skips it to serve an older version of a key it holds (20's).
TEST(MergerTest, ChildErrorEndsTheMerge) {
  std::vector<std::unique_ptr<MemTable>> keep;
  std::vector<std::unique_ptr<TableIterator>> children;
  children.push_back(MemIter({{10, 1, "old"}, {20, 2, "old"}}, &keep));
  children.push_back(std::make_unique<FailingIterator>(
      MemIter({{5, 3, "new"}, {10, 4, "new"}, {20, 5, "new"}}, &keep),
      /*fail_at=*/2));
  auto merged = NewMergingIterator(std::move(children));

  std::vector<std::pair<Key, std::string>> seen;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    seen.emplace_back(merged->key(), merged->value().ToString());
  }
  EXPECT_EQ(seen, (std::vector<std::pair<Key, std::string>>{{5, "new"},
                                                             {10, "new"}}));
  EXPECT_TRUE(merged->status().IsIOError()) << merged->status().ToString();
}

TEST(MergerTest, RandomizedAgainstReference) {
  Random rnd(99);
  std::vector<std::unique_ptr<MemTable>> keep;
  std::vector<std::unique_ptr<TableIterator>> children;
  std::vector<std::pair<Key, uint64_t>> reference;  // (key, seq)
  SequenceNumber seq = 1;
  for (int src = 0; src < 5; src++) {
    std::vector<std::tuple<Key, SequenceNumber, std::string>> entries;
    for (int i = 0; i < 200; i++) {
      const Key key = rnd.Uniform(500);
      entries.emplace_back(key, seq, "v");
      reference.emplace_back(key, seq);
      seq++;
    }
    children.push_back(MemIter(entries, &keep));
  }
  std::sort(reference.begin(), reference.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second > b.second;
            });
  auto merged = NewMergingIterator(std::move(children));
  size_t i = 0;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next(), i++) {
    ASSERT_LT(i, reference.size());
    ASSERT_EQ(merged->key(), reference[i].first);
    ASSERT_EQ(TagSequence(merged->tag()), reference[i].second);
  }
  EXPECT_EQ(i, reference.size());
}

}  // namespace
}  // namespace lilsm
