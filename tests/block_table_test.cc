// Classic block-format table: round trips, varlen values, prefix
// compression, restart-point seeks.
#include "table/block_table.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "lsm/dbformat.h"
#include "tests/test_util.h"

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ReaderGet;
using testing_util::ScratchDir;

TableOptions BlockedOptions() {
  TableOptions options;
  options.env = Env::Default();
  options.format = TableFormat::kBlocked;
  options.key_size = 24;
  return options;
}

std::string VarValue(Key key) {
  return "value-" + std::to_string(key % 97) +
         std::string(key % 200, static_cast<char>('a' + key % 26));
}

class BlockTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("blktable");
    keys_ = RandomGapKeys(10000, 707);
    fname_ = dir_->file("000001.lst");
    std::unique_ptr<TableBuilder> builder;
    ASSERT_LILSM_OK(NewTableBuilder(BlockedOptions(), fname_, &builder));
    for (size_t i = 0; i < keys_.size(); i++) {
      ASSERT_LILSM_OK(builder->Add(keys_[i], PackTag(i + 1, kTypeValue),
                                   VarValue(keys_[i])));
    }
    ASSERT_LILSM_OK(builder->Finish());
    ASSERT_LILSM_OK(OpenTable(BlockedOptions(), fname_, &reader_));
  }

  std::unique_ptr<ScratchDir> dir_;
  std::vector<Key> keys_;
  std::string fname_;
  std::unique_ptr<TableReader> reader_;
};

TEST_F(BlockTableTest, GetFindsEveryKeyWithVariableValues) {
  std::string value;
  uint64_t tag;
  bool found;
  for (size_t i = 0; i < keys_.size(); i += 7) {
    ASSERT_LILSM_OK(ReaderGet(reader_.get(), keys_[i], &value, &tag, &found));
    ASSERT_TRUE(found) << i;
    ASSERT_EQ(value, VarValue(keys_[i]));
    ASSERT_EQ(TagSequence(tag), i + 1);
  }
}

TEST_F(BlockTableTest, GetMissesAbsentKeys) {
  std::string value;
  uint64_t tag;
  bool found;
  size_t tried = 0;
  for (size_t i = 0; i + 1 < keys_.size() && tried < 300; i += 13) {
    if (keys_[i + 1] - keys_[i] < 2) continue;
    tried++;
    ASSERT_LILSM_OK(
        ReaderGet(reader_.get(), keys_[i] + 1, &value, &tag, &found));
    EXPECT_FALSE(found);
  }
  ASSERT_GT(tried, 50u);
}

TEST_F(BlockTableTest, IteratorFullScan) {
  auto iter = reader_->NewIterator();
  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ASSERT_EQ(iter->key(), keys_[i]);
    ASSERT_EQ(iter->value().ToString(), VarValue(keys_[i]));
    i++;
  }
  ASSERT_LILSM_OK(iter->status());
  EXPECT_EQ(i, keys_.size());
}

TEST_F(BlockTableTest, SeekLowerBound) {
  auto iter = reader_->NewIterator();
  Random rnd(11);
  for (int trial = 0; trial < 300; trial++) {
    const Key target = rnd.Uniform(keys_.back() + 500);
    iter->Seek(target);
    auto expected = std::lower_bound(keys_.begin(), keys_.end(), target);
    if (expected == keys_.end()) {
      EXPECT_FALSE(iter->Valid());
    } else {
      ASSERT_TRUE(iter->Valid());
      ASSERT_EQ(iter->key(), *expected);
    }
  }
}

TEST_F(BlockTableTest, MetadataAndMemory) {
  EXPECT_EQ(reader_->NumEntries(), keys_.size());
  EXPECT_EQ(reader_->MinKey(), keys_.front());
  EXPECT_EQ(reader_->MaxKey(), keys_.back());
  EXPECT_GT(reader_->IndexMemoryUsage(), 0u);
  EXPECT_GT(reader_->FilterMemoryUsage(), 0u);
  EXPECT_EQ(reader_->index(), nullptr);
  EXPECT_TRUE(reader_->RetrainIndex(IndexType::kPGM, IndexConfig())
                  .IsNotSupported());
}

TEST_F(BlockTableTest, ReadAllKeysMatches) {
  std::vector<Key> read;
  ASSERT_LILSM_OK(reader_->ReadAllKeys(&read));
  EXPECT_EQ(read, keys_);
}

TEST(BlockTableEdgeTest, EmptyValuesAndSingleEntry) {
  ScratchDir dir("blkedge");
  std::unique_ptr<TableBuilder> builder;
  ASSERT_LILSM_OK(
      NewTableBuilder(BlockedOptions(), dir.file("t.lst"), &builder));
  ASSERT_LILSM_OK(builder->Add(42, PackTag(1, kTypeValue), ""));
  ASSERT_LILSM_OK(builder->Finish());
  std::unique_ptr<TableReader> reader;
  ASSERT_LILSM_OK(OpenTable(BlockedOptions(), dir.file("t.lst"), &reader));
  std::string value = "sentinel";
  uint64_t tag;
  bool found;
  ASSERT_LILSM_OK(ReaderGet(reader.get(), 42, &value, &tag, &found));
  ASSERT_TRUE(found);
  EXPECT_TRUE(value.empty());
}

TEST(BlockTableEdgeTest, CorruptBlockDetected) {
  ScratchDir dir("blkedge");
  const std::string fname = dir.file("t.lst");
  std::unique_ptr<TableBuilder> builder;
  ASSERT_LILSM_OK(NewTableBuilder(BlockedOptions(), fname, &builder));
  std::vector<Key> keys = RandomGapKeys(3000, 5);
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_LILSM_OK(
        builder->Add(keys[i], PackTag(i + 1, kTypeValue), VarValue(keys[i])));
  }
  ASSERT_LILSM_OK(builder->Finish());

  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &contents));
  contents[100] = static_cast<char>(contents[100] ^ 0x7f);  // inside block 0
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));

  std::unique_ptr<TableReader> reader;
  ASSERT_LILSM_OK(OpenTable(BlockedOptions(), fname, &reader));
  std::string value;
  uint64_t tag;
  bool found;
  // The corrupted block must surface as Corruption when read.
  Status s = ReaderGet(reader.get(), keys[0], &value, &tag, &found);
  EXPECT_TRUE(s.IsCorruption());
}

}  // namespace
}  // namespace lilsm
