// VersionEdit encoding, Version invariants, VersionSet recovery and
// compaction picking.
#include "lsm/version.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace lilsm {
namespace {

using testing_util::ScratchDir;

FileMeta MakeFile(uint64_t number, Key smallest, Key largest,
                  uint64_t size = 1000, uint64_t entries = 10) {
  FileMeta meta;
  meta.number = number;
  meta.smallest = smallest;
  meta.largest = largest;
  meta.file_size = size;
  meta.entries = entries;
  return meta;
}

TEST(VersionEditTest, EncodeDecodeRoundTrip) {
  VersionEdit edit;
  edit.SetLogNumber(12);
  edit.SetNextFileNumber(99);
  edit.SetLastSequence(123456789);
  edit.SetCompactPointer(3, 42);
  edit.RemoveFile(1, 7);
  edit.AddFile(2, MakeFile(8, 100, 200, 5000, 50));

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit decoded;
  ASSERT_LILSM_OK(decoded.DecodeFrom(encoded));
  EXPECT_TRUE(decoded.has_log_number_);
  EXPECT_EQ(decoded.log_number_, 12u);
  EXPECT_EQ(decoded.next_file_number_, 99u);
  EXPECT_EQ(decoded.last_sequence_, 123456789u);
  ASSERT_EQ(decoded.compact_pointers_.size(), 1u);
  EXPECT_EQ(decoded.compact_pointers_[0].second, 42u);
  ASSERT_EQ(decoded.deleted_files_.size(), 1u);
  ASSERT_EQ(decoded.new_files_.size(), 1u);
  EXPECT_EQ(decoded.new_files_[0].second.largest, 200u);
}

TEST(VersionEditTest, RejectsGarbage) {
  VersionEdit edit;
  EXPECT_TRUE(edit.DecodeFrom(Slice("\xff\xff\xff garbage")).IsCorruption());
}

TEST(VersionTest, FindFileBinarySearches) {
  Version v;
  v.files_[1] = {MakeFile(1, 10, 20), MakeFile(2, 30, 40),
                 MakeFile(3, 50, 60)};
  EXPECT_EQ(v.FindFile(1, 15), 0);
  EXPECT_EQ(v.FindFile(1, 30), 1);
  EXPECT_EQ(v.FindFile(1, 40), 1);
  EXPECT_EQ(v.FindFile(1, 60), 2);
  EXPECT_EQ(v.FindFile(1, 25), -1);  // gap
  EXPECT_EQ(v.FindFile(1, 5), -1);   // before
  EXPECT_EQ(v.FindFile(1, 70), -1);  // after
}

TEST(VersionTest, FindFileResumesAtHint) {
  Version v;
  v.files_[1] = {MakeFile(1, 10, 20), MakeFile(2, 30, 40),
                 MakeFile(3, 50, 60)};
  EXPECT_EQ(v.FindFile(1, 30, 1), 1);   // the hint is the key's file
  EXPECT_EQ(v.FindFile(1, 40, 1), 1);   // its last key
  EXPECT_EQ(v.FindFile(1, 55, 1), 2);   // a later file
  EXPECT_EQ(v.FindFile(1, 45, 1), -1);  // gap after the hint
  EXPECT_EQ(v.FindFile(1, 70, 2), -1);  // after the last file
  EXPECT_EQ(v.FindFile(1, 60, 3), -1);  // hint past the level
  EXPECT_EQ(v.FindFile(2, 15), -1);     // empty level
}

TEST(VersionTest, GetOverlappingAndBelow) {
  Version v;
  v.files_[2] = {MakeFile(1, 10, 20), MakeFile(2, 30, 40),
                 MakeFile(3, 50, 60)};
  EXPECT_EQ(v.GetOverlapping(2, 15, 35).size(), 2u);
  EXPECT_EQ(v.GetOverlapping(2, 21, 29).size(), 0u);
  EXPECT_EQ(v.GetOverlapping(2, 0, 100).size(), 3u);
  EXPECT_TRUE(v.KeyMayExistBelow(1, 35));
  EXPECT_FALSE(v.KeyMayExistBelow(2, 35));
  EXPECT_FALSE(v.KeyMayExistBelow(1, 25));
}

TEST(VersionSetTest, CreateRecoverRoundTrip) {
  ScratchDir dir("vset");
  {
    VersionSet versions(Env::Default(), dir.path());
    ASSERT_LILSM_OK(versions.CreateNew());
    VersionEdit edit;
    edit.AddFile(0, MakeFile(5, 1, 100));
    edit.AddFile(1, MakeFile(6, 1, 50));
    edit.SetLogNumber(7);
    versions.SetLastSequence(321);
    ASSERT_LILSM_OK(versions.LogAndApply(&edit));
  }
  VersionSet recovered(Env::Default(), dir.path());
  ASSERT_LILSM_OK(recovered.Recover());
  EXPECT_EQ(recovered.current().NumFiles(0), 1);
  EXPECT_EQ(recovered.current().NumFiles(1), 1);
  EXPECT_EQ(recovered.log_number(), 7u);
  EXPECT_EQ(recovered.last_sequence(), 321u);
  // New file numbers must not collide with recovered ones.
  EXPECT_GT(recovered.NewFileNumber(), 6u);
}

TEST(VersionSetTest, ApplyRemovesAndSortsFiles) {
  ScratchDir dir("vset");
  VersionSet versions(Env::Default(), dir.path());
  ASSERT_LILSM_OK(versions.CreateNew());
  VersionEdit add;
  add.AddFile(1, MakeFile(10, 500, 600));
  add.AddFile(1, MakeFile(11, 100, 200));
  add.AddFile(0, MakeFile(12, 1, 9));
  add.AddFile(0, MakeFile(13, 2, 8));
  ASSERT_LILSM_OK(versions.LogAndApply(&add));
  // L1 sorted by smallest; L0 newest (highest number) first.
  EXPECT_EQ(versions.current().files(1)[0].number, 11u);
  EXPECT_EQ(versions.current().files(0)[0].number, 13u);

  VersionEdit remove;
  remove.RemoveFile(1, 11);
  ASSERT_LILSM_OK(versions.LogAndApply(&remove));
  ASSERT_EQ(versions.current().NumFiles(1), 1);
  EXPECT_EQ(versions.current().files(1)[0].number, 10u);
}

TEST(VersionSetTest, PicksL0WhenTriggered) {
  ScratchDir dir("vset");
  VersionSet versions(Env::Default(), dir.path());
  ASSERT_LILSM_OK(versions.CreateNew());
  VersionEdit edit;
  for (uint64_t i = 0; i < 4; i++) {
    edit.AddFile(0, MakeFile(10 + i, i * 10, i * 10 + 15));
  }
  edit.AddFile(1, MakeFile(20, 0, 100));
  ASSERT_LILSM_OK(versions.LogAndApply(&edit));

  VersionSet::CompactionPick pick;
  ASSERT_TRUE(versions.PickCompaction(4, 1 << 20, 10, &pick));
  EXPECT_EQ(pick.level, 0);
  EXPECT_EQ(pick.inputs.size(), 4u);
  EXPECT_EQ(pick.next_inputs.size(), 1u);
}

TEST(VersionSetTest, PicksOversizedLevel) {
  ScratchDir dir("vset");
  VersionSet versions(Env::Default(), dir.path());
  ASSERT_LILSM_OK(versions.CreateNew());
  VersionEdit edit;
  // L1 capacity with base 1 MiB and ratio 10 is 10 MiB; add 20 MiB.
  for (uint64_t i = 0; i < 20; i++) {
    edit.AddFile(1, MakeFile(30 + i, i * 100, i * 100 + 50, 1 << 20));
  }
  ASSERT_LILSM_OK(versions.LogAndApply(&edit));
  VersionSet::CompactionPick pick;
  ASSERT_TRUE(versions.PickCompaction(4, 1 << 20, 10, &pick));
  EXPECT_EQ(pick.level, 1);
  EXPECT_EQ(pick.inputs.size(), 1u);  // partial compaction: one file
}

TEST(VersionSetTest, NothingToPickWhenWithinCapacity) {
  ScratchDir dir("vset");
  VersionSet versions(Env::Default(), dir.path());
  ASSERT_LILSM_OK(versions.CreateNew());
  VersionEdit edit;
  edit.AddFile(1, MakeFile(40, 0, 10, 1000));
  ASSERT_LILSM_OK(versions.LogAndApply(&edit));
  VersionSet::CompactionPick pick;
  EXPECT_FALSE(versions.PickCompaction(4, 1 << 20, 10, &pick));
}

TEST(VersionSetTest, RoundRobinPointerAdvances) {
  ScratchDir dir("vset");
  VersionSet versions(Env::Default(), dir.path());
  ASSERT_LILSM_OK(versions.CreateNew());
  VersionEdit edit;
  for (uint64_t i = 0; i < 12; i++) {
    edit.AddFile(1, MakeFile(50 + i, i * 100, i * 100 + 50, 1 << 20));
  }
  ASSERT_LILSM_OK(versions.LogAndApply(&edit));

  VersionSet::CompactionPick first, second;
  ASSERT_TRUE(versions.PickCompaction(4, 1 << 18, 10, &first));
  VersionEdit ptr;
  ptr.SetCompactPointer(1, first.inputs[0].largest);
  ASSERT_LILSM_OK(versions.LogAndApply(&ptr));
  ASSERT_TRUE(versions.PickCompaction(4, 1 << 18, 10, &second));
  EXPECT_GT(second.inputs[0].smallest, first.inputs[0].largest);
}

TEST(VersionSetTest, CorruptCurrentFileFailsRecovery) {
  ScratchDir dir("vset");
  {
    VersionSet versions(Env::Default(), dir.path());
    ASSERT_LILSM_OK(versions.CreateNew());
  }
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), "nonsense\n",
                                    CurrentFileName(dir.path())));
  VersionSet versions(Env::Default(), dir.path());
  EXPECT_FALSE(versions.Recover().ok());
}

TEST(FileNameTest, ParseRoundTrip) {
  uint64_t number = 0;
  EXPECT_EQ(ParseFileName("000123.lst", &number), FileKind::kTableFile);
  EXPECT_EQ(number, 123u);
  EXPECT_EQ(ParseFileName("000007.log", &number), FileKind::kWalFile);
  EXPECT_EQ(ParseFileName("MANIFEST-000002", &number),
            FileKind::kManifestFile);
  EXPECT_EQ(number, 2u);
  EXPECT_EQ(ParseFileName("CURRENT", &number), FileKind::kCurrentFile);
  EXPECT_EQ(ParseFileName("000009.tmp", &number), FileKind::kTempFile);
  EXPECT_EQ(ParseFileName("junk", &number), FileKind::kUnknown);
  EXPECT_EQ(ParseFileName("abc.lst", &number), FileKind::kUnknown);
}

}  // namespace
}  // namespace lilsm
