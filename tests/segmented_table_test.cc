// Table (the paper's LearnedIndexTable) round-trip, lookup, iterator-seek,
// retraining and corruption tests, across every index type.
#include "table/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "tests/test_util.h"
#include "lsm/dbformat.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/sim_env.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ReaderGet;
using testing_util::ReaderMultiGet;
using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 64;

/// How a lookup plan reads: inline (no batch) or on a read batch.
enum class PlanMode { kInline, kBatched };

const char* PlanModeName(PlanMode mode) {
  return mode == PlanMode::kInline ? "inline" : "batched";
}

/// ReaderMultiGet in `mode`; a batched plan gets its own batch from `env`.
Status PlannedMultiGet(PlanMode mode, Env* env, TableReader* reader,
                       std::span<const Key> keys, std::string* values,
                       uint64_t* tags, bool* founds,
                       OpStats stats = OpStats()) {
  std::unique_ptr<ReadBatch> batch =
      mode == PlanMode::kBatched ? env->NewReadBatch(4) : nullptr;
  return ReaderMultiGet(reader, keys, values, tags, founds, nullptr, nullptr,
                        batch.get(), stats);
}

TableOptions MakeOptions(IndexType type, uint32_t boundary) {
  TableOptions options;
  options.env = Env::Default();
  options.key_size = 24;
  options.value_size = kValueSize;
  options.index_type = type;
  options.index_config = IndexConfig::FromPositionBoundary(boundary);
  return options;
}

Status BuildTable(const TableOptions& options, const std::string& fname,
                  const std::vector<Key>& keys) {
  std::unique_ptr<TableBuilder> builder;
  Status s = TableBuilder::Open(options, fname, &builder);
  if (!s.ok()) return s;
  for (size_t i = 0; i < keys.size(); i++) {
    s = builder->Add(keys[i], PackTag(i + 1, kTypeValue),
                     DeriveValue(keys[i], kValueSize));
    if (!s.ok()) return s;
  }
  return builder->Finish();
}

class SegmentedTableTest : public ::testing::TestWithParam<IndexType> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("segtable");
    options_ = MakeOptions(GetParam(), 32);
    keys_ = RandomGapKeys(20000, 77, /*max_gap=*/5000);
    fname_ = dir_->file("000001.lst");
    ASSERT_LILSM_OK(BuildTable(options_, fname_, keys_));
    ASSERT_LILSM_OK(TableReader::Open(options_, fname_, &reader_));
  }

  std::unique_ptr<ScratchDir> dir_;
  TableOptions options_;
  std::vector<Key> keys_;
  std::string fname_;
  std::unique_ptr<TableReader> reader_;
};

TEST_P(SegmentedTableTest, MetadataMatches) {
  EXPECT_EQ(reader_->NumEntries(), keys_.size());
  EXPECT_EQ(reader_->MinKey(), keys_.front());
  EXPECT_EQ(reader_->MaxKey(), keys_.back());
  ASSERT_NE(reader_->index(), nullptr);
  EXPECT_EQ(reader_->index()->type(), GetParam());
}

TEST_P(SegmentedTableTest, GetFindsEveryKey) {
  std::string value;
  uint64_t tag = 0;
  bool found = false;
  for (size_t i = 0; i < keys_.size(); i += 3) {
    ASSERT_LILSM_OK(ReaderGet(reader_.get(), keys_[i], &value, &tag, &found));
    ASSERT_TRUE(found) << "key index " << i;
    EXPECT_EQ(TagSequence(tag), i + 1);
    EXPECT_EQ(value, DeriveValue(keys_[i], kValueSize));
  }
}

TEST_P(SegmentedTableTest, GetMissesAbsentKeys) {
  std::string value;
  uint64_t tag = 0;
  bool found = false;
  size_t tried = 0;
  for (size_t i = 0; i + 1 < keys_.size() && tried < 500; i += 17) {
    if (keys_[i + 1] - keys_[i] < 2) continue;
    const Key absent = keys_[i] + 1;
    tried++;
    ASSERT_LILSM_OK(ReaderGet(reader_.get(), absent, &value, &tag, &found));
    EXPECT_FALSE(found) << "absent key " << absent;
  }
  ASSERT_GT(tried, 100u);
}

TEST_P(SegmentedTableTest, IteratorScansInOrder) {
  auto iter = reader_->NewIterator();
  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ASSERT_LT(i, keys_.size());
    ASSERT_EQ(iter->key(), keys_[i]);
    ASSERT_EQ(iter->value().size(), kValueSize);
    i++;
  }
  ASSERT_LILSM_OK(iter->status());
  EXPECT_EQ(i, keys_.size());
}

TEST_P(SegmentedTableTest, SeekHasLowerBoundSemantics) {
  auto iter = reader_->NewIterator();
  Random rnd(6);
  for (int trial = 0; trial < 300; trial++) {
    const Key target = rnd.Uniform(keys_.back() + 1000);
    iter->Seek(target);
    auto expected = std::lower_bound(keys_.begin(), keys_.end(), target);
    if (expected == keys_.end()) {
      EXPECT_FALSE(iter->Valid()) << "target " << target;
    } else {
      ASSERT_TRUE(iter->Valid()) << "target " << target;
      EXPECT_EQ(iter->key(), *expected) << "target " << target;
    }
  }
}

TEST_P(SegmentedTableTest, SeekThenScanCrossesBlocks) {
  auto iter = reader_->NewIterator();
  const size_t start = keys_.size() / 2;
  iter->Seek(keys_[start]);
  for (size_t i = start; i < std::min(keys_.size(), start + 500); i++) {
    ASSERT_TRUE(iter->Valid());
    ASSERT_EQ(iter->key(), keys_[i]);
    iter->Next();
  }
}

TEST_P(SegmentedTableTest, RetrainSwapsIndexAcrossAllTypes) {
  std::string value;
  uint64_t tag = 0;
  bool found = false;
  for (IndexType type : kAllIndexTypes) {
    ASSERT_LILSM_OK(
        reader_->RetrainIndex(type, IndexConfig::FromPositionBoundary(16)));
    ASSERT_EQ(reader_->index()->type(), type);
    for (size_t i = 0; i < keys_.size(); i += 97) {
      ASSERT_LILSM_OK(ReaderGet(reader_.get(), keys_[i], &value, &tag, &found));
      ASSERT_TRUE(found) << IndexTypeName(type) << " key index " << i;
    }
  }
}

TEST_P(SegmentedTableTest, BoundedGetHonorsWindow) {
  std::string value;
  uint64_t tag = 0;
  bool found = false;
  for (size_t i = 0; i < keys_.size(); i += 111) {
    const size_t lo = i >= 5 ? i - 5 : 0;
    const size_t hi = std::min(keys_.size() - 1, i + 5);
    ASSERT_LILSM_OK(ReaderGet(reader_.get(), keys_[i], &value, &tag, &found,
                              &lo, &hi));
    ASSERT_TRUE(found);
    EXPECT_EQ(value, DeriveValue(keys_[i], kValueSize));
  }
}

TEST_P(SegmentedTableTest, ReadAllKeysRoundTrips) {
  std::vector<Key> read_keys;
  ASSERT_LILSM_OK(reader_->ReadAllKeys(&read_keys));
  EXPECT_EQ(read_keys, keys_);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, SegmentedTableTest, ::testing::ValuesIn(kAllIndexTypes),
    [](const ::testing::TestParamInfo<IndexType>& info) {
      return std::string(IndexTypeName(info.param));
    });

class SegmentedTablePlanTest
    : public ::testing::TestWithParam<std::tuple<IndexType, PlanMode>> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("segtable_plan");
    options_ = MakeOptions(std::get<0>(GetParam()), 32);
    keys_ = RandomGapKeys(20000, 77, /*max_gap=*/5000);
    const std::string fname = dir_->file("000001.lst");
    ASSERT_LILSM_OK(BuildTable(options_, fname, keys_));
    ASSERT_LILSM_OK(TableReader::Open(options_, fname, &reader_));
  }

  PlanMode mode() const { return std::get<1>(GetParam()); }

  std::unique_ptr<ScratchDir> dir_;
  TableOptions options_;
  std::vector<Key> keys_;
  std::unique_ptr<TableReader> reader_;
};

TEST_P(SegmentedTablePlanTest, MultiGetMatchesGetOnSortedRuns) {
  // Ascending mix of present, absent-in-gap, and duplicate keys: how the
  // plan shares spans must be invisible in the results.
  std::vector<Key> batch;
  for (size_t i = 0; i < keys_.size(); i += 97) {
    batch.push_back(keys_[i]);
    batch.push_back(keys_[i]);      // duplicate: served from the same span
    batch.push_back(keys_[i] + 1);  // gaps are >= 1: usually absent
  }
  batch.push_back(keys_.back() + 1);  // past the table: no probe at all
  std::sort(batch.begin(), batch.end());

  std::vector<std::string> values(batch.size());
  std::vector<uint64_t> tags(batch.size(), 0);
  std::unique_ptr<bool[]> founds(new bool[batch.size()]);
  Stats local;
  ASSERT_LILSM_OK(PlannedMultiGet(mode(), options_.env, reader_.get(), batch,
                                  values.data(), tags.data(), founds.get(),
                                  &local));

  std::string expected;
  uint64_t expected_tag = 0;
  bool expected_found = false;
  for (size_t i = 0; i < batch.size(); i++) {
    ASSERT_LILSM_OK(ReaderGet(reader_.get(), batch[i], &expected,
                              &expected_tag, &expected_found));
    ASSERT_EQ(founds[i], expected_found) << "key " << batch[i];
    if (expected_found) {
      ASSERT_EQ(values[i], expected) << "key " << batch[i];
      ASSERT_EQ(tags[i], expected_tag) << "key " << batch[i];
    }
  }
  const uint64_t probes = local.TimerCount(Timer::kBloomCheck);
  const uint64_t spans = local.Count(Counter::kSegmentsFetched);
  const uint64_t negatives = local.Count(Counter::kBloomNegatives);
  EXPECT_EQ(local.Count(Counter::kBloomTruePositive) +
                local.Count(Counter::kBloomFalsePositive) + negatives,
            probes);
  if (mode() == PlanMode::kInline) {
    // Every probe that passed fetched its own span; the duplicates and
    // the keys inside a fetched span's key range were answered from it.
    EXPECT_EQ(probes, negatives + spans);
    EXPECT_LT(probes, batch.size() - 1);
  } else {
    // The batched plan probes every key in the table's range, merging
    // overlapping windows into shared spans.
    EXPECT_EQ(probes, batch.size() - 1);
    EXPECT_LE(spans, probes - negatives);
  }
}

// Two neighbours in the first io block: the inline plan answers the second
// from the span fetched for the first, with no bloom probe; the batched
// plan probes both and merges their windows into one span.
TEST_P(SegmentedTablePlanTest, KeyInsideFetchedSpanCostsNoProbe) {
  ASSERT_LT(12 * options_.entry_size(), kIoBlockSize);
  const std::vector<Key> batch = {keys_[10], keys_[11]};
  std::string values[2];
  uint64_t tags[2] = {0, 0};
  bool founds[2] = {false, false};
  Stats local;
  ASSERT_LILSM_OK(PlannedMultiGet(mode(), options_.env, reader_.get(), batch,
                                  values, tags, founds, &local));
  EXPECT_TRUE(founds[0] && founds[1]);
  EXPECT_EQ(values[1], DeriveValue(keys_[11], kValueSize));
  EXPECT_EQ(local.Count(Counter::kSegmentsFetched), 1u);
  EXPECT_EQ(local.TimerCount(Timer::kBloomCheck),
            mode() == PlanMode::kInline ? 1u : 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, SegmentedTablePlanTest,
    ::testing::Combine(::testing::ValuesIn(kAllIndexTypes),
                       ::testing::Values(PlanMode::kInline,
                                         PlanMode::kBatched)),
    [](const ::testing::TestParamInfo<std::tuple<IndexType, PlanMode>>& info) {
      return std::string(IndexTypeName(std::get<0>(info.param))) + "_" +
             PlanModeName(std::get<1>(info.param));
    });

// ---- format-level failure behaviour ----

TEST(SegmentedTableFileTest, RejectsWrongValueSize) {
  ScratchDir dir("segfmt");
  TableOptions options = MakeOptions(IndexType::kPGM, 32);
  std::unique_ptr<TableBuilder> builder;
  ASSERT_LILSM_OK(TableBuilder::Open(options, dir.file("t.lst"), &builder));
  EXPECT_TRUE(builder->Add(1, PackTag(1, kTypeValue), Slice("short"))
                  .IsInvalidArgument());
}

TEST(SegmentedTableFileTest, RejectsNonIncreasingKeys) {
  ScratchDir dir("segfmt");
  TableOptions options = MakeOptions(IndexType::kPGM, 32);
  std::unique_ptr<TableBuilder> builder;
  ASSERT_LILSM_OK(TableBuilder::Open(options, dir.file("t.lst"), &builder));
  std::string value(kValueSize, 'x');
  ASSERT_LILSM_OK(builder->Add(10, PackTag(1, kTypeValue), value));
  EXPECT_TRUE(
      builder->Add(10, PackTag(2, kTypeValue), value).IsInvalidArgument());
  EXPECT_TRUE(
      builder->Add(5, PackTag(3, kTypeValue), value).IsInvalidArgument());
}

TEST(SegmentedTableFileTest, DetectsCorruptFooterMagic) {
  ScratchDir dir("segfmt");
  TableOptions options = MakeOptions(IndexType::kPGM, 32);
  const std::string fname = dir.file("t.lst");
  ASSERT_LILSM_OK(BuildTable(options, fname, RandomGapKeys(500, 9)));

  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &contents));
  contents.back() = static_cast<char>(contents.back() ^ 0x5a);
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));

  std::unique_ptr<TableReader> reader;
  EXPECT_TRUE(TableReader::Open(options, fname, &reader).IsCorruption());
}

TEST(SegmentedTableFileTest, DetectsCorruptTrailerBlocks) {
  ScratchDir dir("segfmt");
  TableOptions options = MakeOptions(IndexType::kPGM, 32);
  const std::string fname = dir.file("t.lst");
  std::vector<Key> keys = RandomGapKeys(2000, 10);
  ASSERT_LILSM_OK(BuildTable(options, fname, keys));

  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &contents));
  // Flip a byte in the trailer region (bloom/index/meta blocks follow the
  // data region and are all checksummed).
  const size_t data_bytes = keys.size() * options.entry_size();
  contents[data_bytes + 100] = static_cast<char>(contents[data_bytes + 100] ^ 0xff);
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));

  std::unique_ptr<TableReader> reader;
  EXPECT_TRUE(TableReader::Open(options, fname, &reader).IsCorruption());
}

TEST(SegmentedTableFileTest, EmptyFileFailsCleanly) {
  ScratchDir dir("segfmt");
  const std::string fname = dir.file("t.lst");
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), Slice(), fname));
  std::unique_ptr<TableReader> reader;
  EXPECT_TRUE(
      TableReader::Open(MakeOptions(IndexType::kPGM, 32), fname, &reader)
          .IsCorruption());
}

// The footer's fourth handle is reserved: new tables write it empty, and
// a reader ignores it, so tables that still name a segments block there
// open and serve unchanged.
TEST(SegmentedTableFileTest, NewTablesWriteAnEmptySegmentsHandle) {
  ScratchDir dir("segfmt");
  // The segment-based index types, which could export their segments.
  for (IndexType type :
       {IndexType::kPGM, IndexType::kPLR, IndexType::kFITingTree}) {
    const std::string fname = dir.file("t.lst");
    ASSERT_LILSM_OK(
        BuildTable(MakeOptions(type, 32), fname, RandomGapKeys(2000, 11)));
    std::string contents;
    ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &contents));
    Footer footer;
    Slice tail(contents.data() + contents.size() - Footer::kEncodedLength,
               Footer::kEncodedLength);
    ASSERT_LILSM_OK(footer.DecodeFrom(&tail));
    EXPECT_EQ(footer.segments_handle.offset, 0u) << IndexTypeName(type);
    EXPECT_EQ(footer.segments_handle.size, 0u) << IndexTypeName(type);
    // The index blob ends where the meta block starts.
    EXPECT_EQ(footer.index_handle.offset + footer.index_handle.size,
              footer.meta_handle.offset)
        << IndexTypeName(type);
  }
}

TEST(SegmentedTableFileTest, IgnoresANamedSegmentsBlock) {
  ScratchDir dir("segfmt");
  const TableOptions options = MakeOptions(IndexType::kPGM, 32);
  const std::string fname = dir.file("t.lst");
  const std::vector<Key> keys = RandomGapKeys(2000, 12);
  ASSERT_LILSM_OK(BuildTable(options, fname, keys));

  // Lay the file out as older tables were: a checksummed block between
  // the index blob and the meta block, named by the fourth handle.
  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &contents));
  Footer footer;
  Slice tail(contents.data() + contents.size() - Footer::kEncodedLength,
             Footer::kEncodedLength);
  ASSERT_LILSM_OK(footer.DecodeFrom(&tail));
  const std::string meta_block =
      contents.substr(footer.meta_handle.offset, footer.meta_handle.size);
  std::string segments_block(96, '\xab');
  PutFixed32(&segments_block, crc32c::Mask(crc32c::Value(
                                  segments_block.data(), segments_block.size())));
  contents.resize(footer.meta_handle.offset);
  footer.segments_handle.offset = contents.size();
  footer.segments_handle.size = segments_block.size();
  contents += segments_block;
  footer.meta_handle.offset = contents.size();
  contents += meta_block;
  std::string footer_block;
  footer.EncodeTo(&footer_block);
  ASSERT_EQ(footer_block.size(), Footer::kEncodedLength);
  contents += footer_block;
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));

  std::unique_ptr<TableReader> reader;
  ASSERT_LILSM_OK(TableReader::Open(options, fname, &reader));
  EXPECT_EQ(reader->NumEntries(), keys.size());
  for (Key key : keys) {
    std::string value;
    uint64_t tag = 0;
    bool found = false;
    ASSERT_LILSM_OK(ReaderGet(reader.get(), key, &value, &tag, &found));
    ASSERT_TRUE(found) << key;
    ASSERT_EQ(value, DeriveValue(key, kValueSize)) << key;
  }
}

/// Meta block fields, in encoding order after the format version.
struct MetaFields {
  uint32_t version = 0;
  uint32_t key_size = 0;
  uint32_t value_size = 0;
  uint64_t count = 0;
  uint64_t min_key = 0;
  uint64_t max_key = 0;
};

/// Rewrites the meta block of table `fname` in place with `mutate`
/// applied and a freshly computed valid crc, so only structural
/// validation can tell the geometry lies. The encoded size must not
/// change (the footer's handles stay as written).
void RewriteMeta(const std::string& fname, void (*mutate)(MetaFields*)) {
  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &contents));
  ASSERT_GE(contents.size(), Footer::kEncodedLength);
  Footer footer;
  Slice tail(contents.data() + contents.size() - Footer::kEncodedLength,
             Footer::kEncodedLength);
  ASSERT_LILSM_OK(footer.DecodeFrom(&tail));
  const BlockHandle meta = footer.meta_handle;
  Slice input(contents.data() + meta.offset, meta.size - 4);
  MetaFields m;
  ASSERT_TRUE(GetVarint32(&input, &m.version) &&
              GetVarint32(&input, &m.key_size) &&
              GetVarint32(&input, &m.value_size) &&
              GetVarint64(&input, &m.count) &&
              GetFixed64(&input, &m.min_key) &&
              GetFixed64(&input, &m.max_key));
  mutate(&m);
  std::string block;
  PutVarint32(&block, m.version);
  PutVarint32(&block, m.key_size);
  PutVarint32(&block, m.value_size);
  PutVarint64(&block, m.count);
  PutFixed64(&block, m.min_key);
  PutFixed64(&block, m.max_key);
  ASSERT_EQ(block.size() + 4, meta.size);
  PutFixed32(&block, crc32c::Mask(crc32c::Value(block.data(), block.size())));
  contents.replace(meta.offset, meta.size, block);
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));
}

TEST(SegmentedTableFileTest, RejectsMetaGeometryThatDisagreesWithFile) {
  ScratchDir dir("segfmt");
  const TableOptions options = MakeOptions(IndexType::kPGM, 32);
  const std::vector<Key> keys = RandomGapKeys(2000, 13);
  std::unique_ptr<TableReader> reader;

  // The rewrite itself keeps a faithful meta block readable.
  const std::string intact = dir.file("intact.lst");
  ASSERT_LILSM_OK(BuildTable(options, intact, keys));
  RewriteMeta(intact, [](MetaFields*) {});
  ASSERT_LILSM_OK(TableReader::Open(options, intact, &reader));
  EXPECT_EQ(reader->NumEntries(), keys.size());

  // A key wider than the reader's single-key probe buffer: Seek's
  // fallback search would read it onto the stack.
  const std::string wide = dir.file("wide.lst");
  ASSERT_LILSM_OK(BuildTable(options, wide, keys));
  RewriteMeta(wide, [](MetaFields* m) { m->key_size = 100; });
  EXPECT_TRUE(TableReader::Open(options, wide, &reader).IsCorruption());

  // One entry more than the data region holds.
  const std::string extra = dir.file("extra.lst");
  ASSERT_LILSM_OK(BuildTable(options, extra, keys));
  RewriteMeta(extra, [](MetaFields* m) { m->count++; });
  EXPECT_TRUE(TableReader::Open(options, extra, &reader).IsCorruption());

  // An entry geometry that does not tile the data region.
  const std::string skewed = dir.file("skewed.lst");
  ASSERT_LILSM_OK(BuildTable(options, skewed, keys));
  RewriteMeta(skewed, [](MetaFields* m) { m->value_size++; });
  EXPECT_TRUE(TableReader::Open(options, skewed, &reader).IsCorruption());
}

TEST(SegmentedTableIoTest, PointLookupCostsOneAlignedRead) {
  // With a small boundary an entire predicted segment fits in <= 2 device
  // blocks, so a Get costs exactly one pread of bounded size.
  ScratchDir dir("segio");
  SimEnvOptions sim_options;
  sim_options.read_base_latency_ns = 0;  // keep the test fast
  SimEnv sim(Env::Default(), sim_options);
  TableOptions options = MakeOptions(IndexType::kPGM, 8);
  options.env = &sim;
  const std::string fname = dir.file("t.lst");
  std::vector<Key> keys = RandomGapKeys(20000, 12);
  ASSERT_LILSM_OK(BuildTable(options, fname, keys));
  std::unique_ptr<TableReader> reader;
  ASSERT_LILSM_OK(TableReader::Open(options, fname, &reader));

  sim.io_stats()->Reset();
  std::string value;
  uint64_t tag;
  bool found;
  const uint64_t lookups = 200;
  Random rnd(3);
  for (uint64_t i = 0; i < lookups; i++) {
    const Key key = keys[rnd.Uniform(keys.size())];
    ASSERT_LILSM_OK(ReaderGet(reader.get(), key, &value, &tag, &found));
    ASSERT_TRUE(found);
  }
  EXPECT_EQ(sim.io_stats()->random_reads.load(), lookups);
  // boundary 8 * 96-byte entries < 1 block; alignment can touch 2.
  EXPECT_LE(sim.io_stats()->blocks_read.load(), 2 * lookups);
}

// ---- end-of-data boundary behaviour ----

/// RandomAccessFile decorator that fails any read crossing the file's
/// end: the regression oracle for the aligned-fetch clamp (a pread past
/// EOF would silently short-read instead of erroring on POSIX).
class StrictBoundsFile final : public RandomAccessFile {
 public:
  StrictBoundsFile(std::unique_ptr<RandomAccessFile> base, uint64_t size)
      : base_(std::move(base)), size_(size) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (offset + n > size_) {
      return Status::IOError("StrictBoundsFile",
                             "read crosses end-of-file");
    }
    return base_->Read(offset, n, result, scratch);
  }

 private:
  const std::unique_ptr<RandomAccessFile> base_;
  const uint64_t size_;
};

/// Env decorator wrapping every random-access file in StrictBoundsFile.
class StrictBoundsEnv final : public Env {
 public:
  explicit StrictBoundsEnv(Env* base) : base_(base) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    uint64_t size = 0;
    Status s = base_->GetFileSize(fname, &size);
    if (!s.ok()) return s;
    std::unique_ptr<RandomAccessFile> file;
    s = base_->NewRandomAccessFile(fname, &file);
    if (!s.ok()) return s;
    *result = std::make_unique<StrictBoundsFile>(std::move(file), size);
    return Status::OK();
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
  Env* const base_;
};

/// The aligned fetch must clamp at the end of the data region: with a
/// 96-byte entry and 4096-byte I/O blocks, count=101 ends the data
/// section mid-block (9696 bytes), so an unclamped aligned fetch of the
/// last segment would read trailing bloom/index bytes as entries — and,
/// under a reader whose file ends at the data region's block boundary,
/// cross EOF. Every access pattern that touches the last entries runs
/// against the strict-bounds env.
class SegmentedTableBoundaryPlanTest
    : public ::testing::TestWithParam<PlanMode> {};

TEST_P(SegmentedTableBoundaryPlanTest, LastSegmentClampsToDataEnd) {
  const PlanMode mode = GetParam();
  ScratchDir dir(std::string("segbound_") + PlanModeName(mode));
  TableOptions options = MakeOptions(IndexType::kPGM, 64);
  const std::string fname = dir.file("t.lst");
  // 101 * 96 = 9696 bytes of data: ends mid-way through block 2.
  std::vector<Key> keys = RandomGapKeys(101, 42);
  ASSERT_NE((keys.size() * options.entry_size()) % kIoBlockSize, 0u);
  ASSERT_LILSM_OK(BuildTable(options, fname, keys));

  StrictBoundsEnv strict(Env::Default());
  options.env = &strict;
  std::unique_ptr<TableReader> reader;
  ASSERT_LILSM_OK(TableReader::Open(options, fname, &reader));

  // Point lookups across the whole table, hammering the tail.
  std::string value;
  uint64_t tag = 0;
  bool found = false;
  auto get = [&](Key key, const size_t* lo = nullptr,
                 const size_t* hi = nullptr) {
    std::unique_ptr<ReadBatch> batch =
        mode == PlanMode::kBatched ? strict.NewReadBatch(4) : nullptr;
    return ReaderMultiGet(reader.get(), std::span<const Key>(&key, 1), &value,
                          &tag, &found, lo, hi, batch.get());
  };
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_LILSM_OK(get(keys[i]));
    ASSERT_TRUE(found) << "key index " << i;
    EXPECT_EQ(value, DeriveValue(keys[i], kValueSize));
  }
  // Absent keys past the last entry's block boundary.
  ASSERT_LILSM_OK(get(keys.back() - 1));
  const size_t lo = keys.size() - 2, hi = keys.size() + 50;
  ASSERT_LILSM_OK(get(keys.back(), &lo, &hi));
  EXPECT_TRUE(found);

  // Full scan and tail seeks drive the iterator's block-by-block fetches
  // through the final partial block.
  auto iter = reader->NewIterator();
  size_t n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
  ASSERT_LILSM_OK(iter->status());
  EXPECT_EQ(n, keys.size());
  iter->Seek(keys.back());
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key(), keys.back());
  iter->Seek(keys.back() + 1);
  EXPECT_FALSE(iter->Valid());
  ASSERT_LILSM_OK(iter->status());

  // A multi-key plan's span sharing around the tail.
  std::vector<Key> batch = {keys[keys.size() - 3], keys[keys.size() - 2],
                            keys.back(), keys.back() + 10};
  std::vector<std::string> values(batch.size());
  std::vector<uint64_t> tags(batch.size());
  std::unique_ptr<bool[]> founds(new bool[batch.size()]);
  ASSERT_LILSM_OK(PlannedMultiGet(mode, &strict, reader.get(), batch,
                                  values.data(), tags.data(), founds.get()));
  EXPECT_TRUE(founds[0] && founds[1] && founds[2]);
  EXPECT_FALSE(founds[3]);
  for (size_t i = 0; i < 3; i++) {
    EXPECT_EQ(values[i], DeriveValue(batch[i], kValueSize));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlanModes, SegmentedTableBoundaryPlanTest,
    ::testing::Values(PlanMode::kInline, PlanMode::kBatched),
    [](const ::testing::TestParamInfo<PlanMode>& info) {
      return std::string(PlanModeName(info.param));
    });

/// The same boundary contract holds with a block cache attached: cached
/// assembly of the final partial block must match the direct read.
TEST(SegmentedTableBoundaryTest, LastSegmentCachedMatchesDirect) {
  ScratchDir dir("segbound_cache");
  TableOptions options = MakeOptions(IndexType::kPGM, 64);
  const std::string fname = dir.file("t.lst");
  std::vector<Key> keys = RandomGapKeys(101, 43);
  ASSERT_LILSM_OK(BuildTable(options, fname, keys));

  StrictBoundsEnv strict(Env::Default());
  options.env = &strict;
  options.block_cache = std::make_shared<BlockCache>(1 << 20);
  options.cache_file_number = 1;
  std::unique_ptr<TableReader> reader;
  ASSERT_LILSM_OK(TableReader::Open(options, fname, &reader));

  std::string value;
  uint64_t tag = 0;
  bool found = false;
  for (int pass = 0; pass < 2; pass++) {  // cold then fully cached
    for (size_t i = 0; i < keys.size(); i++) {
      ASSERT_LILSM_OK(ReaderGet(reader.get(), keys[i], &value, &tag, &found));
      ASSERT_TRUE(found) << "pass " << pass << " key index " << i;
      EXPECT_EQ(value, DeriveValue(keys[i], kValueSize));
    }
  }
  EXPECT_GT(options.block_cache->hits(), 0u);
}

}  // namespace
}  // namespace lilsm
