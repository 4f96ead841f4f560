// WAL record framing: round trips, torn tails, corrupt payloads, records
// that straddle the reader's 64 KiB read blocks, and the number of reads a
// replay costs.
#include "lsm/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "tests/test_util.h"
#include "util/coding.h"
#include "util/random.h"

namespace lilsm {
namespace {

using testing_util::ScratchDir;

Status OpenWriter(const std::string& fname, std::unique_ptr<LogWriter>* w) {
  std::unique_ptr<WritableFile> file;
  Status s = Env::Default()->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  *w = std::make_unique<LogWriter>(std::move(file));
  return Status::OK();
}

Status OpenReader(const std::string& fname, std::unique_ptr<LogReader>* r) {
  std::unique_ptr<SequentialFile> file;
  Status s = Env::Default()->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  *r = std::make_unique<LogReader>(std::move(file));
  return Status::OK();
}

TEST(WalTest, RecordsRoundTrip) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  std::vector<std::string> records = {"", "a", std::string(100000, 'z')};
  Random rnd(5);
  for (int i = 0; i < 200; i++) {
    records.push_back(std::string(rnd.Uniform(500), static_cast<char>(i)));
  }
  {
    std::unique_ptr<LogWriter> writer;
    ASSERT_LILSM_OK(OpenWriter(fname, &writer));
    for (const std::string& record : records) {
      ASSERT_LILSM_OK(writer->AddRecord(record));
    }
    ASSERT_LILSM_OK(writer->Close());
  }
  std::unique_ptr<LogReader> reader;
  ASSERT_LILSM_OK(OpenReader(fname, &reader));
  std::string record;
  for (const std::string& expected : records) {
    ASSERT_TRUE(reader->ReadRecord(&record));
    ASSERT_EQ(record, expected);
  }
  EXPECT_FALSE(reader->ReadRecord(&record));
  EXPECT_FALSE(reader->hit_corruption());
}

TEST(WalTest, TornTailStopsReplay) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  {
    std::unique_ptr<LogWriter> writer;
    ASSERT_LILSM_OK(OpenWriter(fname, &writer));
    ASSERT_LILSM_OK(writer->AddRecord("first"));
    ASSERT_LILSM_OK(writer->AddRecord("second-record-payload"));
    ASSERT_LILSM_OK(writer->Close());
  }
  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &contents));
  contents.resize(contents.size() - 4);  // tear the last payload
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));

  std::unique_ptr<LogReader> reader;
  ASSERT_LILSM_OK(OpenReader(fname, &reader));
  std::string record;
  ASSERT_TRUE(reader->ReadRecord(&record));
  EXPECT_EQ(record, "first");
  EXPECT_FALSE(reader->ReadRecord(&record));
  EXPECT_TRUE(reader->hit_corruption());
}

TEST(WalTest, CorruptPayloadDetectedByCrc) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  {
    std::unique_ptr<LogWriter> writer;
    ASSERT_LILSM_OK(OpenWriter(fname, &writer));
    ASSERT_LILSM_OK(writer->AddRecord("good-record"));
    ASSERT_LILSM_OK(writer->Close());
  }
  std::string contents;
  ASSERT_LILSM_OK(ReadFileToString(Env::Default(), fname, &contents));
  contents[contents.size() - 2] =
      static_cast<char>(contents[contents.size() - 2] ^ 0x40);
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));

  std::unique_ptr<LogReader> reader;
  ASSERT_LILSM_OK(OpenReader(fname, &reader));
  std::string record;
  EXPECT_FALSE(reader->ReadRecord(&record));
  EXPECT_TRUE(reader->hit_corruption());
}

TEST(WalTest, EmptyFileIsCleanEof) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), Slice(), fname));
  std::unique_ptr<LogReader> reader;
  ASSERT_LILSM_OK(OpenReader(fname, &reader));
  std::string record;
  EXPECT_FALSE(reader->ReadRecord(&record));
  EXPECT_FALSE(reader->hit_corruption());
  EXPECT_EQ(reader->result(), LogReadStatus::kEof);
}

// ---------------------------------------------------------------------------
// Typed classification: every way a log can end or be damaged, with the
// LogReadStatus recovery keys on. A crash can only tear the tail
// (kTornTail, clean end of log); damage with intact records after it is
// mid-log corruption (kCorruption, recovery must fail loudly).
// ---------------------------------------------------------------------------

// Writes `records` to a fresh log and returns the raw bytes.
std::string BuildLog(const std::string& fname,
                     const std::vector<std::string>& records) {
  std::unique_ptr<LogWriter> writer;
  EXPECT_LILSM_OK(OpenWriter(fname, &writer));
  for (const std::string& record : records) {
    EXPECT_LILSM_OK(writer->AddRecord(record));
  }
  EXPECT_LILSM_OK(writer->Close());
  std::string contents;
  EXPECT_LILSM_OK(ReadFileToString(Env::Default(), fname, &contents));
  return contents;
}

// Replays `contents` as a log file; returns the terminal status and the
// records successfully read.
LogReadStatus Replay(const std::string& fname, const std::string& contents,
                     std::vector<std::string>* read) {
  EXPECT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));
  std::unique_ptr<LogReader> reader;
  EXPECT_LILSM_OK(OpenReader(fname, &reader));
  std::string record;
  read->clear();
  while (reader->Read(&record) == LogReadStatus::kOk) {
    read->push_back(record);
  }
  return reader->result();
}

TEST(WalTypedTest, CleanEndOfLogIsEof) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  const std::string contents = BuildLog(fname, {"a", "b"});
  std::vector<std::string> read;
  EXPECT_EQ(Replay(fname, contents, &read), LogReadStatus::kEof);
  EXPECT_EQ(read, (std::vector<std::string>{"a", "b"}));
}

TEST(WalTypedTest, EofInsideHeaderIsTornTail) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  std::string contents = BuildLog(fname, {"first", "second"});
  // Keep record one plus 3 bytes of record two's 8-byte header.
  contents.resize(8 + 5 + 3);
  std::vector<std::string> read;
  EXPECT_EQ(Replay(fname, contents, &read), LogReadStatus::kTornTail);
  EXPECT_EQ(read, (std::vector<std::string>{"first"}));
}

TEST(WalTypedTest, EofInsidePayloadIsTornTail) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  std::string contents = BuildLog(fname, {"first", "second-payload"});
  contents.resize(contents.size() - 4);
  std::vector<std::string> read;
  EXPECT_EQ(Replay(fname, contents, &read), LogReadStatus::kTornTail);
  EXPECT_EQ(read, (std::vector<std::string>{"first"}));
}

TEST(WalTypedTest, CrcMismatchOnFinalRecordIsTornTail) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  // Flip a payload byte of the last record: full length present, bad
  // checksum, nothing after — the shape of partially persisted sectors.
  std::string contents = BuildLog(fname, {"first", "second"});
  contents.back() = static_cast<char>(contents.back() ^ 0x01);
  std::vector<std::string> read;
  EXPECT_EQ(Replay(fname, contents, &read), LogReadStatus::kTornTail);
  EXPECT_EQ(read, (std::vector<std::string>{"first"}));
}

TEST(WalTypedTest, CrcMismatchMidLogIsCorruption) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  // Flip a payload byte of record ONE while an intact record follows: a
  // crash cannot produce this, so it must refuse, not truncate.
  std::string contents = BuildLog(fname, {"first", "second"});
  contents[8] = static_cast<char>(contents[8] ^ 0x01);
  std::vector<std::string> read;
  EXPECT_EQ(Replay(fname, contents, &read), LogReadStatus::kCorruption);
  EXPECT_TRUE(read.empty());
}

TEST(WalTypedTest, GarbageLengthAtTailIsTornTail) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  const std::string log = BuildLog(fname, {"first"});
  // A scribbled header with only a few bytes behind it: the torn final
  // record of a crash. One length is above the 1 GiB record cap, one just
  // under it; neither may allocate what the file does not hold.
  for (const char* length : {"\xff\xff\xff\x7f", "\xff\xff\xff\x3f"}) {
    std::string contents = log;
    contents.append("\xff\xff\xff\xff", 4);  // crc
    contents.append(length, 4);                // 0x7fffffff, 0x3fffffff
    contents.append("junk");
    ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));
    std::unique_ptr<LogReader> reader;
    ASSERT_LILSM_OK(OpenReader(fname, &reader));
    std::string record;
    ASSERT_EQ(reader->Read(&record), LogReadStatus::kOk);
    EXPECT_EQ(record, "first");
    EXPECT_EQ(reader->Read(&record), LogReadStatus::kTornTail);
    EXPECT_LT(record.capacity(), size_t{1} << 20);
  }
}

// Every single-bit flip in a two-record log. A damaged record is never
// served: the records read are always an intact prefix of the log.
TEST(WalTypedTest, EveryFlippedBitIsCaught) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  const std::vector<std::string> records = {"first record payload",
                                            "second record payload"};
  const std::string log = BuildLog(fname, records);
  const size_t second = 8 + records[0].size();  // offset of record two
  for (size_t bit = 0; bit < log.size() * 8; bit++) {
    const size_t byte = bit / 8;
    std::string contents = log;
    contents[byte] = static_cast<char>(contents[byte] ^ (1 << (bit % 8)));
    std::vector<std::string> read;
    const LogReadStatus status = Replay(fname, contents, &read);
    const bool in_final = byte >= second;
    const size_t offset = byte - (in_final ? second : 0);
    const bool in_length = offset >= 4 && offset < 8;
    // Records before the damaged one are intact and returned.
    const std::vector<std::string> intact =
        in_final ? std::vector<std::string>{records[0]}
                 : std::vector<std::string>{};
    EXPECT_EQ(read, intact) << "flipped bit " << bit;
    if (in_length) {
      // A flipped length moves the record's claimed end: past EOF reads as
      // a torn tail, short of it as a checksum failure. Either way replay
      // stops at the damage (the header carries no checksum of its own).
      EXPECT_NE(status, LogReadStatus::kEof) << "flipped bit " << bit;
    } else {
      // A flip in the crc or payload fails the checksum: mid-log that is
      // corruption, on the final record the torn tail of a crash.
      EXPECT_EQ(status, in_final ? LogReadStatus::kTornTail
                                 : LogReadStatus::kCorruption)
          << "flipped bit " << bit;
    }
  }
}

TEST(WalTypedTest, TerminalStatusIsSticky) {
  ScratchDir dir("wal");
  const std::string fname = dir.file("log");
  std::string contents = BuildLog(fname, {"first", "second"});
  contents[8] = static_cast<char>(contents[8] ^ 0x01);
  ASSERT_LILSM_OK(WriteStringToFile(Env::Default(), contents, fname));
  std::unique_ptr<LogReader> reader;
  ASSERT_LILSM_OK(OpenReader(fname, &reader));
  std::string record;
  EXPECT_EQ(reader->Read(&record), LogReadStatus::kCorruption);
  // Further reads must not skip past the damage to the intact record.
  EXPECT_EQ(reader->Read(&record), LogReadStatus::kCorruption);
  EXPECT_TRUE(reader->hit_corruption());
}

// ---------------------------------------------------------------------------
// Read blocks: the reader fetches kBlockSize bytes per Read and stitches
// records across block boundaries. Damage at or across a boundary must be
// classified exactly as anywhere else, and a replay costs one Read per
// block.
// ---------------------------------------------------------------------------

constexpr size_t kBlock = LogReader::kBlockSize;

/// Serves a string as a SequentialFile and counts its Read calls. Each
/// Read returns at most `max_read` bytes (a short read is not end-of-file)
/// and views the string itself rather than `scratch`, as a file backed by
/// a mapping would.
class StringFile final : public SequentialFile {
 public:
  StringFile(std::string contents, size_t max_read, size_t* reads)
      : contents_(std::move(contents)), max_read_(max_read), reads_(reads) {}

  Status Read(size_t n, Slice* result, char* /*scratch*/) override {
    ++*reads_;
    n = std::min({n, max_read_, contents_.size() - pos_});
    *result = Slice(contents_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status Skip(uint64_t n) override {
    pos_ += static_cast<size_t>(
        std::min<uint64_t>(n, contents_.size() - pos_));
    return Status::OK();
  }

 private:
  const std::string contents_;
  const size_t max_read_;
  size_t* const reads_;
  size_t pos_ = 0;
};

constexpr size_t kWholeReads = std::numeric_limits<size_t>::max();

/// Replays `contents` from memory; returns the terminal status, the
/// records read and (optionally) the number of Read calls made.
LogReadStatus ReplayString(const std::string& contents, size_t max_read,
                           std::vector<std::string>* read,
                           size_t* reads = nullptr) {
  size_t count = 0;
  LogReader reader(std::make_unique<StringFile>(contents, max_read, &count));
  std::string record;
  read->clear();
  while (reader.Read(&record) == LogReadStatus::kOk) read->push_back(record);
  if (reads != nullptr) *reads = count;
  return reader.result();
}

std::string Payload(size_t n, uint64_t seed) {
  Random rnd(seed);
  std::string payload(n, '\0');
  for (char& c : payload) c = static_cast<char>(rnd.Uniform(256));
  return payload;
}

/// Logs whose records meet the read-block boundaries in each way a replay
/// must stitch: a header cut by the boundary, a payload cut by it, one
/// record spanning several blocks, and records ending exactly on it.
struct BoundaryLog {
  const char* name;
  std::vector<std::string> records;
};

std::vector<BoundaryLog> BoundaryLogs() {
  return {
      // Record two's header occupies [kBlock - 3, kBlock + 5).
      {"header_straddles",
       {Payload(kBlock - 8 - 3, 1), Payload(100, 2), Payload(20, 3)}},
      // Record two's payload occupies [kBlock - 52, kBlock + 68).
      {"payload_straddles",
       {Payload(kBlock - 8 - 60, 4), Payload(120, 5), Payload(20, 6)}},
      // Record two crosses the boundaries at kBlock and 2 * kBlock.
      {"record_spans_blocks",
       {Payload(10, 7), Payload(150000, 8), Payload(10, 9)}},
      // Records one and three end exactly on the first two boundaries.
      {"record_ends_on_boundary",
       {Payload(kBlock - 8, 10), Payload(30, 11),
        Payload(kBlock - 8 - 38, 12), Payload(5, 13)}},
  };
}

/// End offset of each record of `records` in its framed log.
std::vector<size_t> RecordEnds(const std::vector<std::string>& records) {
  std::vector<size_t> ends;
  size_t offset = 0;
  for (const std::string& record : records) {
    offset += 8 + record.size();
    ends.push_back(offset);
  }
  return ends;
}

/// Every block boundary strictly inside a log of `size` bytes.
std::vector<size_t> Boundaries(size_t size) {
  std::vector<size_t> boundaries;
  for (size_t b = kBlock; b < size; b += kBlock) boundaries.push_back(b);
  return boundaries;
}

TEST(WalBlockTest, BoundaryLogsHaveTheirShape) {
  for (const BoundaryLog& log : BoundaryLogs()) {
    const std::vector<size_t> ends = RecordEnds(log.records);
    const std::string name = log.name;
    if (name == "header_straddles") {
      EXPECT_EQ(ends[0] + 3, kBlock);
    }
    if (name == "payload_straddles") {
      EXPECT_LT(ends[0] + 8, kBlock);
      EXPECT_GT(ends[1], kBlock);
    }
    if (name == "record_spans_blocks") {
      EXPECT_GT(log.records[1].size(), 2 * kBlock);
    }
    if (name == "record_ends_on_boundary") {
      EXPECT_EQ(ends[0], kBlock);
      EXPECT_EQ(ends[2], 2 * kBlock);
    }
  }
}

TEST(WalBlockTest, IntactLogsRoundTripInBothReadShapes) {
  ScratchDir dir("wal");
  for (const BoundaryLog& log : BoundaryLogs()) {
    const std::string contents = BuildLog(dir.file("log"), log.records);
    for (size_t max_read : {kWholeReads, size_t{4093}}) {
      std::vector<std::string> read;
      size_t reads = 0;
      EXPECT_EQ(ReplayString(contents, max_read, &read, &reads),
                LogReadStatus::kEof)
          << log.name;
      EXPECT_EQ(read, log.records) << log.name;
      if (max_read == kWholeReads) {
        EXPECT_LE(reads, (contents.size() + kBlock - 1) / kBlock + 1)
            << log.name;
      }
    }
  }
}

// A crash can leave the log cut at any offset. Cut at every offset near
// each block boundary and near the end: the records read are exactly those
// that end at or before the cut, and the log ends cleanly only when the
// cut falls between records.
TEST(WalBlockTest, CutsNearBlockBoundariesReadTheIntactPrefix) {
  ScratchDir dir("wal");
  for (const BoundaryLog& log : BoundaryLogs()) {
    const std::string contents = BuildLog(dir.file("log"), log.records);
    const std::vector<size_t> ends = RecordEnds(log.records);
    std::vector<size_t> centers = Boundaries(contents.size());
    centers.push_back(contents.size());
    for (size_t center : centers) {
      for (size_t cut = center > 24 ? center - 24 : 0;
           cut <= std::min(center + 24, contents.size()); cut++) {
        size_t intact = 0;
        while (intact < ends.size() && ends[intact] <= cut) intact++;
        const bool between =
            cut == 0 || (intact > 0 && ends[intact - 1] == cut);
        const std::vector<std::string> expected(
            log.records.begin(), log.records.begin() + intact);
        for (size_t max_read : {kWholeReads, size_t{4093}}) {
          std::vector<std::string> read;
          const LogReadStatus status =
              ReplayString(contents.substr(0, cut), max_read, &read);
          EXPECT_EQ(read, expected) << log.name << " cut at " << cut;
          EXPECT_EQ(status, between ? LogReadStatus::kEof
                                    : LogReadStatus::kTornTail)
              << log.name << " cut at " << cut;
        }
      }
    }
  }
}

// Every single-bit flip within 16 bytes of each block boundary. The
// damaged record and everything after it are never served, and the status
// follows the classification: a checksum failure is a torn tail on the
// final record and corruption before it; a flipped length is a torn tail
// when its claimed end reaches end-of-file and corruption when intact
// bytes lie beyond it.
TEST(WalBlockTest, FlippedBitsNearBlockBoundariesAreClassified) {
  ScratchDir dir("wal");
  for (const BoundaryLog& log : BoundaryLogs()) {
    const std::string contents = BuildLog(dir.file("log"), log.records);
    const std::vector<size_t> ends = RecordEnds(log.records);
    for (size_t boundary : Boundaries(contents.size())) {
      for (size_t byte = boundary - 16;
           byte < std::min(boundary + 16, contents.size()); byte++) {
        const size_t r = static_cast<size_t>(
            std::upper_bound(ends.begin(), ends.end(), byte) - ends.begin());
        const size_t start = r == 0 ? 0 : ends[r - 1];
        const std::vector<std::string> intact(log.records.begin(),
                                              log.records.begin() + r);
        for (int bit = 0; bit < 8; bit++) {
          std::string damaged = contents;
          damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
          const bool in_length = byte >= start + 4 && byte < start + 8;
          const uint64_t claimed_end =
              start + 8 + DecodeFixed32(damaged.data() + start + 4);
          const bool torn = in_length ? claimed_end >= damaged.size()
                                      : r + 1 == ends.size();
          for (size_t max_read : {kWholeReads, size_t{4093}}) {
            std::vector<std::string> read;
            const LogReadStatus status = ReplayString(damaged, max_read, &read);
            EXPECT_EQ(read, intact)
                << log.name << " byte " << byte << " bit " << bit;
            EXPECT_EQ(status, torn ? LogReadStatus::kTornTail
                                   : LogReadStatus::kCorruption)
                << log.name << " byte " << byte << " bit " << bit;
          }
        }
      }
    }
  }
}

// One Read per block plus the empty Read that proves end-of-file, however
// many records the log holds (a reader that read each header and payload
// on its own made two Reads per record).
TEST(WalBlockTest, ReplayReadsOncePerBlock) {
  std::vector<std::string> records;
  Random rnd(17);
  for (int i = 0; i < 10000; i++) {
    records.push_back(Payload(100 + rnd.Uniform(100), 1000 + i));
  }
  ScratchDir dir("wal");
  const std::string contents = BuildLog(dir.file("log"), records);
  ASSERT_GT(contents.size(), 10 * kBlock);
  std::vector<std::string> read;
  size_t reads = 0;
  EXPECT_EQ(ReplayString(contents, kWholeReads, &read, &reads),
            LogReadStatus::kEof);
  EXPECT_EQ(read, records);
  EXPECT_LE(reads, (contents.size() + kBlock - 1) / kBlock + 1);
}

/// Forwards to the default Env, counting the Read calls made on each
/// sequentially read file (the WALs and the MANIFEST).
class CountingEnv final : public Env {
 public:
  size_t reads(const std::string& fname) const {
    auto it = reads_.find(fname);
    return it == reads_.end() ? 0 : it->second;
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    std::unique_ptr<SequentialFile> file;
    Status s = base_->NewSequentialFile(fname, &file);
    if (!s.ok()) return s;
    *result = std::make_unique<CountingFile>(std::move(file), &reads_[fname]);
    return Status::OK();
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
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
  class CountingFile final : public SequentialFile {
   public:
    CountingFile(std::unique_ptr<SequentialFile> base, size_t* reads)
        : base_(std::move(base)), reads_(reads) {}
    Status Read(size_t n, Slice* result, char* scratch) override {
      ++*reads_;
      return base_->Read(n, result, scratch);
    }
    Status Skip(uint64_t n) override { return base_->Skip(n); }

   private:
    std::unique_ptr<SequentialFile> base_;
    size_t* const reads_;
  };

  Env* const base_ = Env::Default();
  std::map<std::string, size_t> reads_;  // recovery is single-threaded
};

TEST(WalBlockTest, ReopenReadsTheWalOncePerBlock) {
  ScratchDir dir("wal_reopen");
  CountingEnv env;
  DBOptions options;
  options.env = &env;
  constexpr uint64_t kPuts = 10000;
  auto value_of = [&](Key key) {
    std::string value(options.value_size, '\0');
    for (size_t i = 0; i < value.size(); i++) {
      value[i] = static_cast<char>(key * 31 + i);
    }
    return value;
  };
  {
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(options, dir.path(), &db));
    for (Key key = 0; key < kPuts; key++) {
      ASSERT_LILSM_OK(db->Put(key, value_of(key)));
    }
    ASSERT_EQ(db->NumFilesAtLevel(0), 0);  // every update is in the WAL only
  }
  std::vector<std::string> children;
  ASSERT_LILSM_OK(env.GetChildren(dir.path(), &children));
  std::map<std::string, uint64_t> wal_bytes;
  for (const std::string& name : children) {
    uint64_t number = 0;
    if (ParseFileName(name, &number) != FileKind::kWalFile) continue;
    const std::string fname = dir.file(name);
    ASSERT_LILSM_OK(env.GetFileSize(fname, &wal_bytes[fname]));
  }
  uint64_t logged = 0;
  for (const auto& [fname, bytes] : wal_bytes) logged += bytes;
  ASSERT_GT(logged, kPuts * options.value_size);

  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dir.path(), &db));
  EXPECT_EQ(db->stats()->Count(Counter::kWalRecordsReplayed), kPuts);
  for (const auto& [fname, bytes] : wal_bytes) {
    EXPECT_LE(env.reads(fname), (bytes + kBlock - 1) / kBlock + 1) << fname;
  }
  std::string value;
  for (Key key = 0; key < kPuts; key++) {
    ASSERT_LILSM_OK(db->Get(key, &value));
    ASSERT_EQ(value, value_of(key)) << "key " << key;
  }
}

}  // namespace
}  // namespace lilsm
