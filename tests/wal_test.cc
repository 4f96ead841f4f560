// WAL record framing: round trips, torn tails, corrupt payloads.
#include "lsm/wal.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
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

}  // namespace
}  // namespace lilsm
