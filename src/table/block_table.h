// BlockTable: the classic LevelDB-style table format, kept as the legacy
// substrate the paper's testbed replaces. Entries are grouped into
// prefix-compressed blocks with restart points; an in-memory index block of
// per-block fence pointers (last key + handle) routes lookups. Unlike the
// segmented format it supports variable-length values.
#ifndef LILSM_TABLE_BLOCK_TABLE_H_
#define LILSM_TABLE_BLOCK_TABLE_H_

#include <vector>

#include "bloom/bloom.h"
#include "table/table.h"

namespace lilsm {

class BlockTableBuilder final : public TableBuilder {
 public:
  BlockTableBuilder(const TableOptions& options, const std::string& fname);
  ~BlockTableBuilder() override;

  Status Add(Key key, uint64_t tag, const Slice& value) override;
  Status Finish() override;
  void Abandon() override;

  uint64_t NumEntries() const override { return num_entries_; }
  uint64_t FileSize() const override { return offset_; }
  Status status() const { return status_; }

 private:
  void FlushBlock();

  static constexpr int kRestartInterval = 16;
  /// Target uncompressed block payload size.
  static constexpr size_t kTargetBlockSize = 4096;

  TableOptions options_;
  std::unique_ptr<WritableFile> file_;
  Status status_;
  BloomFilterBuilder bloom_;

  std::string block_buf_;
  std::vector<uint32_t> restarts_;
  int entries_in_block_ = 0;
  std::string last_key_bytes_;  // encoded key of the previous entry

  // Pending index entries: (last key of block, handle).
  std::vector<std::pair<Key, BlockHandle>> index_entries_;
  Key block_last_key_ = 0;

  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  bool has_entries_ = false;
  Key min_key_ = 0;
  Key max_key_ = 0;
  bool finished_ = false;
};

class BlockTableReader final : public TableReader {
 public:
  static Status Open(const TableOptions& options, const std::string& fname,
                     std::unique_ptr<TableReader>* reader);

  /// Looks keys up one at a time (range, bloom, fence pointer, one block
  /// read, parse). Positional bounds are not supported: NotSupported.
  Status MultiGet(std::span<const Key> keys, const size_t* bounds_lo,
                  const size_t* bounds_hi, std::string* values,
                  uint64_t* tags, bool* founds, Stats* stats,
                  bool fill_cache) override;
  /// Async two-phase MultiGet: screens each key (range, bloom), routes it
  /// to its fence-pointer block, dedupes consecutive keys sharing a block,
  /// serves cached blocks immediately, and registers one ReadRequest for
  /// each cold block's raw bytes. FinishMultiGet crc-verifies the fetched
  /// blocks and parses each key's entry. Positional bounds are not
  /// supported, as in MultiGet.
  Status PrepareMultiGet(std::span<const Key> keys, const size_t* bounds_lo,
                         const size_t* bounds_hi, ReadBatch* batch,
                         std::unique_ptr<PendingMultiGet>* pending,
                         Stats* stats, bool fill_cache) override;
  Status FinishMultiGet(PendingMultiGet* pending, std::string* values,
                        uint64_t* tags, bool* founds, Stats* stats) override;
  std::unique_ptr<TableIterator> NewIterator(bool fill_cache,
                                             size_t readahead_blocks) override;

  uint64_t NumEntries() const override { return count_; }
  Key MinKey() const override { return min_key_; }
  Key MaxKey() const override { return max_key_; }
  const LearnedIndex* index() const override { return nullptr; }
  Status RetrainIndex(IndexType, const IndexConfig&) override {
    return Status::NotSupported("block tables use fence-pointer blocks");
  }
  size_t IndexMemoryUsage() const override;
  size_t FilterMemoryUsage() const override { return bloom_data_.capacity(); }
  Status ReadAllKeys(std::vector<Key>* keys) override;

 private:
  friend class BlockTableIterator;

  explicit BlockTableReader(const TableOptions& options) : options_(options) {}

  /// Index of the first block whose last key >= key (blocks_.size() if
  /// past the end).
  size_t FindBlock(Key key) const;
  /// Screens `key` (range, bloom) and routes it to its fence-pointer
  /// block: blocks_.size() when the key is definitely absent.
  size_t Route(Key key, Stats* stats) const;
  /// Parses `payload` for `key`, filling *found (and *tag, *value on a
  /// hit) and attributing the bloom true/false positive.
  Status SearchBlock(const std::string& payload, Key key, std::string* value,
                     uint64_t* tag, bool* found, Stats* stats) const;
  /// Reads (and checksum-verifies) one block, consulting the block cache
  /// first when configured — the cache stores the verified payload keyed
  /// by the block's file offset, so hits skip both the pread and the crc.
  Status ReadBlock(size_t block_idx, std::string* contents,
                   Stats* stats = nullptr, bool fill_cache = true) const;

  struct BlockEntry {
    Key last_key;
    BlockHandle handle;
  };

  TableOptions options_;
  std::unique_ptr<RandomAccessFile> file_;
  std::vector<BlockEntry> blocks_;
  std::string bloom_data_;
  uint64_t count_ = 0;
  Key min_key_ = 0;
  Key max_key_ = 0;
  uint32_t key_size_ = 0;
};

/// Parses the entries of one block payload into (key, tag, value) tuples.
/// Exposed for the iterator and for tests.
class BlockParser {
 public:
  BlockParser(const std::string* contents, uint32_t key_size);

  bool Valid() const { return valid_; }
  void SeekToFirst();
  void Seek(Key target);  // first entry with key >= target
  void Next();

  Key key() const { return key_; }
  uint64_t tag() const { return tag_; }
  Slice value() const { return value_; }
  Status status() const { return status_; }

 private:
  bool ParseCurrent();

  const std::string* contents_;
  const uint32_t key_size_;
  size_t data_end_ = 0;      // payload bytes before the restart array
  size_t num_restarts_ = 0;
  size_t current_ = 0;       // offset of the current entry
  size_t next_ = 0;          // offset of the next entry
  std::string key_bytes_;    // reconstructed key (prefix-compressed)
  Key key_ = 0;
  uint64_t tag_ = 0;
  Slice value_;
  bool valid_ = false;
  Status status_;

  uint32_t RestartPoint(size_t i) const;
};

}  // namespace lilsm

#endif  // LILSM_TABLE_BLOCK_TABLE_H_
