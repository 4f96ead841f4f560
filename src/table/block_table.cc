#include "table/block_table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

namespace lilsm {

namespace {

/// Block meta payload for the block format.
struct BlockMeta {
  uint32_t key_size = 0;
  uint64_t count = 0;
  Key min_key = 0;
  Key max_key = 0;
  uint64_t index_block_entries = 0;

  void EncodeTo(std::string* dst) const {
    PutVarint32(dst, 2);  // format version (1 = segmented)
    PutVarint32(dst, key_size);
    PutVarint64(dst, count);
    PutFixed64(dst, min_key);
    PutFixed64(dst, max_key);
    PutVarint64(dst, index_block_entries);
  }

  Status DecodeFrom(Slice* input) {
    uint32_t version = 0;
    if (!GetVarint32(input, &version) || version != 2 ||
        !GetVarint32(input, &key_size) || !GetVarint64(input, &count) ||
        !GetFixed64(input, &min_key) || !GetFixed64(input, &max_key) ||
        !GetVarint64(input, &index_block_entries) || key_size < 8) {
      return Status::Corruption("block table: bad meta block");
    }
    return Status::OK();
  }
};

Slice BloomKey(Key key, char* buf) {
  EncodeFixed64(buf, key);
  return Slice(buf, 8);
}

size_t SharedPrefix(const std::string& a, const char* b, size_t b_len) {
  const size_t limit = std::min(a.size(), b_len);
  size_t shared = 0;
  while (shared < limit && a[shared] == b[shared]) shared++;
  return shared;
}

/// In-flight state of a two-phase MultiGet against a block table: one
/// BlockFetch per unique data block touched by the batch (sorted keys make
/// duplicates consecutive), each either served from the block cache at
/// Prepare time or backed by a pending ReadRequest for the raw handle
/// bytes (crc verified at Finish).
class BlockPendingMultiGet final : public PendingMultiGet {
 public:
  struct BlockFetch {
    size_t block_idx = 0;
    bool needs_read = false;
    std::string buffer;   // raw handle bytes (payload + crc) for cold blocks
    std::string payload;  // verified payload; filled at Prepare on cache hits
    ReadRequest req;
  };
  struct KeyPlan {
    int fetch = -1;  // index into fetches; -1 = screened out (absent)
  };

  std::vector<Key> keys;
  std::vector<KeyPlan> plans;
  std::vector<BlockFetch> fetches;
  bool fill_cache = true;
};

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

BlockTableBuilder::BlockTableBuilder(const TableOptions& options,
                                     const std::string& fname)
    : options_(options), bloom_(options.bloom_bits_per_key) {
  assert(options_.env != nullptr);
  status_ = options_.env->NewWritableFile(fname, &file_);
}

BlockTableBuilder::~BlockTableBuilder() {
  if (!finished_ && file_ != nullptr) {
    file_->Close();
  }
}

Status BlockTableBuilder::Add(Key key, uint64_t tag, const Slice& value) {
  if (!status_.ok()) return status_;
  if (finished_) return Status::InvalidArgument("builder already finished");
  if (has_entries_ && key <= max_key_) {
    status_ = Status::InvalidArgument("keys must be strictly increasing");
    return status_;
  }

  char key_bytes[64];
  assert(options_.key_size <= sizeof(key_bytes));
  EncodeUserKey(key, options_.key_size, key_bytes);

  // Restart point every kRestartInterval entries: full key stored.
  size_t shared = 0;
  if (entries_in_block_ % kRestartInterval == 0) {
    restarts_.push_back(static_cast<uint32_t>(block_buf_.size()));
  } else {
    shared = SharedPrefix(last_key_bytes_, key_bytes, options_.key_size);
  }
  const size_t non_shared = options_.key_size - shared;

  PutVarint32(&block_buf_, static_cast<uint32_t>(shared));
  PutVarint32(&block_buf_, static_cast<uint32_t>(non_shared));
  PutVarint32(&block_buf_, static_cast<uint32_t>(value.size()));
  block_buf_.append(key_bytes + shared, non_shared);
  PutFixed64(&block_buf_, tag);
  block_buf_.append(value.data(), value.size());

  last_key_bytes_.assign(key_bytes, options_.key_size);
  block_last_key_ = key;
  entries_in_block_++;
  num_entries_++;
  char bloom_buf[8];
  bloom_.AddKey(BloomKey(key, bloom_buf));
  if (!has_entries_) {
    min_key_ = key;
    has_entries_ = true;
  }
  max_key_ = key;

  if (block_buf_.size() >= kTargetBlockSize) {
    FlushBlock();
  }
  return status_;
}

void BlockTableBuilder::FlushBlock() {
  if (entries_in_block_ == 0 || !status_.ok()) return;
  // Append the restart array + its length.
  for (uint32_t restart : restarts_) {
    PutFixed32(&block_buf_, restart);
  }
  PutFixed32(&block_buf_, static_cast<uint32_t>(restarts_.size()));

  BlockHandle handle;
  status_ = WriteChecksummedBlock(file_.get(), offset_, block_buf_, &handle);
  if (status_.ok()) {
    offset_ += handle.size;
    index_entries_.emplace_back(block_last_key_, handle);
  }
  block_buf_.clear();
  restarts_.clear();
  entries_in_block_ = 0;
  last_key_bytes_.clear();
}

Status BlockTableBuilder::Finish() {
  if (!status_.ok()) return status_;
  if (finished_) return Status::InvalidArgument("builder already finished");
  FlushBlock();
  if (!status_.ok()) return status_;
  finished_ = true;

  Footer footer;

  std::string bloom_block;
  bloom_.Finish(&bloom_block);
  status_ = WriteChecksummedBlock(file_.get(), offset_, bloom_block,
                                  &footer.bloom_handle);
  if (!status_.ok()) return status_;
  offset_ += footer.bloom_handle.size;

  // Index block: the per-block fence pointers.
  std::string index_block;
  PutVarint64(&index_block, index_entries_.size());
  for (const auto& [last_key, handle] : index_entries_) {
    PutFixed64(&index_block, last_key);
    handle.EncodeTo(&index_block);
  }
  status_ = WriteChecksummedBlock(file_.get(), offset_, index_block,
                                  &footer.index_handle);
  if (!status_.ok()) return status_;
  offset_ += footer.index_handle.size;

  BlockMeta meta;
  meta.key_size = options_.key_size;
  meta.count = num_entries_;
  meta.min_key = min_key_;
  meta.max_key = max_key_;
  meta.index_block_entries = index_entries_.size();
  std::string meta_block;
  meta.EncodeTo(&meta_block);
  status_ = WriteChecksummedBlock(file_.get(), offset_, meta_block,
                                  &footer.meta_handle);
  if (!status_.ok()) return status_;
  offset_ += footer.meta_handle.size;

  std::string footer_block;
  footer.EncodeTo(&footer_block);
  status_ = file_->Append(footer_block);
  if (!status_.ok()) return status_;
  offset_ += footer_block.size();

  status_ = file_->Sync();
  if (status_.ok()) status_ = file_->Close();
  file_.reset();
  return status_;
}

void BlockTableBuilder::Abandon() {
  finished_ = true;
  if (file_ != nullptr) {
    file_->Close();
    file_.reset();
  }
}

// ---------------------------------------------------------------------------
// BlockParser
// ---------------------------------------------------------------------------

BlockParser::BlockParser(const std::string* contents, uint32_t key_size)
    : contents_(contents), key_size_(key_size) {
  if (contents_->size() < 4) {
    status_ = Status::Corruption("block: too small");
    return;
  }
  num_restarts_ = DecodeFixed32(contents_->data() + contents_->size() - 4);
  const size_t restart_bytes = (num_restarts_ + 1) * 4;
  if (restart_bytes > contents_->size()) {
    status_ = Status::Corruption("block: bad restart count");
    return;
  }
  data_end_ = contents_->size() - restart_bytes;
}

uint32_t BlockParser::RestartPoint(size_t i) const {
  return DecodeFixed32(contents_->data() + data_end_ + i * 4);
}

bool BlockParser::ParseCurrent() {
  if (current_ >= data_end_) {
    valid_ = false;
    return false;
  }
  Slice input(contents_->data() + current_, data_end_ - current_);
  uint32_t shared = 0, non_shared = 0, value_len = 0;
  if (!GetVarint32(&input, &shared) || !GetVarint32(&input, &non_shared) ||
      !GetVarint32(&input, &value_len) ||
      input.size() < non_shared + 8 + value_len ||
      shared + non_shared != key_size_ || shared > key_bytes_.size()) {
    status_ = Status::Corruption("block: malformed entry");
    valid_ = false;
    return false;
  }
  key_bytes_.resize(shared);
  key_bytes_.append(input.data(), non_shared);
  input.remove_prefix(non_shared);
  key_ = DecodeUserKey(key_bytes_.data());
  tag_ = DecodeFixed64(input.data());
  input.remove_prefix(8);
  value_ = Slice(input.data(), value_len);
  next_ = static_cast<size_t>(input.data() + value_len - contents_->data());
  valid_ = true;
  return true;
}

void BlockParser::SeekToFirst() {
  if (!status_.ok()) return;
  current_ = 0;
  key_bytes_.clear();
  ParseCurrent();
}

void BlockParser::Seek(Key target) {
  if (!status_.ok()) return;
  // Binary search restart points for the last restart with key < target,
  // then scan forward.
  size_t lo = 0, hi = num_restarts_;
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    // Restart entries store the full key; peek at it.
    Slice input(contents_->data() + RestartPoint(mid),
                data_end_ - RestartPoint(mid));
    uint32_t shared = 0, non_shared = 0, value_len = 0;
    if (!GetVarint32(&input, &shared) || !GetVarint32(&input, &non_shared) ||
        !GetVarint32(&input, &value_len) || shared != 0 ||
        non_shared < 8) {
      status_ = Status::Corruption("block: malformed restart entry");
      valid_ = false;
      return;
    }
    const Key restart_key = DecodeUserKey(input.data());
    if (restart_key < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  current_ = RestartPoint(lo);
  key_bytes_.clear();
  while (ParseCurrent() && key_ < target) {
    current_ = next_;
  }
}

void BlockParser::Next() {
  assert(valid_);
  current_ = next_;
  ParseCurrent();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Status BlockTableReader::Open(const TableOptions& options,
                              const std::string& fname,
                              std::unique_ptr<TableReader>* reader) {
  std::unique_ptr<BlockTableReader> r(new BlockTableReader(options));
  Status s = options.env->NewRandomAccessFile(fname, &r->file_);
  if (!s.ok()) return s;
  uint64_t file_size = 0;
  s = options.env->GetFileSize(fname, &file_size);
  if (!s.ok()) return s;

  Footer footer;
  s = ReadFooter(r->file_.get(), file_size, &footer);
  if (!s.ok()) return s;

  std::string meta_block;
  s = ReadChecksummedBlock(r->file_.get(), footer.meta_handle, &meta_block);
  if (!s.ok()) return s;
  BlockMeta meta;
  Slice meta_input(meta_block);
  s = meta.DecodeFrom(&meta_input);
  if (!s.ok()) return s;
  r->key_size_ = meta.key_size;
  r->count_ = meta.count;
  r->min_key_ = meta.min_key;
  r->max_key_ = meta.max_key;

  s = ReadChecksummedBlock(r->file_.get(), footer.bloom_handle,
                           &r->bloom_data_);
  if (!s.ok()) return s;

  std::string index_block;
  s = ReadChecksummedBlock(r->file_.get(), footer.index_handle, &index_block);
  if (!s.ok()) return s;
  Slice input(index_block);
  uint64_t num_blocks = 0;
  if (!GetVarint64(&input, &num_blocks) ||
      num_blocks != meta.index_block_entries) {
    return Status::Corruption("block table: bad index block");
  }
  r->blocks_.reserve(num_blocks);
  for (uint64_t i = 0; i < num_blocks; i++) {
    BlockEntry entry;
    if (!GetFixed64(&input, &entry.last_key) ||
        !entry.handle.DecodeFrom(&input)) {
      return Status::Corruption("block table: truncated index block");
    }
    r->blocks_.push_back(entry);
  }

  *reader = std::move(r);
  return Status::OK();
}

size_t BlockTableReader::FindBlock(Key key) const {
  auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), key,
      [](const BlockEntry& b, Key k) { return b.last_key < k; });
  return static_cast<size_t>(it - blocks_.begin());
}

Status BlockTableReader::ReadBlock(size_t block_idx, std::string* contents,
                                   Stats* stats, bool fill_cache) const {
  if (stats == nullptr) stats = options_.stats;
  BlockCache* cache = options_.block_cache.get();
  const BlockHandle& handle = blocks_[block_idx].handle;
  if (cache != nullptr) {
    BlockCache::BlockRef cached =
        cache->Lookup(options_.cache_file_number, handle.offset);
    if (cached != nullptr) {
      // Served from memory: no kDiskRead tick — the stage breakdown must
      // keep agreeing with the device's actual read count.
      if (stats != nullptr) stats->Add(Counter::kBlockCacheHits);
      contents->assign(*cached);
      return Status::OK();
    }
    if (stats != nullptr) stats->Add(Counter::kBlockCacheMisses);
  }
  Status s;
  {
    ScopedTimer timer(stats, Timer::kDiskRead, options_.env);
    s = ReadChecksummedBlock(file_.get(), handle, contents);
  }
  if (!s.ok()) return s;
  if (cache != nullptr && fill_cache) {
    const size_t evicted =
        cache->Insert(options_.cache_file_number, handle.offset, *contents);
    if (stats != nullptr && evicted > 0) {
      stats->Add(Counter::kBlockCacheEvictions, evicted);
    }
  }
  return Status::OK();
}

size_t BlockTableReader::Route(Key key, Stats* stats) const {
  if (count_ == 0 || key < min_key_ || key > max_key_) return blocks_.size();
  {
    ScopedTimer timer(stats, Timer::kBloomCheck, options_.env);
    char bloom_buf[8];
    BloomFilterReader bloom{Slice(bloom_data_)};
    if (!bloom.KeyMayMatch(BloomKey(key, bloom_buf))) {
      if (stats != nullptr) stats->Add(Counter::kBloomNegatives);
      return blocks_.size();
    }
  }
  ScopedTimer timer(stats, Timer::kIndexPredict, options_.env);
  return FindBlock(key);
}

Status BlockTableReader::SearchBlock(const std::string& payload, Key key,
                                     std::string* value, uint64_t* tag,
                                     bool* found, Stats* stats) const {
  ScopedTimer timer(stats, Timer::kBinarySearch, options_.env);
  BlockParser parser(&payload, key_size_);
  parser.Seek(key);
  if (!parser.status().ok()) return parser.status();
  *found = parser.Valid() && parser.key() == key;
  if (*found) {
    *tag = parser.tag();
    value->assign(parser.value().data(), parser.value().size());
  }
  if (stats != nullptr) {
    stats->Add(*found ? Counter::kBloomTruePositive
                      : Counter::kBloomFalsePositive);
  }
  return Status::OK();
}

Status BlockTableReader::MultiGet(std::span<const Key> keys,
                                  const size_t* bounds_lo,
                                  const size_t* bounds_hi,
                                  std::string* values, uint64_t* tags,
                                  bool* founds, Stats* stats,
                                  bool fill_cache) {
  if (bounds_lo != nullptr || bounds_hi != nullptr) {
    return Status::NotSupported("block tables have no positional bounds");
  }
  if (stats == nullptr) stats = options_.stats;
  // One key at a time, each with its own block read: the block format's
  // point lookup, unchanged by batching.
  std::string contents;
  for (size_t i = 0; i < keys.size(); i++) {
    founds[i] = false;
    const size_t block_idx = Route(keys[i], stats);
    if (block_idx >= blocks_.size()) continue;
    Status s = ReadBlock(block_idx, &contents, stats, fill_cache);
    if (s.ok()) {
      s = SearchBlock(contents, keys[i], &values[i], &tags[i], &founds[i],
                      stats);
    }
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status BlockTableReader::PrepareMultiGet(
    std::span<const Key> keys, const size_t* bounds_lo, const size_t* bounds_hi,
    ReadBatch* batch, std::unique_ptr<PendingMultiGet>* pending, Stats* stats,
    bool fill_cache) {
  if (bounds_lo != nullptr || bounds_hi != nullptr) {
    return Status::NotSupported("block tables have no positional bounds");
  }
  if (stats == nullptr) stats = options_.stats;
  auto p = std::make_unique<BlockPendingMultiGet>();
  p->keys.assign(keys.begin(), keys.end());
  p->plans.resize(keys.size());
  p->fill_cache = fill_cache;

  // Pass 1: screen each key and route it to its fence-pointer block.
  // Inputs are sorted, so keys landing in the same block are consecutive
  // and share one fetch.
  for (size_t i = 0; i < keys.size(); i++) {
    const size_t block_idx = Route(keys[i], stats);
    if (block_idx >= blocks_.size()) continue;
    if (p->fetches.empty() || p->fetches.back().block_idx != block_idx) {
      BlockPendingMultiGet::BlockFetch fetch;
      fetch.block_idx = block_idx;
      p->fetches.push_back(std::move(fetch));
    }
    p->plans[i].fetch = static_cast<int>(p->fetches.size()) - 1;
  }

  // Pass 2: probe the block cache once per unique block; each miss becomes
  // one ReadRequest for the raw handle bytes (crc verified at Finish).
  // The fetch list is complete, so the ReadRequest addresses registered
  // with the batch stay stable.
  BlockCache* cache = options_.block_cache.get();
  for (auto& fetch : p->fetches) {
    const BlockHandle& handle = blocks_[fetch.block_idx].handle;
    if (cache != nullptr) {
      BlockCache::BlockRef cached =
          cache->Lookup(options_.cache_file_number, handle.offset);
      if (cached != nullptr) {
        if (stats != nullptr) stats->Add(Counter::kBlockCacheHits);
        fetch.payload = *cached;
        continue;
      }
      if (stats != nullptr) stats->Add(Counter::kBlockCacheMisses);
    }
    fetch.needs_read = true;
    fetch.buffer.resize(handle.size);
    fetch.req.file = file_.get();
    fetch.req.offset = handle.offset;
    fetch.req.n = handle.size;
    fetch.req.scratch = fetch.buffer.data();
    batch->Add(&fetch.req);
    if (stats != nullptr) stats->Add(Counter::kAsyncReads);
  }
  *pending = std::move(p);
  return Status::OK();
}

Status BlockTableReader::FinishMultiGet(PendingMultiGet* pending,
                                        std::string* values, uint64_t* tags,
                                        bool* founds, Stats* stats) {
  if (stats == nullptr) stats = options_.stats;
  auto* p = static_cast<BlockPendingMultiGet*>(pending);
  BlockCache* cache = options_.block_cache.get();
  for (auto& fetch : p->fetches) {
    if (!fetch.needs_read) continue;
    if (!fetch.req.status.ok()) return fetch.req.status;
    if (fetch.req.result.size() < fetch.req.n) {
      return Status::Corruption("block table: short block read");
    }
    if (fetch.req.result.data() != fetch.buffer.data()) {
      std::memmove(fetch.buffer.data(), fetch.req.result.data(), fetch.req.n);
    }
    Status s = VerifyChecksummedBlock(fetch.buffer.data(), fetch.req.n,
                                      &fetch.payload);
    if (!s.ok()) return s;
    if (cache != nullptr && p->fill_cache) {
      const size_t evicted =
          cache->Insert(options_.cache_file_number,
                        blocks_[fetch.block_idx].handle.offset, fetch.payload);
      if (stats != nullptr && evicted > 0) {
        stats->Add(Counter::kBlockCacheEvictions, evicted);
      }
    }
  }
  for (size_t i = 0; i < p->keys.size(); i++) {
    founds[i] = false;
    if (p->plans[i].fetch < 0) continue;
    const auto& fetch = p->fetches[static_cast<size_t>(p->plans[i].fetch)];
    Status s = SearchBlock(fetch.payload, p->keys[i], &values[i], &tags[i],
                           &founds[i], stats);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

size_t BlockTableReader::IndexMemoryUsage() const {
  return blocks_.capacity() * sizeof(BlockEntry);
}

Status BlockTableReader::ReadAllKeys(std::vector<Key>* keys) {
  keys->clear();
  keys->reserve(count_);
  // A full training scan must not evict the point-lookup hot set.
  auto it = NewIterator(/*fill_cache=*/false, /*readahead_blocks=*/0);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    keys->push_back(it->key());
  }
  return it->status();
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

class BlockTableIterator final : public TableIterator {
 public:
  BlockTableIterator(BlockTableReader* reader, bool fill_cache,
                     size_t readahead_blocks)
      : reader_(reader),
        fill_cache_(fill_cache),
        readahead_blocks_(readahead_blocks) {
    if (readahead_blocks_ > 0) {
      batch_ = reader_->options_.env->NewReadBatch(
          static_cast<int>(readahead_blocks_));
    }
  }

  ~BlockTableIterator() override {
    if (batch_ != nullptr && !inflight_.empty()) {
      // Outstanding requests reference our buffers; drain before freeing.
      batch_->Wait();
    }
    Stats* stats = reader_->options_.stats;
    const size_t wasted = inflight_.size() + ready_.size();
    if (stats != nullptr && wasted > 0) {
      stats->Add(Counter::kReadaheadWasted, wasted);
    }
  }

  bool Valid() const override {
    return status_.ok() && parser_ != nullptr && parser_->Valid();
  }

  void SeekToFirst() override {
    block_idx_ = 0;
    LoadBlock();
    if (parser_ != nullptr) parser_->SeekToFirst();
    SkipExhaustedBlocks();
  }

  void Seek(Key target) override {
    block_idx_ = reader_->FindBlock(target);
    LoadBlock();
    if (parser_ != nullptr) parser_->Seek(target);
    SkipExhaustedBlocks();
  }

  void Next() override {
    assert(Valid());
    parser_->Next();
    SkipExhaustedBlocks();
  }

  Key key() const override { return parser_->key(); }
  uint64_t tag() const override { return parser_->tag(); }
  Slice value() const override { return parser_->value(); }
  Status status() const override {
    if (!status_.ok()) return status_;
    return parser_ != nullptr ? parser_->status() : Status::OK();
  }

 private:
  void LoadBlock() {
    parser_.reset();
    if (block_idx_ >= reader_->blocks_.size()) return;
    if (batch_ != nullptr) {
      Reap();
      Stats* stats = reader_->options_.stats;
      // Prefetches behind the cursor (after a backward Seek) can never be
      // served; blocks ahead of it stay available.
      auto it = ready_.begin();
      while (it != ready_.end() && it->first < block_idx_) {
        it = ready_.erase(it);
        if (stats != nullptr) stats->Add(Counter::kReadaheadWasted);
      }
      if (it != ready_.end() && it->first == block_idx_) {
        contents_ = std::move(it->second);
        ready_.erase(it);
        if (stats != nullptr) stats->Add(Counter::kReadaheadHits);
        parser_ =
            std::make_unique<BlockParser>(&contents_, reader_->key_size_);
        MaybeIssueReadahead();
        return;
      }
    }
    status_ = reader_->ReadBlock(block_idx_, &contents_, nullptr,
                                 fill_cache_);
    if (!status_.ok()) return;
    parser_ = std::make_unique<BlockParser>(&contents_, reader_->key_size_);
    MaybeIssueReadahead();
  }

  /// Waits for the outstanding prefetch batch (if any) and moves the
  /// verified payloads into `ready_`. Failed, short, or corrupt prefetches
  /// are dropped — the synchronous path re-reads them on demand, so
  /// readahead never affects results.
  void Reap() {
    if (inflight_.empty()) return;
    Stats* stats = reader_->options_.stats;
    {
      ScopedTimer timer(stats, Timer::kAsyncReap, reader_->options_.env);
      batch_->Wait();
    }
    if (stats != nullptr) stats->Add(Counter::kAsyncBatches);
    BlockCache* cache = reader_->options_.block_cache.get();
    for (auto& pf : inflight_) {
      if (!pf->req.status.ok() || pf->req.result.size() < pf->req.n) {
        if (stats != nullptr) stats->Add(Counter::kReadaheadWasted);
        continue;
      }
      if (pf->req.result.data() != pf->buffer.data()) {
        std::memmove(pf->buffer.data(), pf->req.result.data(), pf->req.n);
      }
      std::string payload;
      if (!VerifyChecksummedBlock(pf->buffer.data(), pf->req.n, &payload)
               .ok()) {
        if (stats != nullptr) stats->Add(Counter::kReadaheadWasted);
        continue;
      }
      if (cache != nullptr && fill_cache_) {
        const size_t evicted = cache->Insert(
            reader_->options_.cache_file_number,
            reader_->blocks_[pf->block_idx].handle.offset, payload);
        if (stats != nullptr && evicted > 0) {
          stats->Add(Counter::kBlockCacheEvictions, evicted);
        }
      }
      ready_[pf->block_idx] = std::move(payload);
    }
    inflight_.clear();
  }

  /// Submits prefetches for up to readahead_blocks_ fence-pointer blocks
  /// past the current one (skipping blocks already reaped). Only called
  /// with the batch drained, so request addresses stay owned by inflight_.
  void MaybeIssueReadahead() {
    if (batch_ == nullptr || !inflight_.empty()) return;
    Stats* stats = reader_->options_.stats;
    const size_t num_blocks = reader_->blocks_.size();
    size_t issued = 0;
    for (size_t next = block_idx_ + 1;
         issued < readahead_blocks_ && next < num_blocks; next++) {
      if (ready_.count(next) != 0) continue;
      auto pf = std::make_unique<PrefetchBlock>();
      pf->block_idx = next;
      const BlockHandle& handle = reader_->blocks_[next].handle;
      pf->buffer.resize(handle.size);
      pf->req.file = reader_->file_.get();
      pf->req.offset = handle.offset;
      pf->req.n = handle.size;
      pf->req.scratch = pf->buffer.data();
      batch_->Add(&pf->req);
      inflight_.push_back(std::move(pf));
      if (stats != nullptr) stats->Add(Counter::kAsyncReads);
      issued++;
    }
  }

  void SkipExhaustedBlocks() {
    while (status_.ok() && parser_ != nullptr && !parser_->Valid() &&
           parser_->status().ok() &&
           block_idx_ + 1 < reader_->blocks_.size()) {
      block_idx_++;
      LoadBlock();
      if (parser_ != nullptr) parser_->SeekToFirst();
    }
  }

  struct PrefetchBlock {
    size_t block_idx = 0;
    std::string buffer;  // raw handle bytes (payload + crc)
    ReadRequest req;
  };

  BlockTableReader* const reader_;
  const bool fill_cache_;
  const size_t readahead_blocks_;
  Status status_;
  size_t block_idx_ = 0;
  std::string contents_;
  std::unique_ptr<BlockParser> parser_;
  std::unique_ptr<ReadBatch> batch_;
  std::vector<std::unique_ptr<PrefetchBlock>> inflight_;
  std::map<size_t, std::string> ready_;  // block_idx -> verified payload
};

std::unique_ptr<TableIterator> BlockTableReader::NewIterator(
    bool fill_cache, size_t readahead_blocks) {
  return std::make_unique<BlockTableIterator>(this, fill_cache,
                                              readahead_blocks);
}

}  // namespace lilsm
