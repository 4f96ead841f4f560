#include "table/table.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace lilsm {

namespace {

/// Meta block payload: geometry and key range of the table.
struct MetaBlock {
  uint32_t key_size = 0;
  uint32_t value_size = 0;
  uint64_t count = 0;
  Key min_key = 0;
  Key max_key = 0;

  void EncodeTo(std::string* dst) const {
    PutVarint32(dst, 1);  // format version
    PutVarint32(dst, key_size);
    PutVarint32(dst, value_size);
    PutVarint64(dst, count);
    PutFixed64(dst, min_key);
    PutFixed64(dst, max_key);
  }

  Status DecodeFrom(Slice* input) {
    uint32_t version = 0;
    if (!GetVarint32(input, &version) || version != 1 ||
        !GetVarint32(input, &key_size) || !GetVarint32(input, &value_size) ||
        !GetVarint64(input, &count) || !GetFixed64(input, &min_key) ||
        !GetFixed64(input, &max_key) || key_size < 8 ||
        key_size > kMaxKeySize) {
      return Status::Corruption("segmented table: bad meta block");
    }
    return Status::OK();
  }
};

/// Bloom keys are the 8-byte little-endian user key.
Slice BloomKey(Key key, char* buf) {
  EncodeFixed64(buf, key);
  return Slice(buf, 8);
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

TableBuilder::TableBuilder(const TableOptions& options)
    : options_(options), bloom_(options.bloom_bits_per_key) {
  entry_buf_.resize(options_.entry_size());
}

Status TableBuilder::Open(const TableOptions& options,
                          const std::string& fname,
                          std::unique_ptr<TableBuilder>* builder) {
  if (options.env == nullptr) {
    return Status::InvalidArgument("TableOptions.env is required");
  }
  std::unique_ptr<TableBuilder> b(new TableBuilder(options));
  Status s = options.env->NewWritableFile(fname, &b->file_);
  if (!s.ok()) return s;
  *builder = std::move(b);
  return Status::OK();
}

TableBuilder::~TableBuilder() {
  if (!finished_ && file_ != nullptr) {
    file_->Close();
  }
}

Status TableBuilder::Add(Key key, uint64_t tag, const Slice& value) {
  if (!status_.ok()) return status_;
  if (finished_) {
    return Status::InvalidArgument("builder already finished");
  }
  if (!keys_.empty() && key <= keys_.back()) {
    status_ = Status::InvalidArgument("keys must be strictly increasing");
    return status_;
  }
  // Tombstones (tag type byte 0 = deletion) carry no value; their slot is
  // zero-padded so the fixed entry geometry holds.
  const bool is_tombstone = (tag & 0xff) == 0;
  if (value.size() != options_.value_size &&
      !(is_tombstone && value.empty())) {
    status_ = Status::InvalidArgument(
        "segmented tables require fixed-size values");
    return status_;
  }

  char* dst = entry_buf_.data();
  EncodeUserKey(key, options_.key_size, dst);
  EncodeFixed64(dst + options_.key_size, tag);
  std::memcpy(dst + options_.key_size + 8, value.data(), value.size());
  if (value.size() < options_.value_size) {
    std::memset(dst + options_.key_size + 8 + value.size(), 0,
                options_.value_size - value.size());
  }
  status_ = file_->Append(Slice(entry_buf_.data(), entry_buf_.size()));
  if (!status_.ok()) return status_;

  keys_.push_back(key);
  char bloom_buf[8];
  bloom_.AddKey(BloomKey(key, bloom_buf));
  offset_ += entry_buf_.size();
  return Status::OK();
}

Status TableBuilder::Finish() {
  if (!status_.ok()) return status_;
  if (finished_) return Status::InvalidArgument("builder already finished");
  finished_ = true;

  Stats* stats = options_.stats;
  Env* env = options_.env;

  // Train the learned index over the written keys (paper: the training
  // step added to every flush/compaction, measured as kCompactTrain).
  std::unique_ptr<LearnedIndex> index = CreateIndex(options_.index_type);
  {
    ScopedTimer timer(stats, Timer::kCompactTrain, env);
    status_ = index->Build(keys_.data(), keys_.size(), options_.index_config);
  }
  if (!status_.ok()) return status_;
  if (stats != nullptr) stats->Add(Counter::kModelsTrained);

  Footer footer;

  std::string bloom_block;
  bloom_.Finish(&bloom_block);
  status_ = WriteChecksummedBlock(file_.get(), offset_, bloom_block,
                                  &footer.bloom_handle);
  if (!status_.ok()) return status_;
  offset_ += footer.bloom_handle.size;

  // Serialize and write the model (kCompactWriteModel in Figure 9's
  // breakdown).
  {
    ScopedTimer timer(stats, Timer::kCompactWriteModel, env);
    std::string index_blob;
    EncodeIndexWithType(*index, &index_blob);
    status_ = WriteChecksummedBlock(file_.get(), offset_, index_blob,
                                    &footer.index_handle);
    if (!status_.ok()) return status_;
    offset_ += footer.index_handle.size;
  }

  MetaBlock meta;
  meta.key_size = options_.key_size;
  meta.value_size = options_.value_size;
  meta.count = keys_.size();
  meta.min_key = keys_.empty() ? 0 : keys_.front();
  meta.max_key = keys_.empty() ? 0 : keys_.back();
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

void TableBuilder::Abandon() {
  finished_ = true;
  if (file_ != nullptr) {
    file_->Close();
    file_.reset();
  }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Status TableReader::Open(const TableOptions& options,
                         const std::string& fname,
                         std::unique_ptr<TableReader>* reader) {
  if (options.env == nullptr) {
    return Status::InvalidArgument("TableOptions.env is required");
  }
  std::unique_ptr<TableReader> r(new TableReader(options));
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
  MetaBlock meta;
  Slice meta_input(meta_block);
  s = meta.DecodeFrom(&meta_input);
  if (!s.ok()) return s;

  // The builder writes the bloom block right after the data region, so
  // the geometry must account for exactly the bytes before it: a meta
  // block that passes its CRC but disagrees would send every read at the
  // wrong entries (or past the data region).
  const uint64_t entry_size = uint64_t{meta.key_size} + 8 + meta.value_size;
  if (meta.count > UINT64_MAX / entry_size ||
      meta.count * entry_size != footer.bloom_handle.offset) {
    return Status::Corruption(
        "segmented table: meta geometry does not match the data region");
  }
  r->key_size_ = meta.key_size;
  r->value_size_ = meta.value_size;
  r->entry_size_ = static_cast<uint32_t>(entry_size);
  r->count_ = meta.count;
  r->min_key_ = meta.min_key;
  r->max_key_ = meta.max_key;
  r->data_size_ = meta.count * entry_size;

  s = ReadChecksummedBlock(r->file_.get(), footer.bloom_handle,
                           &r->bloom_data_);
  if (!s.ok()) return s;

  std::string index_blob;
  s = ReadChecksummedBlock(r->file_.get(), footer.index_handle, &index_blob);
  if (!s.ok()) return s;
  Slice index_input(index_blob);
  s = DecodeIndexWithType(&index_input, &r->index_);
  if (!s.ok()) return s;
  if (r->index_->num_keys() != r->count_) {
    return Status::Corruption("segmented table: index/meta count mismatch");
  }

  *reader = std::move(r);
  return Status::OK();
}

bool TableReader::ProbeCachedSpan(Span* span, OpStats stats) {
  BlockCache* cache = options_.block_cache.get();
  const uint64_t block = options_.io_block_size;
  // Blocks are cached at their canonical length min(block, data_size_ -
  // offset) — byte_hi is either block-aligned or data_size_ itself, so any
  // span fetching a block covers all of it and entries never straddle a
  // cache boundary.
  const size_t num_blocks =
      static_cast<size_t>((span->byte_hi - span->byte_lo + block - 1) / block);
  const size_t carried = static_cast<size_t>(span->carried / block);
  span->block_hit.assign(num_blocks, false);
  std::fill_n(span->block_hit.begin(), carried, true);
  size_t hit_count = 0;
  for (size_t b = carried; b < num_blocks; b++) {
    BlockCache::BlockRef ref =
        cache->Lookup(options_.cache_file_number, span->byte_lo + b * block);
    if (ref == nullptr) continue;
    std::memcpy(span->buffer.data() + b * block, ref->data(), ref->size());
    span->block_hit[b] = true;
    hit_count++;
  }
  const size_t probed = num_blocks - carried;
  stats.Add(hit_count == probed ? Counter::kBlockCacheHits
                                : Counter::kBlockCacheMisses,
            probed);
  return hit_count == probed;
}

void TableReader::CacheColdBlocks(const Span& span, OpStats stats) {
  BlockCache* cache = options_.block_cache.get();
  const uint64_t block = options_.io_block_size;
  uint64_t evicted = 0;
  for (size_t b = 0; b < span.block_hit.size(); b++) {
    if (span.block_hit[b]) continue;
    const uint64_t offset = span.byte_lo + b * block;
    const size_t block_len =
        static_cast<size_t>(std::min<uint64_t>(block, span.byte_hi - offset));
    evicted += cache->Insert(options_.cache_file_number, offset,
                             span.buffer.data() + b * block, block_len);
  }
  if (evicted > 0) stats.Add(Counter::kBlockCacheEvictions, evicted);
}

TableReader::AlignedSpan TableReader::Align(size_t lo, size_t hi) const {
  const uint64_t block = options_.io_block_size;
  AlignedSpan span;
  span.byte_lo = uint64_t{lo} * entry_size_ / block * block;
  span.byte_hi = std::min<uint64_t>(
      data_size_, (uint64_t{hi + 1} * entry_size_ + block - 1) / block * block);
  span.first = static_cast<size_t>((span.byte_lo + entry_size_ - 1) /
                                   entry_size_);
  span.last = static_cast<size_t>(span.byte_hi / entry_size_) - 1;
  return span;
}

void TableReader::IssueSpan(Span* span, ReadBatch* batch, OpStats stats) {
  const size_t len = static_cast<size_t>(span->byte_hi - span->byte_lo);
  if (span->buffer.size() < len) span->buffer.resize(len);
  span->read_pending = options_.block_cache == nullptr ||
                     !ProbeCachedSpan(span, stats);
  if (!span->read_pending) return;  // fully warm: no Env read
  // result and status are left stale: every read assigns both.
  span->req.file = file_.get();
  span->req.offset = span->byte_lo + span->carried;
  span->req.n = len - static_cast<size_t>(span->carried);
  span->req.scratch = span->buffer.data() + span->carried;
  if (batch != nullptr) {
    batch->Add(&span->req);
    stats.Add(Counter::kAsyncReads);
    return;
  }
  // The disk-read timer wraps only this pread — a span served from memory
  // must not masquerade as device I/O in the stage breakdown.
  ScopedTimer timer(stats, Timer::kDiskRead, options_.env);
  span->req.status = file_->Read(span->req.offset, span->req.n,
                                 &span->req.result, span->req.scratch);
}

Status TableReader::CompleteSpan(Span* span, bool fill_cache, OpStats stats) {
  if (!span->read_pending) return Status::OK();
  span->read_pending = false;
  if (!span->req.status.ok()) return span->req.status;
  if (span->req.result.size() < span->req.n) {
    return Status::Corruption("segmented table: short data read");
  }
  if (span->req.result.data() != span->req.scratch) {
    std::memmove(span->req.scratch, span->req.result.data(), span->req.n);
  }
  if (options_.block_cache != nullptr && fill_cache) {
    CacheColdBlocks(*span, stats);
  }
  return Status::OK();
}

Status TableReader::ReadEntryKey(size_t pos, Key* key) {
  char buf[kMaxKeySize];  // Open rejects key_size_ > kMaxKeySize
  Slice contents;
  Status s = file_->Read(static_cast<uint64_t>(pos) * entry_size_, key_size_,
                         &contents, buf);
  if (!s.ok()) return s;
  if (contents.size() < 8) {
    return Status::Corruption("segmented table: short key read");
  }
  *key = DecodeUserKey(contents.data());
  return Status::OK();
}

Status TableReader::FindLowerBound(Key target, size_t* pos) {
  size_t lo = 0, hi = count_;  // first entry with key >= target in [lo, hi]
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    Key key = 0;
    Status s = ReadEntryKey(mid, &key);
    if (!s.ok()) return s;
    if (key < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *pos = lo;
  return Status::OK();
}

bool TableReader::MayContain(Key key, OpStats stats) {
  if (!stats) stats = options_.stats;
  ScopedTimer timer(stats, Timer::kBloomCheck, options_.env);
  char bloom_buf[8];
  BloomFilterReader bloom{Slice(bloom_data_)};
  if (!bloom.KeyMayMatch(BloomKey(key, bloom_buf))) {
    stats.Add(Counter::kBloomNegatives);
    return false;
  }
  return true;
}

void TableReader::EntryWindow(Key key, const size_t* bounds_lo,
                              const size_t* bounds_hi, size_t i, OpStats stats,
                              size_t* lo, size_t* hi) const {
  if (bounds_lo != nullptr) {
    *lo = bounds_lo[i];
    *hi = bounds_hi[i];
  } else {
    ScopedTimer timer(stats, Timer::kIndexPredict, options_.env);
    const PredictResult prediction = index_->Predict(key);
    *lo = prediction.lo;
    *hi = prediction.hi;
  }
  if (*hi >= count_) *hi = count_ - 1;
  if (*lo > *hi) *lo = *hi;
}

bool TableReader::SearchBuffer(const char* base, size_t first, size_t lo,
                               size_t hi, Key key, std::string* value,
                               uint64_t* tag) const {
  // Lower bound over the inclusive entry range [lo, hi].
  size_t l = lo, h = hi + 1;
  while (l < h) {
    const size_t mid = l + (h - l) / 2;
    if (EntryKeyInBuffer(base, first, mid) < key) {
      l = mid + 1;
    } else {
      h = mid;
    }
  }
  if (l > hi || EntryKeyInBuffer(base, first, l) != key) return false;
  const char* entry = base + (l - first) * entry_size_;
  *tag = DecodeFixed64(entry + key_size_);
  value->assign(entry + key_size_ + 8, value_size_);
  return true;
}

PendingMultiGet::Span& PendingMultiGet::NewSpan(
    const TableReader::AlignedSpan& window) {
  if (num_spans_ == spans_.size()) spans_.emplace_back();
  Span& span = spans_[num_spans_++];
  static_cast<TableReader::AlignedSpan&>(span) = window;
  span.read_pending = false;
  return span;
}

Status TableReader::PrepareMultiGet(std::span<const Key> keys,
                                    const size_t* bounds_lo,
                                    const size_t* bounds_hi, ReadBatch* batch,
                                    PendingMultiGet* pending, OpStats stats,
                                    bool fill_cache) {
  if (!stats) stats = options_.stats;
  PendingMultiGet& p = *pending;
  p.keys_ = keys;
  p.plans_.assign(keys.size(), PendingMultiGet::KeyPlan());
  p.num_spans_ = 0;
  p.fill_cache_ = fill_cache;
  // Inline only: the key range of the last fetched span.
  Key span_first_key = 0, span_last_key = 0;

  // Screen and bound every key, turning each window into an aligned byte
  // span. Keys arrive ascending, so model predictions are (nearly)
  // monotone and consecutive windows land in the same span.
  for (size_t i = 0; i < keys.size(); i++) {
    const Key key = keys[i];
    if (count_ == 0 || key < min_key_ || key > max_key_) continue;
    PendingMultiGet::KeyPlan& plan = p.plans_[i];

    // Inline: a key inside the last fetched span's key range is answered
    // exactly from it — the span holds every entry between its first and
    // last key, so absence there is absence from the table.
    if (batch == nullptr && p.num_spans_ > 0 && key >= span_first_key &&
        key <= span_last_key) {
      const Span& span = p.spans_[p.num_spans_ - 1];
      plan.span = static_cast<int>(p.num_spans_ - 1);
      plan.lo = span.first;
      plan.hi = span.last;
      continue;
    }

    if (!MayContain(key, stats)) continue;
    EntryWindow(key, bounds_lo, bounds_hi, i, stats, &plan.lo, &plan.hi);
    plan.probed = true;
    const AlignedSpan window = Align(plan.lo, plan.hi);
    if (batch != nullptr && p.num_spans_ > 0 &&
        window.byte_lo <= p.spans_[p.num_spans_ - 1].byte_hi &&
        window.byte_lo >= p.spans_[p.num_spans_ - 1].byte_lo) {
      // Overlaps or abuts the previous span: extend it forward.
      Span& prev = p.spans_[p.num_spans_ - 1];
      if (window.byte_hi > prev.byte_hi) {
        prev.byte_hi = window.byte_hi;
        prev.last = window.last;
      }
      plan.span = static_cast<int>(p.num_spans_ - 1);
      continue;
    }
    Span& span = p.NewSpan(window);
    plan.span = static_cast<int>(p.num_spans_ - 1);
    if (batch != nullptr) continue;

    IssueSpan(&span, nullptr, stats);
    Status s = CompleteSpan(&span, fill_cache, stats);
    if (!s.ok()) return s;
    const char* base = SpanEntries(span);
    span_first_key = EntryKeyInBuffer(base, span.first, span.first);
    span_last_key = EntryKeyInBuffer(base, span.first, span.last);
  }

  // Batched: issue every span on the caller's batch. The span list is
  // final here, so the registered request pointers stay stable.
  if (batch != nullptr) {
    for (size_t k = 0; k < p.num_spans_; k++) {
      IssueSpan(&p.spans_[k], batch, stats);
    }
  }
  return Status::OK();
}

Status TableReader::FinishMultiGet(PendingMultiGet* pending,
                                   std::string* values, uint64_t* tags,
                                   bool* founds, OpStats stats) {
  if (!stats) stats = options_.stats;
  Env* env = options_.env;

  // Complete the batch's reads under the Prepare call's fill_cache (an
  // inline plan's spans are complete already).
  for (size_t k = 0; k < pending->num_spans_; k++) {
    stats.Add(Counter::kSegmentsFetched);
    Status s =
        CompleteSpan(&pending->spans_[k], pending->fill_cache_, stats);
    if (!s.ok()) return s;
  }

  for (size_t i = 0; i < pending->keys_.size(); i++) {
    founds[i] = false;
    const PendingMultiGet::KeyPlan& plan = pending->plans_[i];
    if (plan.span < 0) continue;
    const Span& span = pending->spans_[plan.span];
    {
      ScopedTimer timer(stats, Timer::kBinarySearch, env);
      founds[i] = SearchBuffer(SpanEntries(span), span.first, plan.lo,
                               plan.hi, pending->keys_[i], &values[i],
                               &tags[i]);
    }
    if (plan.probed) {
      stats.Add(founds[i] ? Counter::kBloomTruePositive
                          : Counter::kBloomFalsePositive);
    }
  }

  return Status::OK();
}

Status TableReader::RetrainIndex(IndexType type, const IndexConfig& config) {
  std::vector<Key> keys;
  Status s = ReadAllKeys(&keys);
  if (!s.ok()) return s;
  std::unique_ptr<LearnedIndex> index = CreateIndex(type);
  {
    ScopedTimer timer(options_.stats, Timer::kCompactTrain, options_.env);
    s = index->Build(keys.data(), keys.size(), config);
  }
  if (!s.ok()) return s;
  index_ = std::move(index);
  return Status::OK();
}

bool TableReader::ExportIndexSegments(std::vector<LinearSegment>* out,
                                      uint32_t* epsilon) {
  // The in-memory index is trained over exactly the table's entry array
  // (Open verifies num_keys == count_), so its leaf segments predict
  // file-local entry positions — the stitch contract.
  return index_->ExportSegments(out, epsilon);
}

Status TableReader::ReadAllKeys(std::vector<Key>* keys) {
  keys->clear();
  keys->reserve(count_);
  // Scan the data region in large sequential chunks.
  const size_t chunk_entries =
      std::max<size_t>(1, (1u << 20) / entry_size_);
  std::string scratch(chunk_entries * entry_size_, '\0');
  for (size_t start = 0; start < count_; start += chunk_entries) {
    const size_t n = std::min(chunk_entries, count_ - start);
    Slice contents;
    Status s = file_->Read(static_cast<uint64_t>(start) * entry_size_,
                           n * entry_size_, &contents, scratch.data());
    if (!s.ok()) return s;
    if (contents.size() < n * entry_size_) {
      return Status::Corruption("segmented table: short scan read");
    }
    for (size_t i = 0; i < n; i++) {
      keys->push_back(DecodeUserKey(contents.data() + i * entry_size_));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

/// Streams entries block by block: Seek uses the learned index like a point
/// lookup, then Next() advances inside the fetched window and reads on when
/// the cursor leaves it (the paper's range-lookup phase 2). That read sizes
/// itself: one io block after a Seek, doubling with each later read up to
/// kMaxScanReadBlocks, so a short range reads little while a long scan or a
/// compaction input streams in 64 KiB reads. The window's last io block
/// holds the start of the entry straddling its end; it is carried into the
/// next window, not read again.
class TableReader::Iterator final : public TableIterator {
 public:
  Iterator(TableReader* reader, bool fill_cache)
      : reader_(reader), fill_cache_(fill_cache) {
    window_.first = 1;  // holds no entry until the first read
  }

  ~Iterator() override { SettleReadahead(); }

  bool Valid() const override {
    return status_.ok() && pos_ < reader_->count_;
  }

  void SeekToFirst() override {
    SettleReadahead();
    read_blocks_ = 1;
    pos_ = 0;
    EnsureBuffered();
  }

  void Seek(Key target) override {
    SettleReadahead();
    read_blocks_ = 1;
    if (reader_->count_ == 0) {
      pos_ = 0;
      return;
    }
    if (target <= reader_->min_key_) {
      SeekToFirst();
      return;
    }
    if (target > reader_->max_key_) {
      pos_ = reader_->count_;
      return;
    }

    size_t win_lo = 0, win_hi = 0;  // clamped: indexes the fetched buffer
    reader_->EntryWindow(target, nullptr, nullptr, 0, SampledStats(), &win_lo,
                         &win_hi);
    if (!ReadWindow(reader_->Align(win_lo, win_hi), 0)) return;
    const size_t first = window_.first;
    const Key range_first = reader_->EntryKeyInBuffer(base_, first, win_lo);
    const Key range_last = reader_->EntryKeyInBuffer(base_, first, win_hi);
    if ((target < range_first && win_lo != 0) ||
        (target > range_last && win_hi != reader_->count_ - 1)) {
      // The model window does not bracket this (absent) target; fall back
      // to an exact binary search over the file.
      status_ = reader_->FindLowerBound(target, &pos_);
      if (!status_.ok()) return;
    } else if (target > range_last) {
      pos_ = win_hi + 1;  // just past the window (win_hi == count_ - 1)
    } else {
      // Lower bound within [win_lo, win_hi].
      size_t lo = win_lo, hi = win_hi + 1;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (reader_->EntryKeyInBuffer(base_, first, mid) < target) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      pos_ = lo;
    }
    EnsureBuffered();
  }

  void Next() override {
    assert(Valid());
    pos_++;
    EnsureBuffered();
  }

  Key key() const override {
    assert(Valid());
    return DecodeUserKey(EntryPtr());
  }

  uint64_t tag() const override {
    assert(Valid());
    return DecodeFixed64(EntryPtr() + reader_->key_size_);
  }

  Slice value() const override {
    assert(Valid());
    return Slice(EntryPtr() + reader_->key_size_ + 8, reader_->value_size_);
  }

  Status status() const override { return status_; }

 private:
  const char* EntryPtr() const {
    return base_ + (pos_ - window_.first) * reader_->entry_size_;
  }

  /// The table's stats sink for one Seek or window read. A scan Seeks
  /// every table child and reads windows as it goes, so these timers are
  /// sampled like a Get's stages: every count stays exact, one call in
  /// kTimerSampleRate reads the clock.
  OpStats SampledStats() const {
    Stats* stats = reader_->options_.stats;
    return stats != nullptr ? stats->SampleOp() : OpStats();
  }

  /// Reads `span`, whose first `carried` bytes are already at the front of
  /// the window's buffer, into the window with one inline span read. Its
  /// cache probes count on the table's stats sink, but an uncached table's
  /// preads stay out of its kDiskRead timer, which belongs to point
  /// lookups.
  bool ReadWindow(const AlignedSpan& span, uint64_t carried) {
    static_cast<AlignedSpan&>(window_) = span;
    window_.carried = carried;
    const OpStats stats = reader_->options_.block_cache != nullptr
                              ? SampledStats()
                              : OpStats();
    reader_->IssueSpan(&window_, nullptr, stats);
    status_ = reader_->CompleteSpan(&window_, fill_cache_, stats);
    base_ = reader_->SpanEntries(window_);
    return status_.ok();
  }

  /// Makes the window hold pos_: carries the old window's blocks from the
  /// one holding pos_'s start, then reads read_blocks_ io blocks after
  /// them (more if the entry needs it) and doubles read_blocks_.
  void EnsureBuffered() {
    if (!status_.ok() || pos_ >= reader_->count_ ||
        (pos_ >= window_.first && pos_ <= window_.last)) {
      return;
    }
    SettleReadahead();
    AlignedSpan span = reader_->Align(pos_, pos_);
    uint64_t carried = 0;
    if (span.byte_lo >= window_.byte_lo && span.byte_lo < window_.byte_hi) {
      carried = window_.byte_hi - span.byte_lo;
      std::memmove(window_.buffer.data(),
                   window_.buffer.data() + (span.byte_lo - window_.byte_lo),
                   carried);
    }
    const uint64_t byte_hi =
        std::min(reader_->data_size_,
                 span.byte_lo + carried +
                     read_blocks_ * reader_->options_.io_block_size);
    if (byte_hi > span.byte_hi) {
      span.byte_hi = byte_hi;
      span.last = static_cast<size_t>(byte_hi / reader_->entry_size_) - 1;
    }
    read_blocks_ = std::min(read_blocks_ * 2, kMaxScanReadBlocks);
    ahead_window_ = ReadWindow(span, carried);
  }

  /// Counts the io blocks a window read fetched up to the one holding the
  /// cursor's entry as kReadaheadHits and the rest, which the cursor never
  /// reached, as kReadaheadWasted. Runs before the cursor leaves the
  /// window.
  void SettleReadahead() {
    if (!ahead_window_) return;
    ahead_window_ = false;
    Stats* stats = reader_->options_.stats;
    if (stats == nullptr) return;
    const uint64_t block = reader_->options_.io_block_size;
    const uint64_t read_lo = window_.byte_lo + window_.carried;
    const uint64_t reached = std::min(
        window_.byte_hi, uint64_t{pos_ + 1} * reader_->entry_size_);
    const uint64_t hits = (reached - read_lo + block - 1) / block;
    const uint64_t blocks = (window_.byte_hi - read_lo + block - 1) / block;
    stats->Add(Counter::kReadaheadHits, hits);
    if (blocks > hits) stats->Add(Counter::kReadaheadWasted, blocks - hits);
  }

  TableReader* const reader_;
  const bool fill_cache_;
  Status status_;
  Span window_;                 // the buffered entries
  const char* base_ = nullptr;  // window_'s entry window_.first
  bool ahead_window_ = false;   // window_ is a window read, not settled
  size_t read_blocks_ = 1;      // io blocks the next window read fetches
  size_t pos_ = 0;
};

std::unique_ptr<TableIterator> TableReader::NewIterator(bool fill_cache) {
  return std::make_unique<Iterator>(this, fill_cache);
}

}  // namespace lilsm
