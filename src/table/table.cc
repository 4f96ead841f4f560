#include "table/table.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

#include "table/segment_sidecar.h"

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

  // Model sidecar: the index's leaf segments in the ModelCatalog's stitch
  // format, so a restart rebuilds level models from two preads per file
  // instead of a reader open or a key scan. Index types that cannot
  // export segments write none (zero handle).
  {
    SegmentSidecar sidecar;
    sidecar.index_type = options_.index_type;
    sidecar.entries = keys_.size();
    if (index->ExportSegments(&sidecar.segments, &sidecar.epsilon)) {
      std::string sidecar_block;
      EncodeSegmentSidecar(sidecar, &sidecar_block);
      status_ = WriteChecksummedBlock(file_.get(), offset_, sidecar_block,
                                      &footer.segments_handle);
      if (!status_.ok()) return status_;
      offset_ += footer.segments_handle.size;
    }
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

bool TableReader::ProbeCachedSpan(uint64_t byte_lo, uint64_t byte_hi,
                                  char* dst, std::vector<bool>* block_hit,
                                  OpStats stats) {
  BlockCache* cache = options_.block_cache.get();
  const uint64_t block = options_.io_block_size;
  // Blocks are cached at their canonical length min(block, data_size_ -
  // offset) — byte_hi is either block-aligned or data_size_ itself, so any
  // span fetching a block covers all of it and entries never straddle a
  // cache boundary.
  const size_t num_blocks =
      static_cast<size_t>((byte_hi - byte_lo + block - 1) / block);
  block_hit->assign(num_blocks, false);
  size_t hit_count = 0;
  for (size_t b = 0; b < num_blocks; b++) {
    BlockCache::BlockRef ref =
        cache->Lookup(options_.cache_file_number, byte_lo + b * block);
    if (ref == nullptr) continue;
    std::memcpy(dst + b * block, ref->data(), ref->size());
    (*block_hit)[b] = true;
    hit_count++;
  }
  stats.Add(hit_count == num_blocks ? Counter::kBlockCacheHits
                                    : Counter::kBlockCacheMisses,
            num_blocks);
  return hit_count == num_blocks;
}

void TableReader::CacheColdBlocks(uint64_t byte_lo, uint64_t byte_hi,
                                  const char* src,
                                  const std::vector<bool>& block_hit,
                                  OpStats stats) {
  BlockCache* cache = options_.block_cache.get();
  const uint64_t block = options_.io_block_size;
  uint64_t evicted = 0;
  for (size_t b = 0; b < block_hit.size(); b++) {
    if (block_hit[b]) continue;
    const uint64_t offset = byte_lo + b * block;
    const size_t block_len =
        static_cast<size_t>(std::min<uint64_t>(block, byte_hi - offset));
    evicted += cache->Insert(options_.cache_file_number, offset,
                             src + b * block, block_len);
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

Status TableReader::FetchAlignedCached(uint64_t byte_lo, uint64_t byte_hi,
                                       char* dst, OpStats stats,
                                       bool fill_cache) {
  const bool cached = options_.block_cache != nullptr;
  // thread_local to amortize the allocation across fetches.
  thread_local std::vector<bool> block_hit;
  if (cached && ProbeCachedSpan(byte_lo, byte_hi, dst, &block_hit, stats)) {
    return Status::OK();
  }

  // Uncached, or at least one block is cold: fetch the whole span with one
  // aligned pread, then cache the cold blocks. The disk-read timer wraps
  // only this pread — a span served from memory must not masquerade as
  // device I/O in the stage breakdown.
  const size_t len = static_cast<size_t>(byte_hi - byte_lo);
  Slice contents;
  Status s;
  {
    ScopedTimer timer(stats, Timer::kDiskRead, options_.env);
    s = file_->Read(byte_lo, len, &contents, dst);
  }
  if (!s.ok()) return s;
  if (contents.size() < len) {
    return Status::Corruption("segmented table: short data read");
  }
  if (contents.data() != dst) std::memmove(dst, contents.data(), len);
  if (cached && fill_cache) {
    CacheColdBlocks(byte_lo, byte_hi, dst, block_hit, stats);
  }
  return Status::OK();
}

Status TableReader::ReadEntryRange(size_t lo, size_t hi, std::string* scratch,
                                   const char** base, size_t* first,
                                   size_t* last, bool fill_cache) {
  assert(lo <= hi && hi < count_);
  const AlignedSpan span = Align(lo, hi);
  const size_t len = static_cast<size_t>(span.byte_hi - span.byte_lo);
  if (scratch->size() < len) scratch->resize(len);
  // Iterator reads (scans, compaction inputs) count their block-cache
  // probes on the table's sink, but an uncached table's preads stay out
  // of its kDiskRead timer, which belongs to point lookups.
  Status s = FetchAlignedCached(
      span.byte_lo, span.byte_hi, scratch->data(),
      options_.block_cache != nullptr ? options_.stats : OpStats(),
      fill_cache);
  if (!s.ok()) return s;
  *base = scratch->data() + EntryOffset(span.byte_lo, span.first);
  *first = span.first;
  *last = span.last;
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

PendingMultiGet::Span& PendingMultiGet::NewSpan(uint64_t byte_lo,
                                                uint64_t byte_hi,
                                                size_t first) {
  if (num_spans_ == spans_.size()) spans_.emplace_back();
  Span& span = spans_[num_spans_++];
  span.byte_lo = byte_lo;
  span.byte_hi = byte_hi;
  span.first = first;
  span.needs_read = false;
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
  // Inline only: the last fetched span's entries and their key range.
  AlignedSpan span_entries;
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
      plan.span = static_cast<int>(p.num_spans_ - 1);
      plan.lo = span_entries.first;
      plan.hi = span_entries.last;
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
      PendingMultiGet::Span& prev = p.spans_[p.num_spans_ - 1];
      if (window.byte_hi > prev.byte_hi) prev.byte_hi = window.byte_hi;
      plan.span = static_cast<int>(p.num_spans_ - 1);
      continue;
    }
    PendingMultiGet::Span& span =
        p.NewSpan(window.byte_lo, window.byte_hi, window.first);
    plan.span = static_cast<int>(p.num_spans_ - 1);
    if (batch != nullptr) continue;

    const size_t len = static_cast<size_t>(window.byte_hi - window.byte_lo);
    if (span.buffer.size() < len) span.buffer.resize(len);
    Status s = FetchAlignedCached(window.byte_lo, window.byte_hi,
                                  span.buffer.data(), stats, fill_cache);
    if (!s.ok()) return s;
    const char* base =
        span.buffer.data() + EntryOffset(window.byte_lo, window.first);
    span_entries = window;
    span_first_key = EntryKeyInBuffer(base, window.first, window.first);
    span_last_key = EntryKeyInBuffer(base, window.first, window.last);
  }
  if (batch == nullptr) return Status::OK();

  // Batched: for each span, serve what the block cache holds; anything
  // colder becomes one ReadRequest on the caller's batch. The span list
  // is final here, so the registered request pointers stay stable.
  for (size_t k = 0; k < p.num_spans_; k++) {
    PendingMultiGet::Span& span = p.spans_[k];
    const size_t len = static_cast<size_t>(span.byte_hi - span.byte_lo);
    if (span.buffer.size() < len) span.buffer.resize(len);
    if (options_.block_cache != nullptr &&
        ProbeCachedSpan(span.byte_lo, span.byte_hi, span.buffer.data(),
                        &span.block_hit, stats)) {
      continue;  // fully warm: this span never touches the Env
    }
    span.needs_read = true;
    span.req = ReadRequest();
    span.req.file = file_.get();
    span.req.offset = span.byte_lo;
    span.req.n = len;
    span.req.scratch = span.buffer.data();
    batch->Add(&span.req);
    stats.Add(Counter::kAsyncReads);
  }
  return Status::OK();
}

Status TableReader::FinishMultiGet(PendingMultiGet* pending,
                                   std::string* values, uint64_t* tags,
                                   bool* founds, OpStats stats) {
  if (!stats) stats = options_.stats;
  Env* env = options_.env;

  // Check the reaped reads and insert the cold blocks under the Prepare
  // call's fill_cache, as an inline fetch does.
  for (size_t k = 0; k < pending->num_spans_; k++) {
    PendingMultiGet::Span& span = pending->spans_[k];
    stats.Add(Counter::kSegmentsFetched);
    if (!span.needs_read) continue;
    if (!span.req.status.ok()) return span.req.status;
    const size_t len = static_cast<size_t>(span.byte_hi - span.byte_lo);
    if (span.req.result.size() < len) {
      return Status::Corruption("segmented table: short data read");
    }
    if (span.req.result.data() != span.buffer.data()) {
      std::memmove(span.buffer.data(), span.req.result.data(), len);
    }
    if (options_.block_cache != nullptr && pending->fill_cache_) {
      CacheColdBlocks(span.byte_lo, span.byte_hi, span.buffer.data(),
                      span.block_hit, stats);
    }
  }

  for (size_t i = 0; i < pending->keys_.size(); i++) {
    founds[i] = false;
    const PendingMultiGet::KeyPlan& plan = pending->plans_[i];
    if (plan.span < 0) continue;
    const PendingMultiGet::Span& span = pending->spans_[plan.span];
    const char* base =
        span.buffer.data() + EntryOffset(span.byte_lo, span.first);
    {
      ScopedTimer timer(stats, Timer::kBinarySearch, env);
      founds[i] = SearchBuffer(base, span.first, plan.lo, plan.hi,
                               pending->keys_[i], &values[i], &tags[i]);
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
/// lookup, then Next() advances inside the fetched block and fetches the
/// following I/O block when exhausted (the paper's range-lookup phase 2).
/// With readahead_blocks > 0, every window load also submits the next K io
/// blocks past the cursor through Env::NewReadBatch; subsequent windows
/// assemble from those completed prefetches instead of blocking reads.
class TableReader::Iterator final : public TableIterator {
 public:
  Iterator(TableReader* reader, bool fill_cache, size_t readahead_blocks)
      : reader_(reader),
        fill_cache_(fill_cache),
        readahead_blocks_(readahead_blocks) {
    if (readahead_blocks_ > 0) {
      batch_ = reader_->options_.env->NewReadBatch(
          static_cast<int>(readahead_blocks_));
    }
  }

  ~Iterator() override {
    // Outstanding requests reference the inflight buffers: reap before
    // dropping them. Anything fetched but never served was wasted
    // readahead.
    if (batch_ != nullptr && !inflight_.empty()) {
      batch_->Wait();
    }
    uint64_t wasted = inflight_.size();
    for (const auto& [offset, rb] : ready_) {
      if (!rb.used) wasted++;
    }
    Stats* stats = reader_->options_.stats;
    if (stats != nullptr && wasted > 0) {
      stats->Add(Counter::kReadaheadWasted, wasted);
    }
  }

  bool Valid() const override {
    return status_.ok() && pos_ < reader_->count_;
  }

  void SeekToFirst() override {
    pos_ = 0;
    EnsureBuffered();
  }

  void Seek(Key target) override {
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
    reader_->EntryWindow(target, nullptr, nullptr, 0, reader_->options_.stats,
                         &win_lo, &win_hi);
    const char* base = nullptr;
    size_t first = 0, last = 0;
    status_ = reader_->ReadEntryRange(win_lo, win_hi, &buffer_, &base, &first,
                                      &last, fill_cache_);
    if (!status_.ok()) return;
    buf_base_offset_ = static_cast<size_t>(base - buffer_.data());
    buf_first_ = first;
    buf_last_ = last;

    const Key range_first = reader_->EntryKeyInBuffer(base, first, win_lo);
    const Key range_last = reader_->EntryKeyInBuffer(base, first, win_hi);
    if ((target < range_first && win_lo != 0) ||
        (target > range_last && win_hi != reader_->count_ - 1)) {
      // The model window does not bracket this (absent) target; fall back
      // to an exact binary search over the file.
      size_t pos = 0;
      status_ = reader_->FindLowerBound(target, &pos);
      if (!status_.ok()) return;
      pos_ = pos;
      EnsureBuffered();
      return;
    }

    // Lower bound within [lo, hi].
    size_t lo = win_lo, hi = win_hi + 1;
    if (target > range_last) {
      lo = hi;  // insertion point just past the window (hi == count_ - 1)
    } else {
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (reader_->EntryKeyInBuffer(base, first, mid) < target) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
    }
    pos_ = lo;
    EnsureBuffered();
    MaybeIssueReadahead();
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
    return buffer_.data() + buf_base_offset_ +
           (pos_ - buf_first_) * reader_->entry_size_;
  }

  /// Fetches the I/O block containing pos_ if it is not already buffered:
  /// from completed prefetches when the whole window is ready, else with
  /// the usual synchronous ReadEntryRange. Either way the next readahead
  /// round is submitted afterwards.
  void EnsureBuffered() {
    if (!status_.ok() || pos_ >= reader_->count_) return;
    if (buf_last_ >= buf_first_ && pos_ >= buf_first_ && pos_ <= buf_last_ &&
        buf_last_ != kInvalid) {
      return;
    }
    if (readahead_blocks_ > 0) {
      Reap();
      if (ServeFromPrefetch()) {
        MaybeIssueReadahead();
        return;
      }
    }
    const char* base = nullptr;
    size_t first = 0, last = 0;
    status_ = reader_->ReadEntryRange(pos_, pos_, &buffer_, &base, &first,
                                      &last, fill_cache_);
    if (!status_.ok()) return;
    buf_base_offset_ = static_cast<size_t>(base - buffer_.data());
    buf_first_ = first;
    buf_last_ = last;
    MaybeIssueReadahead();
  }

  /// Blocks on the outstanding prefetch batch and moves completed blocks
  /// into the ready map (and the block cache, under fill_cache). Failed
  /// prefetches are dropped: readahead is advisory, the demand read will
  /// retry synchronously and surface the error.
  void Reap() {
    if (inflight_.empty()) return;
    Stats* stats = reader_->options_.stats;
    {
      ScopedTimer timer(stats, Timer::kAsyncReap, reader_->options_.env);
      batch_->Wait();
    }
    if (stats != nullptr) stats->Add(Counter::kAsyncBatches);
    BlockCache* cache = reader_->options_.block_cache.get();
    uint64_t evicted = 0;
    for (std::unique_ptr<PrefetchBlock>& pb : inflight_) {
      if (!pb->req.status.ok() || pb->req.result.size() < pb->buf.size()) {
        continue;
      }
      if (pb->req.result.data() != pb->buf.data()) {
        std::memmove(pb->buf.data(), pb->req.result.data(), pb->buf.size());
      }
      if (cache != nullptr && fill_cache_) {
        evicted += cache->Insert(reader_->options_.cache_file_number,
                                 pb->offset, pb->buf);
      }
      ready_[pb->offset] = ReadyBlock{std::move(pb->buf), false};
    }
    if (stats != nullptr && evicted > 0) {
      stats->Add(Counter::kBlockCacheEvictions, evicted);
    }
    inflight_.clear();
  }

  /// Assembles the window covering pos_ from ready prefetched blocks.
  /// False when any constituent block is missing (the caller falls back
  /// to a synchronous read). Blocks fully behind the new window are
  /// pruned, counting never-served ones as wasted readahead.
  bool ServeFromPrefetch() {
    const uint64_t block = reader_->options_.io_block_size;
    const AlignedSpan span = reader_->Align(pos_, pos_);
    const uint64_t byte_lo = span.byte_lo;
    const size_t num_blocks =
        static_cast<size_t>((span.byte_hi - byte_lo + block - 1) / block);
    for (size_t b = 0; b < num_blocks; b++) {
      if (ready_.find(byte_lo + b * block) == ready_.end()) return false;
    }
    const size_t len = static_cast<size_t>(span.byte_hi - byte_lo);
    if (buffer_.size() < len) buffer_.resize(len);
    Stats* stats = reader_->options_.stats;
    uint64_t hits = 0;
    for (size_t b = 0; b < num_blocks; b++) {
      ReadyBlock& rb = ready_[byte_lo + b * block];
      std::memcpy(buffer_.data() + b * block, rb.buf.data(), rb.buf.size());
      if (!rb.used) {
        rb.used = true;
        hits++;
      }
    }
    if (stats != nullptr && hits > 0) {
      stats->Add(Counter::kReadaheadHits, hits);
    }
    buf_base_offset_ = reader_->EntryOffset(byte_lo, span.first);
    buf_first_ = span.first;
    buf_last_ = span.last;
    // Prune blocks the forward scan can no longer use.
    uint64_t wasted = 0;
    for (auto it = ready_.begin(); it != ready_.end();) {
      if (it->first + block <= byte_lo) {
        if (!it->second.used) wasted++;
        it = ready_.erase(it);
      } else {
        ++it;
      }
    }
    if (stats != nullptr && wasted > 0) {
      stats->Add(Counter::kReadaheadWasted, wasted);
    }
    return true;
  }

  /// Submits up to readahead_blocks_ io blocks past the buffered window.
  /// The first candidate is the block holding entry buf_last_+1 — on a
  /// straddling entry that is the tail block of the current window, which
  /// the next window needs again.
  void MaybeIssueReadahead() {
    if (readahead_blocks_ == 0 || !status_.ok()) return;
    if (buf_last_ == kInvalid || buf_last_ + 1 >= reader_->count_) return;
    const uint64_t block = reader_->options_.io_block_size;
    uint64_t next = reader_->Align(buf_last_ + 1, buf_last_ + 1).byte_lo;
    Stats* stats = reader_->options_.stats;
    uint64_t submitted = 0;
    for (size_t k = 0; k < readahead_blocks_ && next < reader_->data_size_;
         k++, next += block) {
      if (ready_.find(next) != ready_.end()) continue;
      bool in_flight = false;
      for (const std::unique_ptr<PrefetchBlock>& pb : inflight_) {
        if (pb->offset == next) {
          in_flight = true;
          break;
        }
      }
      if (in_flight) continue;
      auto pb = std::make_unique<PrefetchBlock>();
      pb->offset = next;
      pb->buf.resize(static_cast<size_t>(
          std::min<uint64_t>(block, reader_->data_size_ - next)));
      pb->req.file = reader_->file_.get();
      pb->req.offset = next;
      pb->req.n = pb->buf.size();
      pb->req.scratch = pb->buf.data();
      batch_->Add(&pb->req);
      inflight_.push_back(std::move(pb));
      submitted++;
    }
    if (stats != nullptr && submitted > 0) {
      stats->Add(Counter::kAsyncReads, submitted);
    }
  }

  static constexpr size_t kInvalid = static_cast<size_t>(-1);

  struct PrefetchBlock {
    uint64_t offset = 0;
    std::string buf;
    ReadRequest req;
  };
  struct ReadyBlock {
    std::string buf;
    bool used = false;  // served into at least one window
  };

  TableReader* const reader_;
  const bool fill_cache_;
  const size_t readahead_blocks_;
  std::unique_ptr<ReadBatch> batch_;
  std::vector<std::unique_ptr<PrefetchBlock>> inflight_;
  std::map<uint64_t, ReadyBlock> ready_;
  Status status_;
  std::string buffer_;
  size_t buf_base_offset_ = 0;
  size_t buf_first_ = 1;
  size_t buf_last_ = kInvalid;  // kInvalid => nothing buffered
  size_t pos_ = 0;
};

std::unique_ptr<TableIterator> TableReader::NewIterator(
    bool fill_cache, size_t readahead_blocks) {
  return std::make_unique<Iterator>(this, fill_cache, readahead_blocks);
}

}  // namespace lilsm
