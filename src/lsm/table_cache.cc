#include "lsm/table_cache.h"

namespace lilsm {

TableCache::TableCache(const TableOptions& options, std::string dbname,
                       size_t capacity)
    : block_cache_(options.block_cache),
      dbname_(std::move(dbname)),
      capacity_(capacity == 0 ? 1 : capacity),
      options_(options) {}

Status TableCache::GetReader(uint64_t file_number,
                             std::shared_ptr<TableReader>* reader) {
  TableOptions open_options;
  {
    MutexLock lock(&mu_);
    auto it = map_.find(file_number);
    if (it != map_.end()) {
      // Touch — skipped when already freshest, which keeps the hot-file
      // fast path read-mostly under concurrent lookups.
      if (it->second != lru_.begin()) {
        lru_.splice(lru_.begin(), lru_, it->second);
      }
      *reader = it->second->reader;
      return Status::OK();
    }
    // Snapshot the options under mu_ (SetIndexOptions mutates them) and
    // stamp the file number so the shared block cache keys this file's
    // blocks into their own namespace.
    open_options = options_;
    open_options.cache_file_number = file_number;
  }

  // Open outside the lock: misses do disk I/O and must not serialize the
  // concurrent readers that hit the cache.
  std::unique_ptr<TableReader> opened;
  Status s = TableReader::Open(open_options,
                               TableFileName(dbname_, file_number), &opened);
  if (!s.ok()) return s;

  MutexLock lock(&mu_);
  auto it = map_.find(file_number);
  if (it != map_.end()) {
    // Another thread won the race to open this table; keep its reader.
    lru_.splice(lru_.begin(), lru_, it->second);
    *reader = it->second->reader;
    return Status::OK();
  }

  lru_.push_front(Entry{file_number, std::shared_ptr<TableReader>(
                                          opened.release())});
  map_[file_number] = lru_.begin();
  *reader = lru_.front().reader;

  while (map_.size() > capacity_) {
    map_.erase(lru_.back().file_number);
    lru_.pop_back();
  }
  return Status::OK();
}

void TableCache::Evict(uint64_t file_number) {
  // A file is evicted because it was deleted (compaction GC): its cached
  // blocks can never be read again, so reclaim their budget now. This is
  // best-effort memory hygiene, not correctness: file numbers are never
  // reused, and a lookup already in flight on a previously handed-out
  // reader may re-insert a few of the dead file's blocks after this
  // purge — they simply age out of the LRU like any other cold entry.
  if (block_cache_ != nullptr) {
    block_cache_->EraseFile(file_number);
  }
  MutexLock lock(&mu_);
  auto it = map_.find(file_number);
  if (it == map_.end()) return;
  lru_.erase(it->second);
  map_.erase(it);
}

void TableCache::EvictBatch(const std::vector<uint64_t>& file_numbers) {
  if (file_numbers.empty()) return;
  if (block_cache_ != nullptr) {
    block_cache_->EraseFiles(file_numbers);
  }
  MutexLock lock(&mu_);
  for (uint64_t file_number : file_numbers) {
    auto it = map_.find(file_number);
    if (it == map_.end()) continue;
    lru_.erase(it->second);
    map_.erase(it);
  }
}

void TableCache::Clear() {
  if (block_cache_ != nullptr) {
    block_cache_->Clear();
  }
  MutexLock lock(&mu_);
  lru_.clear();
  map_.clear();
}

size_t TableCache::TotalIndexMemory() const {
  MutexLock lock(&mu_);
  size_t total = 0;
  for (const Entry& entry : lru_) {
    total += entry.reader->IndexMemoryUsage();
  }
  return total;
}

size_t TableCache::TotalFilterMemory() const {
  MutexLock lock(&mu_);
  size_t total = 0;
  for (const Entry& entry : lru_) {
    total += entry.reader->FilterMemoryUsage();
  }
  return total;
}

}  // namespace lilsm
