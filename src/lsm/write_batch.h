// WriteBatch: an atomically applied group of updates, serialized as the
// WAL record payload: sequence (8B) | count (4B) | records.
#ifndef LILSM_LSM_WRITE_BATCH_H_
#define LILSM_LSM_WRITE_BATCH_H_

#include <string>

#include "lsm/dbformat.h"
#include "util/slice.h"
#include "util/status.h"

namespace lilsm {

class MemTable;

class WriteBatch {
 public:
  WriteBatch();

  void Put(Key key, const Slice& value);
  void Delete(Key key);
  void Clear();

  uint32_t Count() const;
  size_t ApproximateSize() const { return rep_.size(); }

  /// Applies every record to `mem` with sequences starting at `sequence`.
  Status InsertInto(MemTable* mem, SequenceNumber sequence) const;

  /// InvalidArgument when any Put carries a value that is not exactly
  /// `value_size` bytes (the segmented table format's fixed geometry);
  /// Corruption when the batch is malformed.
  Status CheckValueSizes(size_t value_size) const;

  /// Appends every record of `src` to `dst` (group-commit coalescing:
  /// the queue leader folds follower batches into one WAL record).
  /// `dst` keeps its sequence; counts add.
  static void Append(WriteBatch* dst, const WriteBatch& src);

  /// WAL payload accessors.
  Slice Contents() const { return Slice(rep_); }
  static Status SetContents(WriteBatch* batch, const Slice& contents);
  static SequenceNumber Sequence(const WriteBatch& batch);
  static void SetSequence(WriteBatch* batch, SequenceNumber seq);

 private:
  static constexpr size_t kHeader = 12;

  void SetCount(uint32_t count);
  /// Decodes every record in order, calling fn(type, key, value) (value
  /// empty for deletions); Corruption on a malformed rep.
  template <typename Fn>
  Status ForEach(Fn&& fn) const;

  std::string rep_;
};

}  // namespace lilsm

#endif  // LILSM_LSM_WRITE_BATCH_H_
