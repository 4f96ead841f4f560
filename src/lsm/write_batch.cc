#include "lsm/write_batch.h"

#include "lsm/memtable.h"
#include "util/coding.h"

namespace lilsm {

WriteBatch::WriteBatch() { Clear(); }

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeader, '\0');
}

uint32_t WriteBatch::Count() const {
  return DecodeFixed32(rep_.data() + 8);
}

void WriteBatch::SetCount(uint32_t count) {
  EncodeFixed32(rep_.data() + 8, count);
}

SequenceNumber WriteBatch::Sequence(const WriteBatch& batch) {
  return DecodeFixed64(batch.rep_.data());
}

void WriteBatch::SetSequence(WriteBatch* batch, SequenceNumber seq) {
  EncodeFixed64(batch->rep_.data(), seq);
}

void WriteBatch::Put(Key key, const Slice& value) {
  SetCount(Count() + 1);
  rep_.push_back(static_cast<char>(kTypeValue));
  PutFixed64(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
}

void WriteBatch::Delete(Key key) {
  SetCount(Count() + 1);
  rep_.push_back(static_cast<char>(kTypeDeletion));
  PutFixed64(&rep_, key);
}

void WriteBatch::Append(WriteBatch* dst, const WriteBatch& src) {
  dst->SetCount(dst->Count() + src.Count());
  dst->rep_.append(src.rep_.data() + kHeader, src.rep_.size() - kHeader);
}

template <typename Fn>
Status WriteBatch::ForEach(Fn&& fn) const {
  Slice input(rep_);
  if (input.size() < kHeader) {
    return Status::Corruption("write batch: header too small");
  }
  input.remove_prefix(kHeader);
  const uint32_t count = Count();
  uint32_t found = 0;
  while (!input.empty()) {
    found++;
    const char type_byte = input[0];
    input.remove_prefix(1);
    uint64_t key = 0;
    if (!GetFixed64(&input, &key)) {
      return Status::Corruption("write batch: bad key");
    }
    switch (type_byte) {
      case kTypeValue: {
        Slice value;
        if (!GetLengthPrefixedSlice(&input, &value)) {
          return Status::Corruption("write batch: bad value");
        }
        fn(kTypeValue, key, value);
        break;
      }
      case kTypeDeletion:
        fn(kTypeDeletion, key, Slice());
        break;
      default:
        return Status::Corruption("write batch: unknown record type");
    }
  }
  if (found != count) {
    return Status::Corruption("write batch: count mismatch");
  }
  return Status::OK();
}

Status WriteBatch::InsertInto(MemTable* mem, SequenceNumber sequence) const {
  return ForEach([&](ValueType type, Key key, const Slice& value) {
    mem->Add(sequence++, type, key, value);
  });
}

Status WriteBatch::CheckValueSizes(size_t value_size) const {
  size_t bad = value_size;
  Status s = ForEach([&](ValueType type, Key /*key*/, const Slice& value) {
    if (type == kTypeValue && value.size() != value_size) bad = value.size();
  });
  if (!s.ok()) return s;
  if (bad != value_size) {
    return Status::InvalidArgument(
        "segmented tables require fixed-size values",
        std::to_string(bad) + " bytes given, " + std::to_string(value_size) +
            " required");
  }
  return Status::OK();
}

Status WriteBatch::SetContents(WriteBatch* batch, const Slice& contents) {
  if (contents.size() < kHeader) {
    return Status::Corruption("write batch: contents too small");
  }
  batch->rep_.assign(contents.data(), contents.size());
  return Status::OK();
}

}  // namespace lilsm
