#include "lsm/merger.h"


#include "lsm/dbformat.h"
#include "util/check.h"

namespace lilsm {

namespace {

/// Straightforward N-way merge with a linear minimum scan. N is not small:
/// DB iterators pass one child per memtable plus one per table file at
/// every level (not one per level), so a settled tree of ~70 files makes
/// every Next() scan ~70 children.
class MergingIterator final : public TableIterator {
 public:
  explicit MergingIterator(std::vector<std::unique_ptr<TableIterator>> children)
      : children_(std::move(children)) {}

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (auto& child : children_) {
      child->SeekToFirst();
    }
    FindSmallest();
  }

  void Seek(Key target) override {
    for (auto& child : children_) {
      child->Seek(target);
    }
    FindSmallest();
  }

  void Next() override {
    LILSM_ASSERT(Valid());
    current_->Next();
    FindSmallest();
  }

  Key key() const override {
    LILSM_ASSERT(Valid());
    return current_->key();
  }
  uint64_t tag() const override {
    LILSM_ASSERT(Valid());
    return current_->tag();
  }
  Slice value() const override {
    LILSM_ASSERT(Valid());
    return current_->value();
  }

  Status status() const override {
    for (const auto& child : children_) {
      Status s = child->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  void FindSmallest() {
    TableIterator* smallest = nullptr;
    for (auto& child : children_) {
      if (!child->Valid()) continue;
      if (smallest == nullptr ||
          InternalKeyLess(child->key(), child->tag(), smallest->key(),
                          smallest->tag())) {
        smallest = child.get();
      }
    }
    current_ = smallest;
  }

  std::vector<std::unique_ptr<TableIterator>> children_;
  TableIterator* current_ = nullptr;
};

}  // namespace

std::unique_ptr<TableIterator> NewMergingIterator(
    std::vector<std::unique_ptr<TableIterator>> children) {
  return std::make_unique<MergingIterator>(std::move(children));
}

}  // namespace lilsm
