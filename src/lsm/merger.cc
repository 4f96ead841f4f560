#include "lsm/merger.h"


#include "lsm/dbformat.h"
#include "util/check.h"

namespace lilsm {

namespace {

/// Straightforward N-way merge with a linear minimum scan. N is not small:
/// DB iterators pass one child per memtable plus one per table file at
/// every level (not one per level), so a settled tree of ~70 files makes
/// every Next() scan ~70 children. The merge stops at the first child
/// error: skipping a failed child would serve older versions of the keys
/// whose newest version it holds. Only the children a move touched can
/// fail, so only those are checked.
class MergingIterator final : public TableIterator {
 public:
  explicit MergingIterator(std::vector<std::unique_ptr<TableIterator>> children)
      : children_(std::move(children)) {}

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    status_ = Status::OK();
    for (auto& child : children_) {
      child->SeekToFirst();
      if (!CheckChild(*child)) return;
    }
    FindSmallest();
  }

  void Seek(Key target) override {
    status_ = Status::OK();
    for (auto& child : children_) {
      child->Seek(target);
      if (!CheckChild(*child)) return;
    }
    FindSmallest();
  }

  void Next() override {
    LILSM_ASSERT(Valid());
    current_->Next();
    if (CheckChild(*current_)) FindSmallest();
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

  Status status() const override { return status_; }

 private:
  /// False, leaving the merge invalid with the child's error, when the
  /// child just moved failed. A valid child has no error, so the common
  /// case copies no status.
  bool CheckChild(const TableIterator& child) {
    if (child.Valid()) return true;
    status_ = child.status();
    if (status_.ok()) return true;
    current_ = nullptr;
    return false;
  }

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
  Status status_;
};

}  // namespace

std::unique_ptr<TableIterator> NewMergingIterator(
    std::vector<std::unique_ptr<TableIterator>> children) {
  return std::make_unique<MergingIterator>(std::move(children));
}

}  // namespace lilsm
