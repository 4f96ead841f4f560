#include "table/table.h"

#include "table/block_table.h"
#include "table/segmented_table.h"

namespace lilsm {

Status NewTableBuilder(const TableOptions& options, const std::string& fname,
                       std::unique_ptr<TableBuilder>* builder) {
  if (options.env == nullptr) {
    return Status::InvalidArgument("TableOptions.env is required");
  }
  switch (options.format) {
    case TableFormat::kSegmented: {
      auto b = std::make_unique<SegmentedTableBuilder>(options, fname);
      Status s = b->status();
      if (!s.ok()) return s;
      *builder = std::move(b);
      return Status::OK();
    }
    case TableFormat::kBlocked: {
      auto b = std::make_unique<BlockTableBuilder>(options, fname);
      Status s = b->status();
      if (!s.ok()) return s;
      *builder = std::move(b);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown table format");
}

Status OpenTable(const TableOptions& options, const std::string& fname,
                 std::unique_ptr<TableReader>* reader) {
  if (options.env == nullptr) {
    return Status::InvalidArgument("TableOptions.env is required");
  }
  switch (options.format) {
    case TableFormat::kSegmented:
      return SegmentedTableReader::Open(options, fname, reader);
    case TableFormat::kBlocked:
      return BlockTableReader::Open(options, fname, reader);
  }
  return Status::InvalidArgument("unknown table format");
}

}  // namespace lilsm
