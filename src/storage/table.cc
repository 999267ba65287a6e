#include "storage/table.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace aqp {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) columns_.emplace_back(f.type);
}

Result<Table> Table::Make(Schema schema, std::vector<Column> columns) {
  if (schema.num_fields() != columns.size()) {
    return Status::InvalidArgument("schema/column count mismatch");
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.field(i).type) {
      return Status::InvalidArgument("column " + schema.field(i).name +
                                     " type mismatch");
    }
    if (columns[i].size() != rows) {
      return Status::InvalidArgument("ragged columns: column " +
                                     schema.field(i).name);
    }
  }
  Table t(std::move(schema));
  t.columns_ = std::move(columns);
  t.num_rows_ = rows;
  return t;
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    AQP_RETURN_IF_ERROR(columns_[i].AppendValue(values[i]));
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::Append(const Table& other) {
  if (other.num_columns() != num_columns()) {
    return Status::InvalidArgument("appending table with different arity");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (other.column(c).type() != columns_[c].type()) {
      return Status::InvalidArgument("appending table with mismatched types");
    }
  }
  // Read the row count first: `other` may be this table.
  const size_t rows = other.num_rows();
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRange(other.column(c), 0, rows);
  }
  num_rows_ += rows;
  return Status::OK();
}

void Table::AppendRowFrom(const Table& other, size_t i) {
  AQP_DCHECK(other.num_columns() == num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendFrom(other.column(c), i);
  }
  ++num_rows_;
}

Table Table::Take(const std::vector<uint32_t>& indices) const {
  Table out(schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c] = columns_[c].Take(indices);
  }
  out.num_rows_ = indices.size();
  return out;
}

Table Table::Take(const std::vector<uint32_t>& indices, size_t num_threads,
                  ParallelRunStats* run_stats) const {
  // Always route through ParallelFor: it runs inline (same column order)
  // when one participant suffices, so the result is identical to the serial
  // overload while morsel accounting stays uniform across thread counts.
  Table out(schema_);
  ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
      columns_.size(), /*morsel_items=*/1, num_threads,
      [&](size_t, size_t, size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          out.columns_[c] = columns_[c].Take(indices);
        }
      });
  out.num_rows_ = indices.size();
  if (run_stats != nullptr) run_stats->MergeFrom(rs);
  return out;
}

Table Table::Slice(size_t offset, size_t length) const {
  Table out(schema_);
  length = offset > num_rows_ ? 0 : std::min(length, num_rows_ - offset);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c] = columns_[c].Slice(offset, length);
  }
  out.num_rows_ = length;
  return out;
}

Status Table::RenameColumns(const std::vector<std::string>& names) {
  if (names.size() != num_columns()) {
    return Status::InvalidArgument("rename arity mismatch");
  }
  std::vector<Field> fields;
  fields.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    fields.push_back(Field{names[i], schema_.field(i).type});
  }
  schema_ = Schema(std::move(fields));
  return Status::OK();
}

size_t Table::NumBlocks(uint32_t block_size) const {
  AQP_CHECK(block_size > 0);
  return (num_rows_ + block_size - 1) / block_size;
}

std::pair<size_t, size_t> Table::BlockRange(size_t b,
                                            uint32_t block_size) const {
  size_t first = b * static_cast<size_t>(block_size);
  size_t last = std::min(first + block_size, num_rows_);
  AQP_CHECK(first <= num_rows_);
  return {first, last};
}

uint64_t Table::ApproxBytes() const {
  uint64_t bytes = 0;
  for (const Column& c : columns_) bytes += c.ApproxBytes();
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream out;
  for (size_t c = 0; c < num_columns(); ++c) {
    if (c > 0) out << " | ";
    out << schema_.field(c).name;
  }
  out << "\n";
  size_t limit = std::min(max_rows, num_rows_);
  for (size_t i = 0; i < limit; ++i) {
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) out << " | ";
      out << columns_[c].GetValue(i).ToString();
    }
    out << "\n";
  }
  if (limit < num_rows_) {
    out << "... (" << num_rows_ - limit << " more rows)\n";
  }
  return out.str();
}

}  // namespace aqp
