#ifndef AQP_STORAGE_TABLE_H_
#define AQP_STORAGE_TABLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace aqp {

/// Default block (page) size used by block sampling and the block view:
/// number of consecutive rows grouped into one storage block.
inline constexpr uint32_t kDefaultBlockSize = 1024;

/// In-memory columnar table: a schema plus one Column per field, all the
/// same length. This is the unit all operators, samplers, and synopses
/// consume and produce.
class Table {
 public:
  /// Empty zero-column table (useful as a placeholder before assignment).
  Table() = default;

  /// Empty table with the given schema (one empty column per field).
  explicit Table(Schema schema);

  /// Builds a table from parallel columns; lengths and types must match the
  /// schema.
  static Result<Table> Make(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) { return columns_[i]; }

  /// Column lookup by (possibly qualified) name.
  Result<size_t> ColumnIndex(const std::string& name) const {
    return schema_.FieldIndex(name);
  }

  /// Appends one row; `values` must have one entry per column.
  Status AppendRow(const std::vector<Value>& values);

  /// Appends all rows of `other` (schemas must have identical types), one
  /// bulk column-range copy per column.
  Status Append(const Table& other);

  /// Appends row `i` of `other` (same column types, fast path for operators).
  void AppendRowFrom(const Table& other, size_t i);

  /// Gathers rows by index into a new table, one typed bulk gather per
  /// column.
  Table Take(const std::vector<uint32_t>& indices) const;

  /// Parallel gather: columns are distributed over up to `num_threads`
  /// workers (each column is gathered whole, so the result is identical to
  /// the serial Take for every thread count). `run_stats`, when non-null,
  /// accumulates the parallel-run counters (items = columns here).
  Table Take(const std::vector<uint32_t>& indices, size_t num_threads,
             ParallelRunStats* run_stats = nullptr) const;

  /// Contiguous sub-range of rows, via typed bulk copies.
  Table Slice(size_t offset, size_t length) const;

  /// Renames columns in-place (size must equal num_columns).
  Status RenameColumns(const std::vector<std::string>& names);

  /// --- Block (page) view -------------------------------------------------
  /// Number of blocks when rows are grouped `block_size` at a time.
  size_t NumBlocks(uint32_t block_size = kDefaultBlockSize) const;
  /// Row range [first, last) of block `b`.
  std::pair<size_t, size_t> BlockRange(
      size_t b, uint32_t block_size = kDefaultBlockSize) const;

  /// Approximate heap footprint in bytes (sum over columns) — what a
  /// governed query's MemoryTracker is charged when this table materializes.
  uint64_t ApproxBytes() const;

  /// Pretty-prints up to `max_rows` rows with a header, for examples/tests.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace aqp

#endif  // AQP_STORAGE_TABLE_H_
