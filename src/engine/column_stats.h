#ifndef AQP_ENGINE_COLUMN_STATS_H_
#define AQP_ENGINE_COLUMN_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "expr/expr.h"
#include "storage/column.h"
#include "storage/value.h"

namespace aqp {

/// How the rows of one value (or of NULL) lie over a table's blocks of
/// `unit_rows` consecutive rows: how many rows, how many blocks hold at
/// least one of them, and the sum over blocks of (rows in the block)^2.
/// rows^2 / sum_sq is the number of equally filled blocks with the same
/// concentration — the blocks a block sample effectively draws the value
/// from.
struct ValueSpread {
  uint64_t rows = 0;
  uint64_t blocks = 0;
  uint64_t sum_sq = 0;
};

/// Statistics of one column, the planner's view of it before any sampling:
/// row and NULL counts and, for a column with at most kMaxValues distinct
/// non-NULL values, every value with its spread. Block b holds rows
/// [b * unit_rows, (b + 1) * unit_rows) in table order for the `unit_rows`
/// the statistics were built with: the units of a SYSTEM block sample of
/// that block size (unit_rows = 1 for row samples).
struct ColumnStats {
  static constexpr size_t kMaxValues = 4096;

  uint64_t rows = 0;
  ValueSpread nulls;  // Spread only when `exact`; rows always.

  /// True iff `values` lists every distinct non-NULL value.
  bool exact = false;
  std::vector<Value> values;          // Ascending.
  std::vector<ValueSpread> spreads;   // spreads[i] is values[i]'s.
  std::vector<uint64_t> rows_before;  // Rows of values[0..i); size + 1.

  /// Rows whose value satisfies `value <op> literal` for a comparison op
  /// (=, <>, <, <=, >, >=). nullopt when the column is not exact, `op` is no
  /// comparison, or `literal` does not compare with the column's values.
  /// O(log NDV).
  std::optional<uint64_t> RowsMatching(OpKind op, const Value& literal) const;
};

/// Builds `column`'s statistics in one pass. The value table, at most
/// kMaxValues entries, is charged to `memory` (may be null) as "column
/// statistics" while it is built; a column with more values stops tracking
/// them at the first value past the limit.
Result<ColumnStats> BuildColumnStats(const Column& column, uint32_t unit_rows,
                                     MemoryTracker* memory);

/// A catalog's cache of built statistics, one slot per (name, version,
/// column, unit rows). Thread-safe: concurrent first requests for one slot
/// build it once while the others wait; requests for other slots do not
/// wait. A build that fails for any cause but cancellation or a deadline is
/// remembered: later requests for the slot get its error with no second pass
/// (until the version changes). A cancelled or timed-out build leaves the
/// slot empty for the next request. Copies and moves start empty (statistics
/// are rebuilt on demand).
class ColumnStatsCache {
 public:
  ColumnStatsCache() = default;
  ColumnStatsCache(const ColumnStatsCache&) {}
  ColumnStatsCache& operator=(const ColumnStatsCache&);

  struct Key {
    std::string name;
    uint64_t version = 0;
    std::string column;
    uint32_t unit_rows = 1;
    bool operator<(const Key& o) const {
      return std::tie(name, version, column, unit_rows) <
             std::tie(o.name, o.version, o.column, o.unit_rows);
    }
  };

  /// The slot's statistics, built by `build()` when the slot is empty.
  template <typename Build>
  Result<std::shared_ptr<const ColumnStats>> GetOrBuild(const Key& key,
                                                        Build&& build) {
    std::shared_ptr<Slot> slot = SlotFor(key);
    std::lock_guard<std::mutex> lock(slot->mu);
    if (slot->stats == nullptr) {
      AQP_RETURN_IF_ERROR(slot->failed);
      Result<ColumnStats> built = build();
      if (!built.ok()) {
        const StatusCode code = built.status().code();
        if (code != StatusCode::kCancelled &&
            code != StatusCode::kDeadlineExceeded) {
          slot->failed = built.status();
        }
        return built.status();
      }
      slot->stats = std::make_shared<const ColumnStats>(std::move(*built));
    }
    return slot->stats;
  }

  /// Forgets every slot of `name` (its version changed).
  void Drop(const std::string& name);

 private:
  struct Slot {
    std::mutex mu;
    std::shared_ptr<const ColumnStats> stats;
    Status failed;  // A remembered failed build; OK when there is none.
  };
  std::shared_ptr<Slot> SlotFor(const Key& key);

  std::mutex mu_;
  std::map<Key, std::shared_ptr<Slot>> slots_;
};

}  // namespace aqp

#endif  // AQP_ENGINE_COLUMN_STATS_H_
