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

#include "common/bytes.h"
#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/result.h"
#include "expr/expr.h"
#include "sketch/distinct_sampler.h"
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

/// Count, mean and sum of squared deviations from the mean (M2) of a
/// numeric column's non-NULL values.
struct Moments {
  uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;

  double variance() const {  // Population variance.
    return count == 0 ? 0.0 : m2 / static_cast<double>(count);
  }
};

/// Statistics of one column: the planner's view of it before any sampling,
/// and the drift monitor's record of it (core/drift_baseline.h). Row and
/// NULL counts, the moments of a numeric (INT64/DOUBLE) column, and either
/// every distinct non-NULL value with its spread (`exact`, at most
/// kMaxValues values) or a sample of the values with a distinct-value
/// sketch. Block b holds rows [b * unit_rows, (b + 1) * unit_rows) in table
/// order for the `unit_rows` the statistics were built with: the units of a
/// SYSTEM block sample of that block size (unit_rows = 1 for row samples).
struct ColumnStats {
  static constexpr size_t kMaxValues = 4096;
  /// Minimum hashes kept by the distinct-value sketch.
  static constexpr uint32_t kDistinctK = 256;

  uint64_t rows = 0;
  ValueSpread nulls;  // Spread only when `exact`; rows always.
  Moments moments;    // count 0 for STRING and BOOL columns.

  /// True iff `values` lists every distinct non-NULL value.
  bool exact = false;
  std::vector<Value> values;          // Ascending.
  std::vector<ValueSpread> spreads;   // spreads[i] is values[i]'s.
  std::vector<uint64_t> rows_before;  // Rows of values[0..i); size + 1.

  /// When not exact: a uniform sample, drawn with a fixed seed, of at most
  /// kMaxValues of the non-NULL values (NaN left out), ascending.
  std::vector<Value> sample;
  /// KMV sketch of the distinct non-NULL values' hashes (Column::HashAt).
  sketch::KmvSketch distinct{kDistinctK};

  /// Rows whose value satisfies `value <op> literal` for a comparison op
  /// (=, <>, <, <=, >, >=). nullopt when the column is not exact, `op` is no
  /// comparison, or `literal` does not compare with the column's values.
  /// O(log NDV).
  std::optional<uint64_t> RowsMatching(OpKind op, const Value& literal) const;

  /// Memory proxy for budget accounting.
  uint64_t ApproxBytes() const;
};

/// Builds `column`'s statistics. One pass hands out value ids, and stops
/// at the first value past kMaxValues; a column that has more values, or a
/// NaN, takes a second pass for its moments, sample and sketch. Each pass's
/// working set is charged to `memory` (may be null) as "column statistics"
/// while it runs; `cancel` (may be null) is polled every 16384 rows.
Result<ColumnStats> BuildColumnStats(const Column& column, uint32_t unit_rows,
                                     MemoryTracker* memory,
                                     const CancellationToken* cancel = nullptr);

/// Appends `stats` to `w` (docs/STORAGE.md §8.4).
void WriteColumnStats(const ColumnStats& stats, ByteWriter* w);
/// Reads statistics written by WriteColumnStats; InvalidArgument or
/// OutOfRange on a buffer that does not hold them.
Result<ColumnStats> ReadColumnStats(ByteReader* r);

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
