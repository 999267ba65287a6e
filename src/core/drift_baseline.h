#ifndef AQP_CORE_DRIFT_BASELINE_H_
#define AQP_CORE_DRIFT_BASELINE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/result.h"
#include "engine/column_stats.h"
#include "storage/table.h"

namespace aqp {
namespace core {

/// A table's drift signature: the ColumnStats of every column, captured at
/// synopsis build time (the baseline, cached next to the sample) and again
/// later by the DriftMonitor (the current state). ScoreDrift compares a
/// pair and rolls the per-column scores up to one staleness number.
struct TableDriftBaseline {
  std::string table;
  uint64_t catalog_version = 0;
  uint64_t rows = 0;
  double built_unix_seconds = 0.0;  // Wall-clock capture time.
  std::vector<std::pair<std::string, ColumnStats>> columns;

  uint64_t ApproxBytes() const;
};

/// Builds the statistics of every column of `table` over row units
/// (BuildColumnStats with unit_rows = 1), one column at a time. Each
/// column's working set is charged to `memory` while it builds and released
/// after; a caller that keeps the result charges ApproxBytes() itself
/// (SynopsisCache folds it into the entry's bytes). `cancel` is polled
/// every 16384 rows.
Result<TableDriftBaseline> BuildDriftBaseline(
    const Table& table, const std::string& name, uint64_t catalog_version,
    MemoryTracker* memory = nullptr,
    const CancellationToken* cancel = nullptr);

/// Per-column drift decomposition. Every component is normalized to [0, 1];
/// `score` is the max of the components (any single failure mode is enough
/// to invalidate a synopsis, so averaging would mask it).
struct ColumnDriftScore {
  double ks = 0.0;            // KS statistic: sup |CDF_base - CDF_now|.
  double domain_churn = 0.0;  // Share of the baseline's distinct set gone.
  double hh_turnover = 0.0;   // Lost row share of baseline heavy hitters.
  double moment_shift = 0.0;  // Mean/scale/size/null-fraction shift.
  double score = 0.0;         // max(ks, domain_churn, hh_turnover, moment_shift).
};

/// Scores how far a column has drifted from `baseline` to `current`. The
/// distribution components read the value list of an exact column and the
/// sample of any other, so either side may be either kind. A pair without
/// non-NULL values scores 0; one side without them, or values that do not
/// compare (the column changed type), scores 1. Deterministic.
ColumnDriftScore ScoreColumnDrift(const ColumnStats& baseline,
                                  const ColumnStats& current);

/// One column's contribution to a table-level drift report.
struct ColumnDriftEntry {
  std::string column;
  ColumnDriftScore score;
};

/// Table-level drift roll-up: per-column decompositions plus the component
/// maxima and the overall staleness score (max over columns — one badly
/// drifted column is enough to make a synopsis lie).
struct TableDriftReport {
  std::string table;
  double score = 0.0;
  double ks = 0.0;
  double domain_churn = 0.0;
  double hh_turnover = 0.0;
  double moment_shift = 0.0;
  std::vector<ColumnDriftEntry> columns;
  /// Name of the column with the highest score ("" when no columns).
  std::string worst_column;
};

/// Scores `current` against `baseline`, matching columns by name; columns
/// present in only one side score 1 (schema drift is total drift).
TableDriftReport ScoreDrift(const TableDriftBaseline& baseline,
                            const TableDriftBaseline& current);

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_DRIFT_BASELINE_H_
