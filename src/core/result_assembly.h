#ifndef AQP_CORE_RESULT_ASSEMBLY_H_
#define AQP_CORE_RESULT_ASSEMBLY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/estimate.h"
#include "engine/catalog.h"
#include "sql/binder.h"
#include "stats/confidence.h"

namespace aqp {
namespace core {

/// Output shape + per-cell confidence intervals, shared by the online and
/// offline approximate executors.
struct AssembledResult {
  Table table;  // Same shape as the exact query output.
  /// cis[row][item] at the given confidence; zero-width for group keys,
  /// error-propagated for composite aggregate expressions.
  std::vector<std::vector<stats::ConfidenceInterval>> cis;
};

/// Counts occurrences of each aggregate call (by SQL text) inside `e`.
void CountAggOccurrences(const sql::SqlExprPtr& e,
                         std::unordered_map<std::string, int>* counts);

/// Materializes per-group estimates into the aggregate node's output shape:
/// bound.group_names columns, one column per aggregate (internal alias,
/// INT64 for counts / DOUBLE otherwise), plus an INT64 "__row_id" column
/// mapping rows back to group ordinals.
Result<Table> MaterializeAggTable(const GroupedEstimates& estimates,
                                  const sql::BoundQuery& bound);

/// Runs the query's post-aggregation tail (projection, ORDER BY, LIMIT)
/// over the materialized estimates and attaches per-cell confidence
/// intervals at `confidence`. `catalog` provides any context tables the
/// tail may need (none today, but binding requires one).
Result<AssembledResult> AssembleOutput(const sql::SelectStmt& stmt,
                                       const sql::BoundQuery& bound,
                                       const GroupedEstimates& estimates,
                                       const Catalog& catalog,
                                       double confidence);

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_RESULT_ASSEMBLY_H_
