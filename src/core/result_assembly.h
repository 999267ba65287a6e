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

/// Runs the query's post-aggregation tail (projection, ORDER BY, LIMIT)
/// over the materialized estimates — the one table it reads — and attaches
/// per-cell confidence intervals at `confidence`.
Result<AssembledResult> AssembleOutput(const sql::SelectStmt& stmt,
                                       const sql::BoundQuery& bound,
                                       const GroupedEstimates& estimates,
                                       double confidence);

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_RESULT_ASSEMBLY_H_
