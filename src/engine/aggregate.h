#ifndef AQP_ENGINE_AGGREGATE_H_
#define AQP_ENGINE_AGGREGATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/exec_options.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace aqp {

/// Aggregate function kinds.
enum class AggKind {
  kCountStar,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kVar,     // Unbiased sample variance.
  kStddev,  // Sample standard deviation.
  kCountDistinct,
};

/// Printable name ("SUM", "COUNT", ...).
std::string_view AggKindName(AggKind kind);

/// True for aggregates that are linear in the data (SUM/COUNT/AVG) and hence
/// admit unbiased sampling-based estimation — the class the AQP literature
/// can guarantee. MIN/MAX/COUNT DISTINCT are non-linear: sampling cannot
/// bound their error, which is exactly the paper's "no silver bullet" case
/// where sketches take over.
bool IsLinearAgg(AggKind kind);

/// One aggregate to compute: kind, argument expression (null for COUNT(*)),
/// and output column alias.
struct AggSpec {
  AggKind kind;
  ExprPtr arg;  // nullptr iff kind == kCountStar.
  std::string alias;
};

/// Result type of an aggregate over an argument of type `arg_type`.
Result<DataType> AggResultType(AggKind kind, DataType arg_type);

/// Row -> group assignment produced by hashing the group-key expressions.
/// Group ids are dense in [0, num_groups); `key_columns` hold each group's
/// key values indexed by group id.
struct GroupIndex {
  std::vector<uint32_t> group_ids;   // Size = input rows.
  std::vector<Column> key_columns;   // One per group expression.
  size_t num_groups = 0;
};

/// Builds the group index for `group_exprs` over `input`: GroupByAggregate's
/// key kernel, run serially, so group ids are in first-appearance order.
/// With no group expressions, every row lands in the single group 0 (even
/// for an empty input, num_groups == 1 so global aggregates emit one row).
Result<GroupIndex> BuildGroupIndex(const Table& input,
                                   const std::vector<ExprPtr>& group_exprs);

/// Execution knobs of GroupByAggregate.
struct AggregateOptions {
  /// When non-null and the input clears exec->parallel_min_rows, aggregation
  /// runs morsel-parallel: every morsel folds its rows into its own per-group
  /// partials, and each group folds its partials in morsel order, so the
  /// answer is the same at every thread count. Groups come out in first-appearance row order either way. Null
  /// runs the whole input as one morsel on the calling thread. The state is
  /// charged to exec->memory as "aggregate state".
  const ExecOptions* exec = nullptr;

  /// When non-null, morsel/steal/per-worker counts of the parallel run are
  /// accumulated here (untouched on the serial path).
  ParallelRunStats* run_stats = nullptr;
};

/// Hash group-by aggregation: one output row per group, key columns first
/// (named `group_names`), aggregate columns after (named by alias).
/// NULL aggregate arguments are skipped per SQL semantics. With no group
/// expressions the input is one group, so the output has one row even for
/// an empty input (COUNTs 0, every other aggregate NULL).
Result<Table> GroupByAggregate(const Table& input,
                               const std::vector<ExprPtr>& group_exprs,
                               const std::vector<std::string>& group_names,
                               const std::vector<AggSpec>& aggs,
                               const AggregateOptions& options = {});

}  // namespace aqp

#endif  // AQP_ENGINE_AGGREGATE_H_
