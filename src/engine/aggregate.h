#ifndef AQP_ENGINE_AGGREGATE_H_
#define AQP_ENGINE_AGGREGATE_H_

#include <memory>
#include <string>
#include <unordered_set>
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

/// Running state of one aggregate for one group, with every field any
/// aggregate kind needs. Global aggregates keep one per morsel and fold them
/// with Merge() in morsel order. Grouped aggregation keeps its own flat
/// per-group arrays and uses accumulators only for VAR/STDDEV, COUNT
/// DISTINCT and non-numeric MIN/MAX.
struct AggAccumulator {
  double weighted_sum = 0.0;  // Sum of x over non-null args.
  double weight_total = 0.0;  // Non-null args (or all rows), as a double.
  uint64_t count = 0;         // The same count, as an integer.
  double mean = 0.0;          // Welford, for VAR/STDDEV.
  double m2 = 0.0;

  /// MIN/MAX and COUNT DISTINCT state. Allocated by the first row that
  /// needs it, so the per-group partials of the linear aggregates — one per
  /// group per morsel — stay five words instead of carrying two boxed
  /// values and a hash set they never use.
  struct NonLinear {
    bool has_value = false;
    Value min_v;
    Value max_v;
    std::unordered_set<uint64_t> distinct;  // Hashes for COUNT DISTINCT.
  };
  std::unique_ptr<NonLinear> nonlinear;

  AggAccumulator() = default;
  AggAccumulator(const AggAccumulator& other) { *this = other; }
  AggAccumulator& operator=(const AggAccumulator& other) {
    weighted_sum = other.weighted_sum;
    weight_total = other.weight_total;
    count = other.count;
    mean = other.mean;
    m2 = other.m2;
    nonlinear = other.nonlinear != nullptr
                    ? std::make_unique<NonLinear>(*other.nonlinear)
                    : nullptr;
    return *this;
  }
  AggAccumulator(AggAccumulator&&) noexcept = default;
  AggAccumulator& operator=(AggAccumulator&&) noexcept = default;

  /// The non-linear state, allocating it on first use.
  NonLinear& MutableNonLinear() {
    if (nonlinear == nullptr) nonlinear = std::make_unique<NonLinear>();
    return *nonlinear;
  }
  /// True once a MIN/MAX has seen a non-NULL value.
  bool has_value() const {
    return nonlinear != nullptr && nonlinear->has_value;
  }

  /// Folds `other` into this accumulator. Valid for every AggKind: the sum
  /// fields add, MIN/MAX compare, the distinct sets union, and the variance
  /// state combines with the Chan et al. parallel-Welford formula. The
  /// merge is deterministic, so folding morsel partials in morsel order
  /// yields the same result for every thread count.
  void Merge(const AggAccumulator& other);
};

/// Folds row `i` of `arg` (null only for COUNT(*)) into `st`: the per-row
/// accumulator. Span accumulation over contiguous rows reaches
/// bit-identical state.
void AccumulateRow(AggAccumulator& st, AggKind kind, const Column* arg,
                   size_t i);

/// The aggregation output: the key columns (named `group_names`), then one
/// column per aggregate, of type `out_types[a]`, finalized from
/// `states[a][g]` for each of the `num_groups` groups.
Result<Table> FinalizeAggregates(
    std::vector<Column> key_columns,
    const std::vector<std::string>& group_names,
    const std::vector<AggSpec>& aggs, const std::vector<DataType>& out_types,
    const std::vector<std::vector<AggAccumulator>>& states, size_t num_groups);

/// Execution knobs of GroupByAggregate.
struct AggregateOptions {
  /// When non-null and the input clears exec->parallel_min_rows, aggregation
  /// runs morsel-parallel: every morsel folds its rows into its own partials
  /// (per group, for a grouped aggregate), and each result folds its
  /// partials in morsel order, so the answer is the same at every thread
  /// count. Groups come out in first-appearance row order either way. Null
  /// runs the whole input as one morsel on the calling thread. The state is
  /// charged to exec->memory as "aggregate state".
  const ExecOptions* exec = nullptr;

  /// When non-null, morsel/steal/per-worker counts of the parallel run are
  /// accumulated here (untouched on the serial path).
  ParallelRunStats* run_stats = nullptr;
};

/// Hash group-by aggregation: one output row per group, key columns first
/// (named `group_names`), aggregate columns after (named by alias).
/// NULL aggregate arguments are skipped per SQL semantics.
Result<Table> GroupByAggregate(const Table& input,
                               const std::vector<ExprPtr>& group_exprs,
                               const std::vector<std::string>& group_names,
                               const std::vector<AggSpec>& aggs,
                               const AggregateOptions& options = {});

}  // namespace aqp

#endif  // AQP_ENGINE_AGGREGATE_H_
