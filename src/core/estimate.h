#ifndef AQP_CORE_ESTIMATE_H_
#define AQP_CORE_ESTIMATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/aggregate.h"
#include "engine/executor.h"
#include "sampling/ht_estimator.h"
#include "sampling/sample.h"

namespace aqp {
namespace core {

/// Per-group, per-aggregate point estimates with estimator variances,
/// computed unit-aware (blocks stay blocks) from sampled rows and their
/// design.
struct GroupedEstimates {
  Table group_keys;  // One row per group; empty schema for global queries.
  /// estimates[a][g]: aggregate a of group g.
  std::vector<std::vector<PointEstimate>> estimates;
  size_t num_groups = 0;
  size_t num_cells = 0;  // Non-empty (group, unit) cells the sums ran over.
};

/// Estimates each (linear) aggregate per group over the sampled population.
/// Aggregates must be SUM / COUNT / COUNT(*) / AVG; group_exprs may be empty
/// (one global group, present even if the sample is empty).
///
/// This is the estimation core of the approximate executor: the Sample's
/// rows are the query's aggregate input (already filtered/joined), its
/// weights and unit ids carry the design, and the group totals per sampling
/// unit drive Horvitz–Thompson totals and linearized AVG ratios exactly as
/// in sampling/ht_estimator.h, but for many groups at once.
///
/// Each (group, unit) cell sums its rows in row order, and each group sums
/// its cells in the order of their first rows.
Result<GroupedEstimates> EstimateGroupedAggregates(
    const Sample& sample, const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs);

/// The design of an engine sampled scan (engine/plan.h): every unit — a
/// block of `unit_rows` rows for SYSTEM, a row for BERNOULLI — of a
/// `population_rows`-row table kept with probability `rate`; `drawn` is the
/// scan's draw (ExecStats::sampled_units), units the filters emptied
/// included.
struct SampleDesign {
  double rate = 1.0;
  uint32_t unit_rows = 1;
  uint64_t population_rows = 0;
  SampledUnits drawn;
};

/// The same estimates from rows carrying the scan's INT64 "__unit" column,
/// each row weighing 1 / rate: bit-identical to the Sample entry over the
/// same rows, units and design.
///
/// With `exec`, inputs of at least `exec->parallel_min_rows` rows build
/// their cells morsel-parallel, and the group index, the per-worker group
/// slots and the cell arrays are charged to `exec->memory` as "estimate
/// state". Estimates are bit-identical with or without `exec`, at every
/// thread count.
Result<GroupedEstimates> EstimateGroupedAggregates(
    const Table& rows, const SampleDesign& design,
    const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs, const ExecOptions* exec = nullptr);

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_ESTIMATE_H_
