#ifndef AQP_CORE_ESTIMATE_H_
#define AQP_CORE_ESTIMATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/aggregate.h"
#include "engine/executor.h"
#include "sampling/sample.h"
#include "stats/confidence.h"

namespace aqp {
namespace core {

/// A point estimate of a population aggregate together with the estimated
/// variance of the estimator and the degrees of freedom available for a
/// Student-t interval.
struct PointEstimate {
  double estimate = 0.0;
  double variance = 0.0;  // Estimated Var of the estimator itself.
  uint64_t df = 0;        // Sampling units - 1.

  /// Two-sided CI at the given confidence (t-based when df is small).
  stats::ConfidenceInterval Ci(double confidence) const {
    return stats::EstimatorCi(estimate, variance, confidence, df);
  }
};

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
/// Aggregates must be SUM / COUNT / COUNT(*) / AVG with a numeric argument
/// (InvalidArgument otherwise); group_exprs may be empty (one global group,
/// present even if the sample is empty).
///
/// This is the one estimator of the library: every sample, stored or drawn
/// at query time, is estimated here. The Sample's rows are the aggregate's
/// input (already filtered with FilterSample, or joined), its weights and
/// unit ids carry the design, and the per-unit totals of each group drive
/// unit-level Horvitz–Thompson totals and linearized AVG ratios. Rows are
/// aggregated to their sampling unit first, so block designs get valid
/// variances despite intra-block correlation. NULL arguments are skipped.
/// Equal-probability designs — every row weighs 1 / nominal_rate — use mean
/// expansion (ratio-to-size when the sample knows its unit sizes); other
/// designs use the HT total and its Poisson variance. A scalar estimate is
/// estimates[0][0] with no group keys.
///
/// AVG over a group with no non-NULL argument rows is estimate 0 with
/// variance 0, and that group's COUNT cell is 0.
///
/// Each (group, unit) cell sums its rows in row order, and each group sums
/// its cells in the order of their first rows.
Result<GroupedEstimates> EstimateGroupedAggregates(
    const Sample& sample, const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs);

/// Restricts a sample to the rows matching `predicate` (a non-boolean
/// predicate is InvalidArgument), keeping the design metadata intact: units
/// that lose all rows simply stop contributing. Predicate evaluation and
/// the gather run morsel-parallel when the sample is big enough; the output
/// is the same for every thread count.
Result<Sample> FilterSample(const Sample& sample, const ExprPtr& predicate,
                            const ExecOptions& exec = {},
                            ParallelRunStats* run_stats = nullptr);

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
