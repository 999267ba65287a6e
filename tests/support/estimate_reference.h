#ifndef AQP_TESTS_SUPPORT_ESTIMATE_REFERENCE_H_
#define AQP_TESTS_SUPPORT_ESTIMATE_REFERENCE_H_

#include <vector>

#include "common/result.h"
#include "core/estimate.h"

namespace aqp {
namespace testutil {

/// The grouped estimator as one serial row walk: every row goes through one
/// hash table keyed by (group, unit), which hands out cell ids in
/// first-insertion order, and the per-group sums then run over the cells in
/// that order. This is the oracle the estimator suites compare
/// core::EstimateGroupedAggregates against bit for bit; the two entries
/// mirror core's (a stored Sample, or engine rows with "__unit" and the
/// scan's design).
Result<core::GroupedEstimates> EstimateReference(
    const Sample& sample, const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs);
Result<core::GroupedEstimates> EstimateReference(
    const Table& rows, const core::SampleDesign& design,
    const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs);

}  // namespace testutil
}  // namespace aqp

#endif  // AQP_TESTS_SUPPORT_ESTIMATE_REFERENCE_H_
