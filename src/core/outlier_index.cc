#include "core/outlier_index.h"

#include <algorithm>
#include <cmath>

#include "expr/eval.h"
#include "sampling/bernoulli.h"
#include "stats/descriptive.h"

namespace aqp {
namespace core {

Result<OutlierIndex> OutlierIndex::Build(const Table& table,
                                         const std::string& measure_column,
                                         double outlier_fraction) {
  if (outlier_fraction < 0.0 || outlier_fraction >= 1.0) {
    return Status::InvalidArgument("outlier fraction must be in [0, 1)");
  }
  AQP_ASSIGN_OR_RETURN(size_t mcol, table.ColumnIndex(measure_column));
  const Column& m = table.column(mcol);
  if (!IsNumeric(m.type())) {
    return Status::InvalidArgument("measure column must be numeric");
  }
  stats::Accumulator acc;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (!m.IsNull(i)) acc.Add(m.NumericAt(i));
  }
  double mean = acc.mean();

  size_t num_outliers = static_cast<size_t>(
      std::llround(outlier_fraction * static_cast<double>(table.num_rows())));
  std::vector<uint32_t> order(table.num_rows());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  auto deviation = [&](uint32_t i) {
    return m.IsNull(i) ? 0.0 : std::fabs(m.NumericAt(i) - mean);
  };
  // Partial sort: largest deviations first.
  std::nth_element(order.begin(),
                   order.begin() + static_cast<int64_t>(
                                       std::min(num_outliers, order.size())),
                   order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return deviation(a) > deviation(b);
                   });
  std::vector<uint32_t> outlier_rows(
      order.begin(),
      order.begin() + static_cast<int64_t>(std::min(num_outliers,
                                                    order.size())));
  std::vector<uint32_t> inlier_rows(
      order.begin() + static_cast<int64_t>(std::min(num_outliers,
                                                    order.size())),
      order.end());
  // Keep deterministic row order inside each side.
  std::sort(outlier_rows.begin(), outlier_rows.end());
  std::sort(inlier_rows.begin(), inlier_rows.end());

  OutlierIndex index;
  index.outliers_ = std::make_shared<Table>(table.Take(outlier_rows));
  index.inliers_ = std::make_shared<Table>(table.Take(inlier_rows));
  index.measure_column_ = measure_column;
  return index;
}

Result<PointEstimate> OutlierIndex::EstimateSum(
    double inlier_rate, uint64_t seed, const ExprPtr& predicate) const {
  // Exact contribution of the outliers.
  AQP_ASSIGN_OR_RETURN(size_t mcol, outliers_->ColumnIndex(measure_column_));
  std::vector<uint8_t> qualifies(outliers_->num_rows(), 1);
  if (predicate != nullptr) {
    AQP_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                         EvalPredicate(*predicate, *outliers_));
    std::fill(qualifies.begin(), qualifies.end(), 0);
    for (uint32_t i : sel) qualifies[i] = 1;
  }
  double exact_sum = 0.0;
  const Column& m = outliers_->column(mcol);
  for (size_t i = 0; i < outliers_->num_rows(); ++i) {
    if (qualifies[i] && !m.IsNull(i)) exact_sum += m.NumericAt(i);
  }

  // Sampled contribution of the inliers.
  AQP_ASSIGN_OR_RETURN(Sample sample,
                       BernoulliRowSample(*inliers_, inlier_rate, seed));
  if (predicate != nullptr) {
    AQP_ASSIGN_OR_RETURN(sample, FilterSample(sample, predicate));
  }
  AQP_ASSIGN_OR_RETURN(
      GroupedEstimates inliers,
      EstimateGroupedAggregates(sample, {},
                                {{AggKind::kSum, Col(measure_column_), "s"}}));
  // The outlier part is exact: it adds no variance.
  PointEstimate out = inliers.estimates[0][0];
  out.estimate += exact_sum;
  return out;
}

}  // namespace core
}  // namespace aqp
