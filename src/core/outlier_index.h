#ifndef AQP_CORE_OUTLIER_INDEX_H_
#define AQP_CORE_OUTLIER_INDEX_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/estimate.h"
#include "storage/table.h"

namespace aqp {
namespace core {

/// Outlier index (Chaudhuri, Das, Datar, Motwani, Narasayya, ICDE'01): the
/// rows whose measure deviates most from the mean are stored exactly in a
/// side index; only the well-behaved remainder is sampled. SUM estimates
/// become  exact(outliers) + HT-estimate(inliers), removing the heavy tail
/// that makes uniform sampling useless on skewed data.
class OutlierIndex {
 public:
  /// Builds an index over `measure_column`, pulling the `outlier_fraction`
  /// of rows with the largest |x - mean| into the exact side.
  static Result<OutlierIndex> Build(const Table& table,
                                    const std::string& measure_column,
                                    double outlier_fraction);

  /// Estimates SUM(measure) [optionally over rows matching `predicate`]:
  /// exact outlier contribution + Bernoulli-sample estimate of the inliers.
  Result<PointEstimate> EstimateSum(double inlier_rate, uint64_t seed,
                                    const ExprPtr& predicate = nullptr) const;

  const Table& outliers() const { return *outliers_; }
  const Table& inliers() const { return *inliers_; }
  const std::string& measure_column() const { return measure_column_; }

 private:
  OutlierIndex() = default;

  std::shared_ptr<Table> outliers_;
  std::shared_ptr<Table> inliers_;
  std::string measure_column_;
};

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_OUTLIER_INDEX_H_
