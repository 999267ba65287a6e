#include "core/contract.h"

#include "common/check.h"

namespace aqp {
namespace core {

PerEstimateTarget AllocateContract(const sql::ErrorSpec& spec,
                                   size_t num_estimates) {
  AQP_CHECK(num_estimates > 0);
  PerEstimateTarget target;
  target.relative_error = spec.relative_error;
  double failure = (1.0 - spec.confidence) / static_cast<double>(num_estimates);
  target.confidence = 1.0 - failure;
  return target;
}

double AllocateCompositeError(double relative_error, size_t num_factors) {
  AQP_CHECK(num_factors > 0);
  return relative_error / static_cast<double>(num_factors);
}

}  // namespace core
}  // namespace aqp
