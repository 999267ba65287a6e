#ifndef AQP_CORE_CONTRACT_H_
#define AQP_CORE_CONTRACT_H_

#include <cstddef>

#include "sql/ast.h"

namespace aqp {
namespace core {

/// Per-estimate requirement derived from a user contract by splitting the
/// joint guarantee across all returned estimates.
struct PerEstimateTarget {
  double relative_error = 0.0;
  double confidence = 0.0;
};

/// Splits a joint contract over `num_estimates` simultaneous estimates using
/// Boole's inequality: if each estimate individually fails with probability
/// at most (1 - confidence) / m, the union of failures has probability at
/// most 1 - confidence. Conservative but assumption-free.
PerEstimateTarget AllocateContract(const sql::ErrorSpec& spec,
                                   size_t num_estimates);

/// Splits a relative-error budget across the `num_factors` simple aggregates
/// inside one composite expression (product/quotient/sum of aggregates):
/// by the error-propagation rules, rel_err(composite) <= sum of factor
/// rel_errs (to first order), so each factor gets an equal share.
double AllocateCompositeError(double relative_error, size_t num_factors);

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_CONTRACT_H_
