#include "core/contract.h"

#include <gtest/gtest.h>

namespace aqp {
namespace core {
namespace {

TEST(ContractTest, BooleAllocation) {
  sql::ErrorSpec spec{0.05, 0.95};
  PerEstimateTarget one = AllocateContract(spec, 1);
  EXPECT_DOUBLE_EQ(one.confidence, 0.95);
  EXPECT_DOUBLE_EQ(one.relative_error, 0.05);

  PerEstimateTarget ten = AllocateContract(spec, 10);
  EXPECT_NEAR(ten.confidence, 1.0 - 0.05 / 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(ten.relative_error, 0.05);
}

TEST(ContractTest, JointGuaranteeFromAllocation) {
  // If each of m estimates fails with probability (1-c)/m, the union bound
  // keeps the joint failure within 1-c.
  sql::ErrorSpec spec{0.05, 0.90};
  const size_t m = 20;
  PerEstimateTarget t = AllocateContract(spec, m);
  double per_failure = 1.0 - t.confidence;
  EXPECT_NEAR(per_failure * m, 1.0 - spec.confidence, 1e-12);
}

TEST(ContractTest, CompositeErrorSplit) {
  EXPECT_DOUBLE_EQ(AllocateCompositeError(0.06, 1), 0.06);
  EXPECT_DOUBLE_EQ(AllocateCompositeError(0.06, 2), 0.03);
  EXPECT_DOUBLE_EQ(AllocateCompositeError(0.06, 3), 0.02);
}

}  // namespace
}  // namespace core
}  // namespace aqp
