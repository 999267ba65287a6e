#include "core/outlier_index.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sampling/bernoulli.h"
#include "test_util.h"

namespace aqp {
namespace core {
namespace {

// Mostly small values with a handful of enormous outliers.
Table OutlierHeavyTable(size_t n, size_t num_outliers, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> values;
  for (size_t i = 0; i < n - num_outliers; ++i) {
    values.push_back(rng.NextDouble());
  }
  for (size_t i = 0; i < num_outliers; ++i) {
    values.push_back(1e6 + rng.NextDouble() * 1e5);
  }
  Table t = testutil::DoubleTable(values);
  return t;
}

TEST(OutlierIndexTest, Validation) {
  Table t = testutil::DoubleTable({1.0, 2.0});
  EXPECT_FALSE(OutlierIndex::Build(t, "x", -0.1).ok());
  EXPECT_FALSE(OutlierIndex::Build(t, "x", 1.0).ok());
  EXPECT_FALSE(OutlierIndex::Build(t, "ghost", 0.1).ok());
}

TEST(OutlierIndexTest, CapturesExtremeValues) {
  Table t = OutlierHeavyTable(10000, 20, 3);
  OutlierIndex index = OutlierIndex::Build(t, "x", 0.005).value();
  EXPECT_EQ(index.outliers().num_rows(), 50u);  // 0.5% of 10000.
  EXPECT_EQ(index.inliers().num_rows(), 9950u);
  // All 20 giant values must be in the outlier side.
  size_t giants = 0;
  for (size_t i = 0; i < index.outliers().num_rows(); ++i) {
    if (index.outliers().column(0).DoubleAt(i) > 1e5) ++giants;
  }
  EXPECT_EQ(giants, 20u);
}

TEST(OutlierIndexTest, PartitionIsComplete) {
  Table t = OutlierHeavyTable(5000, 10, 7);
  OutlierIndex index = OutlierIndex::Build(t, "x", 0.01).value();
  EXPECT_EQ(index.outliers().num_rows() + index.inliers().num_rows(), 5000u);
  double total = testutil::ExactSum(index.outliers(), "x") +
                 testutil::ExactSum(index.inliers(), "x");
  EXPECT_NEAR(total, testutil::ExactSum(t, "x"), 1e-6 * total);
}

TEST(OutlierIndexTest, ZeroFractionMeansPureSampling) {
  Table t = testutil::DoubleTable({1.0, 2.0, 3.0, 4.0});
  OutlierIndex index = OutlierIndex::Build(t, "x", 0.0).value();
  EXPECT_EQ(index.outliers().num_rows(), 0u);
  EXPECT_EQ(index.inliers().num_rows(), 4u);
}

TEST(OutlierIndexTest, SumEstimateSlashesErrorOnHeavyTails) {
  Table t = OutlierHeavyTable(20000, 25, 13);
  double truth = testutil::ExactSum(t, "x");
  OutlierIndex index = OutlierIndex::Build(t, "x", 0.002).value();

  const int kTrials = 30;
  const double kRate = 0.02;
  double mse_with_index = 0.0;
  double mse_uniform = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    PointEstimate with_index =
        index.EstimateSum(kRate, 100 + trial).value();
    mse_with_index +=
        (with_index.estimate - truth) * (with_index.estimate - truth) /
        kTrials;

    Sample uniform = BernoulliRowSample(t, kRate, 200 + trial).value();
    PointEstimate plain =
        EstimateGroupedAggregates(uniform, {}, {{AggKind::kSum, Col("x"), "s"}})
            .value()
            .estimates[0][0];
    mse_uniform += (plain.estimate - truth) * (plain.estimate - truth) /
                   kTrials;
  }
  // Outlier index should cut MSE by orders of magnitude here.
  EXPECT_LT(mse_with_index, mse_uniform / 100.0);
}

TEST(OutlierIndexTest, PredicatePushesIntoBothSides) {
  Table t(Schema({{"x", DataType::kDouble}}));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<double>(i % 10))}).ok());
  }
  ASSERT_TRUE(t.AppendRow({Value(1e9)}).ok());
  OutlierIndex index = OutlierIndex::Build(t, "x", 0.001).value();
  // Predicate excludes the giant outlier.
  PointEstimate est =
      index.EstimateSum(0.5, 3, Lt(Col("x"), Lit(100.0))).value();
  double truth = 1000.0 * 4.5;  // Sum of i%10 over 1000 rows.
  EXPECT_NEAR(est.estimate, truth, truth * 0.2);
}

}  // namespace
}  // namespace core
}  // namespace aqp
