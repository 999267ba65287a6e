#include "sampling/weighted.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sampling/bernoulli.h"
#include "core/estimate.h"
#include "test_util.h"

namespace aqp {
namespace {

// Pareto-ish heavy-tailed measure: a few huge values dominate the sum.
Table SkewedTable(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double u = rng.NextDouble() + 1e-9;
    values.push_back(std::pow(u, -1.2));  // Pareto tail.
  }
  return testutil::DoubleTable(values);
}

TEST(MeasureBiasedTest, Validation) {
  Table t = testutil::DoubleTable({1.0});
  EXPECT_FALSE(MeasureBiasedSample(t, "x", 0, 1).ok());
  EXPECT_FALSE(MeasureBiasedSample(t, "ghost", 1, 1).ok());
  Table empty(Schema({{"x", DataType::kDouble}}));
  EXPECT_FALSE(MeasureBiasedSample(empty, "x", 1, 1).ok());
}

TEST(MeasureBiasedTest, LargeValuesPreferentiallySampled) {
  Table t = SkewedTable(20000, 3);
  Sample s = MeasureBiasedSample(t, "x", 500, 7).value();
  ASSERT_GT(s.num_rows(), 0u);
  // Mean of sampled raw values should exceed the population mean: big rows
  // are overrepresented (their weights then downweight them).
  double pop_mean = testutil::ExactSum(t, "x") / 20000.0;
  double samp_mean = testutil::ExactSum(s.table, "x") /
                     static_cast<double>(s.num_rows());
  EXPECT_GT(samp_mean, pop_mean * 1.5);
}

TEST(MeasureBiasedTest, HtSumUnbiased) {
  Table t = SkewedTable(20000, 5);
  double truth = testutil::ExactSum(t, "x");
  double mean_est = 0.0;
  const int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = MeasureBiasedSample(t, "x", 800, 900 + trial).value();
    double est = 0.0;
    for (size_t i = 0; i < s.num_rows(); ++i) {
      est += s.weights[i] * s.table.column(0).DoubleAt(i);
    }
    mean_est += est / kTrials;
  }
  EXPECT_NEAR(mean_est, truth, std::fabs(truth) * 0.05);
}

TEST(MeasureBiasedTest, BeatsUniformOnSumVariance) {
  // The claim behind measure-biased sampling: for heavy-tailed measures the
  // SUM estimator variance is far below uniform sampling at equal budget.
  Table t = SkewedTable(20000, 11);
  const int kTrials = 40;
  const uint64_t kBudget = 500;
  double uniform_rate = static_cast<double>(kBudget) / 20000.0;
  double truth = testutil::ExactSum(t, "x");

  double mse_biased = 0.0;
  double mse_uniform = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample biased = MeasureBiasedSample(t, "x", kBudget, 50 + trial).value();
    core::PointEstimate eb =
        core::EstimateGroupedAggregates(biased, {},
                                        {{AggKind::kSum, Col("x"), "s"}})
            .value()
            .estimates[0][0];
    mse_biased += (eb.estimate - truth) * (eb.estimate - truth) / kTrials;

    Sample uniform = BernoulliRowSample(t, uniform_rate, 70 + trial).value();
    core::PointEstimate eu =
        core::EstimateGroupedAggregates(uniform, {},
                                        {{AggKind::kSum, Col("x"), "s"}})
            .value()
            .estimates[0][0];
    mse_uniform += (eu.estimate - truth) * (eu.estimate - truth) / kTrials;
  }
  EXPECT_LT(mse_biased, mse_uniform / 4.0);
}

TEST(MeasureBiasedTest, HandlesNullMeasures) {
  Table t(Schema({{"x", DataType::kDouble}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(1.0)}).ok());
    ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  }
  Sample s = MeasureBiasedSample(t, "x", 50, 3).value();
  EXPECT_GT(s.num_rows(), 0u);
}

}  // namespace
}  // namespace aqp
