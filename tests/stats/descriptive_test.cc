#include "stats/descriptive.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace aqp {
namespace stats {
namespace {

TEST(AccumulatorTest, EmptyDefaults) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sample_variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
}

TEST(AccumulatorTest, SimpleMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
  EXPECT_DOUBLE_EQ(acc.population_variance(), 4.0);
  EXPECT_NEAR(acc.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(AccumulatorTest, RepeatedAddEqualsOneAddPerCopy) {
  Accumulator once;
  Accumulator each;
  const std::vector<std::pair<double, int>> runs = {
      {2.0, 1}, {4.0, 3}, {5.0, 0}, {5.0, 2}, {7.0, 1}, {9.0, 1}};
  for (auto [x, n] : runs) {
    once.Add(x, n);
    for (int i = 0; i < n; ++i) each.Add(x);
  }
  EXPECT_EQ(once.count(), 8u);
  EXPECT_DOUBLE_EQ(once.mean(), each.mean());
  EXPECT_DOUBLE_EQ(once.m2(), each.m2());
  EXPECT_DOUBLE_EQ(once.population_variance(), 4.0);
  EXPECT_DOUBLE_EQ(once.min(), 2.0);
  EXPECT_DOUBLE_EQ(once.max(), 9.0);
}

TEST(AccumulatorTest, SingleValue) {
  Accumulator acc;
  acc.Add(3.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.sample_variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 3.5);
  EXPECT_DOUBLE_EQ(acc.max(), 3.5);
}

TEST(AccumulatorTest, NumericalStabilityLargeOffset) {
  // Naive sum-of-squares would lose precision here; Welford must not.
  Accumulator acc;
  const double kOffset = 1e9;
  for (double x : {kOffset + 1.0, kOffset + 2.0, kOffset + 3.0}) acc.Add(x);
  EXPECT_NEAR(acc.sample_variance(), 1.0, 1e-6);
}

TEST(ExactQuantileTest, MedianAndExtremes) {
  std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 1.0), 5.0);
}

TEST(ExactQuantileTest, Interpolates) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.5), 5.0);
}

TEST(ExactQuantileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(ExactQuantile({7.0}, 0.9), 7.0);
}

}  // namespace
}  // namespace stats
}  // namespace aqp
