#include "stats/bootstrap.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "stats/descriptive.h"

namespace aqp {
namespace stats {
namespace {

TEST(BootstrapTest, MeanCiCoversPlugInEstimate) {
  Pcg32 rng(5);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(3.0 + rng.Gaussian());
  ConfidenceInterval ci = BootstrapMeanCi(values);
  EXPECT_TRUE(ci.Covers(ci.estimate));
  EXPECT_LT(ci.low, ci.high);
  EXPECT_NEAR(ci.estimate, 3.0, 0.2);
}

TEST(BootstrapTest, CiWidthComparableToClt) {
  Pcg32 rng(6);
  std::vector<double> values;
  Accumulator acc;
  for (int i = 0; i < 1000; ++i) {
    double x = 10.0 + 4.0 * rng.Gaussian();
    values.push_back(x);
    acc.Add(x);
  }
  BootstrapOptions opts;
  opts.num_resamples = 500;
  ConfidenceInterval boot = BootstrapMeanCi(values, opts);
  ConfidenceInterval clt = EstimatorCi(
      acc.mean(), acc.sample_variance() / acc.count(), 0.95, acc.count() - 1);
  EXPECT_NEAR(boot.half_width(), clt.half_width(), clt.half_width() * 0.3);
}

TEST(BootstrapTest, DeterministicForSeed) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  ConfidenceInterval a = BootstrapMeanCi(values);
  ConfidenceInterval b = BootstrapMeanCi(values);
  EXPECT_DOUBLE_EQ(a.low, b.low);
  EXPECT_DOUBLE_EQ(a.high, b.high);
}

TEST(BootstrapTest, CustomStatisticMedian) {
  Pcg32 rng(8);
  std::vector<double> values;
  for (int i = 0; i < 400; ++i) values.push_back(rng.Exponential(1.0));
  ConfidenceInterval ci = BootstrapCi(values, [](const std::vector<double>& v) {
    return ExactQuantile(v, 0.5);
  });
  // Median of Exp(1) is ln 2 ~ 0.693.
  EXPECT_GT(ci.high, 0.55);
  EXPECT_LT(ci.low, 0.85);
}

TEST(BootstrapTest, ConfidenceLevelControlsWidth) {
  Pcg32 rng(9);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.Gaussian());
  BootstrapOptions narrow;
  narrow.confidence = 0.80;
  narrow.num_resamples = 400;
  BootstrapOptions wide;
  wide.confidence = 0.99;
  wide.num_resamples = 400;
  EXPECT_LT(BootstrapMeanCi(values, narrow).half_width(),
            BootstrapMeanCi(values, wide).half_width());
}

}  // namespace
}  // namespace stats
}  // namespace aqp
