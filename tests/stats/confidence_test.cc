#include "stats/confidence.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "stats/descriptive.h"

namespace aqp {
namespace stats {
namespace {

TEST(EstimatorCiTest, HigherConfidenceIsWider) {
  ConfidenceInterval c90 = EstimatorCi(10.0, 0.04, 0.90, 99);
  ConfidenceInterval c99 = EstimatorCi(10.0, 0.04, 0.99, 99);
  EXPECT_GT(c99.half_width(), c90.half_width());
}

TEST(EstimatorCiTest, FewerDegreesOfFreedomAreWider) {
  ConfidenceInterval t5 = EstimatorCi(10.0, 0.04, 0.95, 5);
  ConfidenceInterval normal = EstimatorCi(10.0, 0.04, 0.95);
  EXPECT_GT(t5.half_width(), normal.half_width());
  EXPECT_DOUBLE_EQ(t5.estimate, 10.0);
  EXPECT_DOUBLE_EQ(t5.high - 10.0, 10.0 - t5.low);
}

TEST(EstimatorCiTest, NormalApprox) {
  ConfidenceInterval ci = EstimatorCi(100.0, 25.0, 0.95);
  EXPECT_NEAR(ci.half_width(), 1.96 * 5.0, 1e-2);
  EXPECT_TRUE(ci.Covers(100.0));
  EXPECT_FALSE(ci.Covers(200.0));
}

TEST(RelativeHalfWidthTest, Basics) {
  ConfidenceInterval ci;
  ci.estimate = 100.0;
  ci.low = 90.0;
  ci.high = 110.0;
  EXPECT_DOUBLE_EQ(ci.relative_half_width(), 0.1);
  ci.estimate = 0.0;
  EXPECT_TRUE(std::isinf(ci.relative_half_width()));
}

TEST(RequiredSampleSizeTest, ShrinksWithLooserError) {
  uint64_t tight = RequiredSampleSizeForMean(10.0, 25.0, 0.01, 0.95);
  uint64_t loose = RequiredSampleSizeForMean(10.0, 25.0, 0.10, 0.95);
  EXPECT_GT(tight, loose);
  // n = z^2 * var / (err*mean)^2 = 1.96^2 * 25 / 0.01 ~ 9604 for 1% error,
  // and ~96 for 10% error.
  EXPECT_NEAR(static_cast<double>(tight), 9604.0, 10.0);
  EXPECT_NEAR(static_cast<double>(loose), 97.0, 2.0);
}

TEST(RequiredSampleSizeTest, MinimumTwo) {
  EXPECT_EQ(RequiredSampleSizeForMean(10.0, 1e-9, 0.5, 0.95), 2u);
}

TEST(FpcTest, Values) {
  EXPECT_DOUBLE_EQ(FinitePopulationCorrection(10, 0), 1.0);
  EXPECT_DOUBLE_EQ(FinitePopulationCorrection(1000, 1000), 0.0);
  double fpc = FinitePopulationCorrection(100, 1000);
  EXPECT_NEAR(fpc, std::sqrt(900.0 / 999.0), 1e-12);
}

// Property test: empirical coverage of the t interval for a mean (the
// estimator variance s^2 / n, n - 1 degrees of freedom) should be close to
// the nominal confidence across many repetitions.
class CoverageTest : public ::testing::TestWithParam<double> {};

TEST_P(CoverageTest, EmpiricalCoverageMatchesNominal) {
  const double confidence = GetParam();
  const double kTrueMean = 5.0;
  const int kTrials = 400;
  const int kSampleSize = 200;
  Pcg32 rng(1234 + static_cast<uint64_t>(confidence * 1000));
  int covered = 0;
  for (int t = 0; t < kTrials; ++t) {
    Accumulator acc;
    for (int i = 0; i < kSampleSize; ++i) {
      acc.Add(kTrueMean + 2.0 * rng.Gaussian());
    }
    ConfidenceInterval ci =
        EstimatorCi(acc.mean(), acc.sample_variance() / kSampleSize,
                    confidence, kSampleSize - 1);
    if (ci.Covers(kTrueMean)) ++covered;
  }
  double coverage = static_cast<double>(covered) / kTrials;
  // Binomial std error ~ sqrt(c(1-c)/400) ~ 0.011..0.016; allow 4 sigma.
  EXPECT_NEAR(coverage, confidence, 0.06) << "confidence=" << confidence;
}

INSTANTIATE_TEST_SUITE_P(Confidences, CoverageTest,
                         ::testing::Values(0.80, 0.90, 0.95, 0.99));

}  // namespace
}  // namespace stats
}  // namespace aqp
