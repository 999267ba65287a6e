#include "sketch/distinct_sampler.h"

#include <cmath>

#include <gtest/gtest.h>

namespace aqp {
namespace sketch {
namespace {

TEST(KmvTest, ExactBelowK) {
  KmvSketch kmv(256);
  for (uint64_t k = 0; k < 100; ++k) kmv.Add(k);
  EXPECT_DOUBLE_EQ(kmv.Estimate(), 100.0);
}

TEST(KmvTest, DuplicatesIgnored) {
  KmvSketch kmv(64);
  for (int rep = 0; rep < 50; ++rep) {
    for (uint64_t k = 0; k < 30; ++k) kmv.Add(k);
  }
  EXPECT_DOUBLE_EQ(kmv.Estimate(), 30.0);
}

class KmvAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KmvAccuracyTest, WithinFewStandardErrors) {
  const uint64_t kTruth = GetParam();
  KmvSketch kmv(1024);
  for (uint64_t k = 0; k < kTruth; ++k) {
    kmv.Add(k * 0x9e3779b97f4a7c15ULL + 7);
  }
  double se = kmv.StandardError();
  EXPECT_NEAR(kmv.Estimate(), static_cast<double>(kTruth),
              5.0 * se * static_cast<double>(kTruth));
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, KmvAccuracyTest,
                         ::testing::Values(5000, 50000, 500000));

TEST(KmvTest, MergeEqualsUnion) {
  KmvSketch a(512);
  KmvSketch b(512);
  KmvSketch whole(512);
  for (uint64_t k = 0; k < 20000; ++k) {
    a.Add(k);
    whole.Add(k);
  }
  for (uint64_t k = 10000; k < 30000; ++k) {
    b.Add(k);
    whole.Add(k);
  }
  a.Merge(b);
  EXPECT_NEAR(a.Estimate(), whole.Estimate(), whole.Estimate() * 0.01);
}

TEST(KmvTest, ContainmentEstimate) {
  // A = [0, 20000), B = [10000, 30000): half of A is in B.
  KmvSketch a(2048);
  KmvSketch b(2048);
  for (uint64_t k = 0; k < 20000; ++k) a.Add(k);
  for (uint64_t k = 10000; k < 30000; ++k) b.Add(k);
  EXPECT_NEAR(KmvSketch::EstimateContainment(a, b), 0.5, 0.05);
}

TEST(KmvTest, ContainmentDisjointNearZero) {
  KmvSketch a(512);
  KmvSketch b(512);
  for (uint64_t k = 0; k < 10000; ++k) a.Add(k);
  for (uint64_t k = 100000; k < 110000; ++k) b.Add(k);
  EXPECT_LT(KmvSketch::EstimateContainment(a, b), 0.02);
}

TEST(KmvTest, ContainmentOfASubsetIsOne) {
  KmvSketch a(512);
  KmvSketch b(512);
  for (uint64_t k = 0; k < 10000; ++k) {
    a.Add(k);
    b.Add(k);
  }
  for (uint64_t k = 10000; k < 30000; ++k) b.Add(k);
  EXPECT_EQ(KmvSketch::EstimateContainment(a, b), 1.0);
  EXPECT_LT(KmvSketch::EstimateContainment(b, a), 0.5);
}

TEST(KmvTest, MinHashesSortedAndBounded) {
  KmvSketch kmv(128);
  for (uint64_t k = 0; k < 100000; ++k) kmv.Add(k);
  auto minima = kmv.MinHashes();
  EXPECT_EQ(minima.size(), 128u);
  for (size_t i = 1; i < minima.size(); ++i) {
    EXPECT_LT(minima[i - 1], minima[i]);
  }
}

}  // namespace
}  // namespace sketch
}  // namespace aqp
