#include "sampling/reservoir.h"

#include <cmath>

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace aqp {
namespace {

TEST(ReservoirSamplerTest, FillPhaseTakesFirstK) {
  ReservoirSampler s(5, 1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s.Offer(), i);
}

TEST(ReservoirSamplerTest, CountsItems) {
  ReservoirSampler s(3, 1);
  for (int i = 0; i < 100; ++i) s.Offer();
  EXPECT_EQ(s.items_seen(), 100u);
  EXPECT_EQ(s.capacity(), 3u);
}

TEST(ReservoirSampleTest, ZeroKRejected) {
  Table t = testutil::DoubleTable({1.0});
  EXPECT_FALSE(ReservoirSample(t, 0, 1).ok());
}

TEST(ReservoirSampleTest, KLargerThanNKeepsAll) {
  Table t = testutil::DoubleTable({1.0, 2.0, 3.0});
  Sample s = ReservoirSample(t, 10, 1).value();
  EXPECT_EQ(s.num_rows(), 3u);
  for (double w : s.weights) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(ReservoirSampleTest, ExactSizeK) {
  std::vector<double> values(10000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  Table t = testutil::DoubleTable(values);
  Sample s = ReservoirSample(t, 500, 7).value();
  EXPECT_EQ(s.num_rows(), 500u);
  EXPECT_DOUBLE_EQ(s.weights[0], 20.0);  // N/k = 10000/500.
}

TEST(ReservoirSampleTest, NoDuplicates) {
  std::vector<double> values(5000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  Table t = testutil::DoubleTable(values);
  Sample s = ReservoirSample(t, 300, 3).value();
  std::set<double> seen;
  for (size_t i = 0; i < s.num_rows(); ++i) {
    seen.insert(s.table.column(0).DoubleAt(i));
  }
  EXPECT_EQ(seen.size(), 300u);
}

TEST(ReservoirSampleTest, UniformInclusionProbability) {
  // Each of 1000 items should appear in a k=100 sample with p = 0.1.
  // Run many trials and check per-decile inclusion counts.
  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  Table t = testutil::DoubleTable(values);
  std::vector<int> inclusions(10, 0);  // Bucketed by value decile.
  const int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = ReservoirSample(t, 100, 1000 + trial).value();
    for (size_t i = 0; i < s.num_rows(); ++i) {
      int bucket = static_cast<int>(s.table.column(0).DoubleAt(i) / 100.0);
      inclusions[bucket]++;
    }
  }
  // Each decile has 100 items * 300 trials * 0.1 = 3000 expected inclusions.
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(inclusions[b], 3000, 350) << "decile " << b;
  }
}

TEST(ReservoirSampleTest, SkippingMatchesOfferLoop) {
  // ReservoirSample jumps between Algorithm L's takes; it must draw exactly
  // the reservoir an Offer() per row would, so stored synopses (and their
  // persisted sidecars) are unchanged by the skip.
  for (size_t n : {1, 2, 7, 100, 1000, 50000}) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
    Table t = testutil::DoubleTable(values);
    for (size_t k : {size_t{1}, size_t{2}, size_t{10}, size_t{100}, n,
                     n + 5}) {
      for (uint64_t seed : {1, 7, 42}) {
        std::vector<double> expected;
        if (k >= n) {
          expected = values;
        } else {
          ReservoirSampler sampler(k, seed);
          expected.assign(k, 0.0);
          for (size_t i = 0; i < n; ++i) {
            int64_t slot = sampler.Offer();
            if (slot >= 0) expected[static_cast<size_t>(slot)] = values[i];
          }
        }
        Sample s = ReservoirSample(t, k, seed).value();
        ASSERT_EQ(s.num_rows(), expected.size());
        for (size_t i = 0; i < s.num_rows(); ++i) {
          EXPECT_EQ(s.table.column(0).DoubleAt(i), expected[i])
              << "n=" << n << " k=" << k << " seed=" << seed << " slot=" << i;
        }
      }
    }
  }
}

TEST(ReservoirSamplerTest, SkipToNextTakeMatchesOffer) {
  ReservoirSampler offered(4, 9);
  ReservoirSampler skipping(4, 9);
  for (int take = 0; take < 50; ++take) {
    size_t slot = 0;
    const uint64_t ordinal = skipping.SkipToNextTake(&slot);
    int64_t offered_slot = -1;
    while (offered_slot < 0) offered_slot = offered.Offer();
    EXPECT_EQ(offered.items_seen() - 1, ordinal);
    EXPECT_EQ(static_cast<size_t>(offered_slot), slot);
    EXPECT_EQ(skipping.items_seen(), offered.items_seen());
  }
}

TEST(ReservoirSampleTest, HtSumUnbiased) {
  Table t = testutil::ZipfGroupedTable(10000, 20, 0.8, 5);
  double truth = testutil::ExactSum(t, "x");
  size_t xcol = t.ColumnIndex("x").value();
  double mean_est = 0.0;
  const int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = ReservoirSample(t, 400, 2000 + trial).value();
    double est = 0.0;
    for (size_t i = 0; i < s.num_rows(); ++i) {
      est += s.weights[i] * s.table.column(xcol).NumericAt(i);
    }
    mean_est += est / kTrials;
  }
  EXPECT_NEAR(mean_est, truth, std::fabs(truth) * 0.03);
}

}  // namespace
}  // namespace aqp
