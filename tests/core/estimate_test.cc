#include "core/estimate.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "expr/eval.h"
#include "sampling/bernoulli.h"
#include "sampling/block.h"
#include "sampling/stratified.h"
#include "test_util.h"

namespace aqp {
namespace core {
namespace {

TEST(GroupedEstimateTest, RejectsNonLinearAggregates) {
  Table t = testutil::GroupedTable({{0, 1.0}});
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  EXPECT_FALSE(EstimateGroupedAggregates(
                   s, {}, {{AggKind::kMin, Col("x"), "m"}})
                   .ok());
}

TEST(GroupedEstimateTest, FullSampleIsExact) {
  Table t = testutil::GroupedTable(
      {{0, 1.0}, {1, 10.0}, {0, 2.0}, {1, 20.0}, {0, 3.0}});
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  GroupedEstimates est =
      EstimateGroupedAggregates(s, {Col("g")},
                                {{AggKind::kSum, Col("x"), "s"},
                                 {AggKind::kCountStar, nullptr, "n"},
                                 {AggKind::kAvg, Col("x"), "a"}})
          .value();
  ASSERT_EQ(est.num_groups, 2u);
  // Group order is first-appearance: g=0 then g=1.
  EXPECT_DOUBLE_EQ(est.estimates[0][0].estimate, 6.0);
  EXPECT_DOUBLE_EQ(est.estimates[0][1].estimate, 30.0);
  EXPECT_DOUBLE_EQ(est.estimates[1][0].estimate, 3.0);
  EXPECT_DOUBLE_EQ(est.estimates[1][1].estimate, 2.0);
  EXPECT_DOUBLE_EQ(est.estimates[2][0].estimate, 2.0);
  EXPECT_DOUBLE_EQ(est.estimates[2][1].estimate, 15.0);
  for (const auto& per_group : est.estimates) {
    for (const PointEstimate& pe : per_group) {
      EXPECT_DOUBLE_EQ(pe.variance, 0.0);
    }
  }
}

TEST(GroupedEstimateTest, GlobalGroupAlwaysPresent) {
  Table t(Schema({{"x", DataType::kDouble}}));
  Sample s;
  s.table = t;  // Empty sample.
  s.num_units_sampled = 0;
  GroupedEstimates est =
      EstimateGroupedAggregates(s, {}, {{AggKind::kSum, Col("x"), "s"}})
          .value();
  EXPECT_EQ(est.num_groups, 1u);
  EXPECT_DOUBLE_EQ(est.estimates[0][0].estimate, 0.0);
}

TEST(GroupedEstimateTest, PerGroupSumsUnbiased) {
  Table t = testutil::ZipfGroupedTable(40000, 5, 0.5, 3);
  // Exact per-group sums.
  std::vector<double> truth(5, 0.0);
  size_t gcol = t.ColumnIndex("g").value();
  size_t xcol = t.ColumnIndex("x").value();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    truth[static_cast<size_t>(t.column(gcol).Int64At(i))] +=
        t.column(xcol).NumericAt(i);
  }
  std::vector<double> mean_est(5, 0.0);
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = BernoulliRowSample(t, 0.05, 100 + trial).value();
    GroupedEstimates est =
        EstimateGroupedAggregates(s, {Col("g")},
                                  {{AggKind::kSum, Col("x"), "s"}})
            .value();
    for (size_t g = 0; g < est.num_groups; ++g) {
      int64_t key = est.group_keys.column(0).Int64At(g);
      mean_est[static_cast<size_t>(key)] +=
          est.estimates[0][g].estimate / kTrials;
    }
  }
  for (size_t g = 0; g < 5; ++g) {
    EXPECT_NEAR(mean_est[g], truth[g], std::fabs(truth[g]) * 0.1 + 50.0)
        << "group " << g;
  }
}

TEST(GroupedEstimateTest, CiCoverageUnderBlockSampling) {
  // Clustered layout (group-correlated blocks) — the case where row-naive
  // analysis fails; the unit-aware estimator must keep near-nominal
  // coverage for per-group sums.
  const size_t kRows = 30000;
  Table t(Schema({{"g", DataType::kInt64}, {"x", DataType::kDouble}}));
  Pcg32 rng(7);
  for (size_t i = 0; i < kRows; ++i) {
    int64_t g = static_cast<int64_t>((i / 3000) % 3);  // Clustered groups.
    ASSERT_TRUE(t.AppendRow({Value(g),
                             Value(static_cast<double>(g) * 10.0 +
                                   rng.Gaussian())})
                    .ok());
  }
  std::vector<double> truth(3, 0.0);
  for (size_t i = 0; i < kRows; ++i) {
    truth[static_cast<size_t>(t.column(0).Int64At(i))] +=
        t.column(1).NumericAt(i);
  }
  int covered = 0;
  int total = 0;
  const int kTrials = 80;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = BlockSample(t, 0.1, 250, 900 + trial).value();
    GroupedEstimates est =
        EstimateGroupedAggregates(s, {Col("g")},
                                  {{AggKind::kSum, Col("x"), "s"}})
            .value();
    for (size_t g = 0; g < est.num_groups; ++g) {
      int64_t key = est.group_keys.column(0).Int64At(g);
      ++total;
      if (est.estimates[0][g].Ci(0.95).Covers(
              truth[static_cast<size_t>(key)])) {
        ++covered;
      }
    }
  }
  double coverage = static_cast<double>(covered) / total;
  EXPECT_GE(coverage, 0.85);
}

TEST(GroupedEstimateTest, CellsSumInFirstAppearanceOrder) {
  // Unequal weights take the Horvitz-Thompson path, whose per-group total
  // is a floating-point sum over (group, unit) cells. Cells are summed in
  // the order they first appear, never in a hash-table order: with 2^53
  // first, each +1 rounds away; summed from the back, the ones add to 2
  // and survive.
  const double big = 9007199254740992.0;  // 2^53: spacing 2 above it.
  Table t = testutil::GroupedTable({{0, big}, {0, 1.0}, {0, 0.5}});
  Sample s;
  s.table = t;
  s.weights = {1.0, 1.0, 2.0};
  s.unit_ids = {0, 1, 2};
  s.num_units_sampled = 3;
  s.num_units_population = 4;
  s.population_rows = 4;
  GroupedEstimates est =
      EstimateGroupedAggregates(s, {Col("g")}, {{AggKind::kSum, Col("x"), "s"}})
          .value();
  const double in_order = ((0.0 + 1.0 * big) + 1.0 * 1.0) + 2.0 * 0.5;
  const double reversed = ((0.0 + 2.0 * 0.5) + 1.0 * 1.0) + 1.0 * big;
  ASSERT_NE(in_order, reversed);
  EXPECT_EQ(est.estimates[0][0].estimate, in_order);
}

TEST(GroupedEstimateTest, RepeatedRunsAreBitIdentical) {
  Table t = testutil::ZipfGroupedTable(20000, 50, 0.8, 9);
  Sample s = BlockSample(t, 0.2, 16, 4).value();
  const std::vector<AggSpec> aggs = {{AggKind::kSum, Col("x"), "s"},
                                     {AggKind::kAvg, Col("x"), "a"},
                                     {AggKind::kCountStar, nullptr, "n"}};
  GroupedEstimates first =
      EstimateGroupedAggregates(s, {Col("g")}, aggs).value();
  for (int run = 0; run < 3; ++run) {
    GroupedEstimates again =
        EstimateGroupedAggregates(s, {Col("g")}, aggs).value();
    ASSERT_EQ(again.num_groups, first.num_groups);
    for (size_t a = 0; a < aggs.size(); ++a) {
      for (size_t g = 0; g < first.num_groups; ++g) {
        EXPECT_EQ(std::bit_cast<uint64_t>(again.estimates[a][g].estimate),
                  std::bit_cast<uint64_t>(first.estimates[a][g].estimate));
        EXPECT_EQ(std::bit_cast<uint64_t>(again.estimates[a][g].variance),
                  std::bit_cast<uint64_t>(first.estimates[a][g].variance));
      }
    }
  }
}

TEST(GroupedEstimateTest, CountSkipsNullsCountStarDoesNot) {
  Table t(Schema({{"x", DataType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(1.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  GroupedEstimates est =
      EstimateGroupedAggregates(s, {},
                                {{AggKind::kCount, Col("x"), "c"},
                                 {AggKind::kCountStar, nullptr, "n"}})
          .value();
  EXPECT_DOUBLE_EQ(est.estimates[0][0].estimate, 1.0);
  EXPECT_DOUBLE_EQ(est.estimates[1][0].estimate, 2.0);
}

TEST(GroupedEstimateTest, NonNumericArgRejected) {
  Table t(Schema({{"s", DataType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value(std::string("a"))}).ok());
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  EXPECT_FALSE(EstimateGroupedAggregates(
                   s, {}, {{AggKind::kSum, Col("s"), "x"}})
                   .ok());
}

// Scalar estimates: the Sample entry with no group keys, a predicate applied
// by FilterSample first — how every stored-sample caller estimates one
// aggregate.

TEST(ScalarEstimateTest, SumAndAvgRequireAnArgument) {
  Table t = testutil::DoubleTable({1.0});
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  for (AggKind kind : {AggKind::kSum, AggKind::kAvg}) {
    EXPECT_EQ(EstimateGroupedAggregates(s, {}, {{kind, nullptr, "a"}})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ScalarEstimateTest, FullSampleIsExactWithZeroVariance) {
  Table t = testutil::DoubleTable({1.0, 2.0, 3.0, 4.0});
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  GroupedEstimates est =
      EstimateGroupedAggregates(s, {},
                                {{AggKind::kSum, Col("x"), "s"},
                                 {AggKind::kCountStar, nullptr, "n"},
                                 {AggKind::kAvg, Col("x"), "a"}})
          .value();
  EXPECT_DOUBLE_EQ(est.estimates[0][0].estimate, 10.0);
  EXPECT_DOUBLE_EQ(est.estimates[0][0].variance, 0.0);
  EXPECT_DOUBLE_EQ(est.estimates[1][0].estimate, 4.0);
  EXPECT_DOUBLE_EQ(est.estimates[2][0].estimate, 2.5);
}

TEST(ScalarEstimateTest, PredicateRestriction) {
  Table t = testutil::GroupedTable(
      {{0, 1.0}, {1, 10.0}, {0, 2.0}, {1, 20.0}, {0, 3.0}});
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  Sample kept = FilterSample(s, Eq(Col("g"), Lit(int64_t{1}))).value();
  GroupedEstimates est =
      EstimateGroupedAggregates(kept, {},
                                {{AggKind::kSum, Col("x"), "s"},
                                 {AggKind::kCountStar, nullptr, "n"},
                                 {AggKind::kAvg, Col("x"), "a"}})
          .value();
  EXPECT_DOUBLE_EQ(est.estimates[0][0].estimate, 30.0);
  EXPECT_DOUBLE_EQ(est.estimates[1][0].estimate, 2.0);
  EXPECT_DOUBLE_EQ(est.estimates[2][0].estimate, 15.0);
}

TEST(ScalarEstimateTest, NonBooleanPredicateRejected) {
  Table t = testutil::DoubleTable({1.0});
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  EXPECT_EQ(FilterSample(s, Col("x")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScalarEstimateTest, AvgWithNoQualifyingRowsIsZero) {
  Table t = testutil::DoubleTable({1.0, 2.0});
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  Sample none = FilterSample(s, Gt(Col("x"), Lit(1e9))).value();
  GroupedEstimates est =
      EstimateGroupedAggregates(none, {},
                                {{AggKind::kAvg, Col("x"), "a"},
                                 {AggKind::kCount, Col("x"), "c"}})
          .value();
  EXPECT_EQ(est.estimates[0][0].estimate, 0.0);
  EXPECT_EQ(est.estimates[0][0].variance, 0.0);
  EXPECT_EQ(est.estimates[1][0].estimate, 0.0);
}

TEST(ScalarEstimateTest, FilteredStratumKeepsTheStratifiedDesign) {
  // Equal allocation samples the small stratum g=1 whole (weight 1) and the
  // large one at 1/40 (weight 40). A filter to g=1 leaves rows of equal
  // weight, but the design is still unequal-probability: the HT total over
  // a census stratum is its exact sum with zero variance.
  std::vector<std::pair<int64_t, double>> rows;
  for (int i = 0; i < 4000; ++i) rows.push_back({0, 1.0 + i % 5});
  for (int i = 0; i < 100; ++i) rows.push_back({1, 10.0 + i});
  Table t = testutil::GroupedTable(rows);
  Sample s =
      StratifiedSample(t, "g", 200, Allocation::kEqual, 3).value().sample;
  Sample kept = FilterSample(s, Eq(Col("g"), Lit(int64_t{1}))).value();
  PointEstimate sum =
      EstimateGroupedAggregates(kept, {}, {{AggKind::kSum, Col("x"), "s"}})
          .value()
          .estimates[0][0];
  EXPECT_DOUBLE_EQ(sum.estimate, 100 * 10.0 + 99 * 100 / 2.0);
  EXPECT_EQ(sum.variance, 0.0);
}

TEST(ScalarEstimateTest, NullMeasuresSkippedInSum) {
  Table t(Schema({{"x", DataType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(5.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(7.0)}).ok());
  Sample s = BernoulliRowSample(t, 1.0, 1).value();
  GroupedEstimates est =
      EstimateGroupedAggregates(s, {},
                                {{AggKind::kSum, Col("x"), "s"},
                                 {AggKind::kCountStar, nullptr, "n"}})
          .value();
  EXPECT_DOUBLE_EQ(est.estimates[0][0].estimate, 12.0);
  // COUNT(*) counts all rows regardless of NULL measure.
  EXPECT_DOUBLE_EQ(est.estimates[1][0].estimate, 3.0);
}

TEST(ScalarEstimateTest, CiCoversTruthAtNominalRate) {
  // Property test over seeds: 95% CI for the SUM should cover the exact sum
  // in roughly 95% of repetitions.
  Table t = testutil::ZipfGroupedTable(20000, 10, 0.5, 99);
  double truth = testutil::ExactSum(t, "x");
  int covered = 0;
  const int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = BernoulliRowSample(t, 0.02, 5000 + trial).value();
    PointEstimate est =
        EstimateGroupedAggregates(s, {}, {{AggKind::kSum, Col("x"), "s"}})
            .value()
            .estimates[0][0];
    if (est.Ci(0.95).Covers(truth)) ++covered;
  }
  double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GE(coverage, 0.90);
}

// A table whose blocks are internally homogeneous (values clustered by
// position): row-level variance would be far too small for a block sample.
Table ClusteredTable(size_t rows, uint32_t block, uint64_t seed) {
  Table t(Schema({{"x", DataType::kDouble}}));
  Pcg32 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    double block_mean = static_cast<double>(i / block);  // Clustered!
    EXPECT_TRUE(t.AppendRow({Value(block_mean + 0.01 * rng.Gaussian())}).ok());
  }
  return t;
}

TEST(ScalarEstimateTest, BlockSampleCiAccountsForClustering) {
  // The unit-aware estimator must still achieve near-nominal coverage.
  const uint32_t kBlock = 200;
  Table t = ClusteredTable(40000, kBlock, 5);
  double truth = testutil::ExactSum(t, "x");
  int covered = 0;
  const int kTrials = 150;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = BlockSample(t, 0.05, kBlock, 8000 + trial).value();
    PointEstimate est =
        EstimateGroupedAggregates(s, {}, {{AggKind::kSum, Col("x"), "s"}})
            .value()
            .estimates[0][0];
    if (est.Ci(0.95).Covers(truth)) ++covered;
  }
  double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GE(coverage, 0.88);
}

TEST(ScalarEstimateTest, RowLevelTreatmentOfBlockSampleUndercovers) {
  // The failure mode motivating unit-aware estimation: pretend each row of a
  // block sample is independent and the CI collapses, losing coverage.
  const uint32_t kBlock = 200;
  Table t = ClusteredTable(40000, kBlock, 6);
  double truth = testutil::ExactSum(t, "x");
  int covered_naive = 0;
  const int kTrials = 100;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = BlockSample(t, 0.05, kBlock, 9000 + trial).value();
    // Sabotage: relabel every row as its own unit.
    Sample naive = s;
    naive.unit_ids.clear();
    for (size_t i = 0; i < naive.num_rows(); ++i) {
      naive.unit_ids.push_back(static_cast<uint32_t>(i));
    }
    naive.num_units_sampled = naive.num_rows();
    PointEstimate est =
        EstimateGroupedAggregates(naive, {}, {{AggKind::kSum, Col("x"), "s"}})
            .value()
            .estimates[0][0];
    if (est.Ci(0.95).Covers(truth)) ++covered_naive;
  }
  // Naive CI coverage collapses well below nominal on clustered data.
  EXPECT_LT(covered_naive, 80);
}

TEST(ScalarEstimateTest, AvgRatioEstimatorConverges) {
  Table t = testutil::ZipfGroupedTable(30000, 5, 0.3, 42);
  double exact_sum = testutil::ExactSum(t, "x");
  double exact_avg = exact_sum / 30000.0;
  double mean_est = 0.0;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = BernoulliRowSample(t, 0.03, 300 + trial).value();
    mean_est +=
        EstimateGroupedAggregates(s, {}, {{AggKind::kAvg, Col("x"), "a"}})
            .value()
            .estimates[0][0]
            .estimate /
        kTrials;
  }
  EXPECT_NEAR(mean_est, exact_avg, std::fabs(exact_avg) * 0.02);
}

TEST(ScalarEstimateTest, VarianceShrinksWithRate) {
  Table t = testutil::ZipfGroupedTable(20000, 10, 0.5, 17);
  Sample small = BernoulliRowSample(t, 0.01, 3).value();
  Sample large = BernoulliRowSample(t, 0.2, 3).value();
  double var_small =
      EstimateGroupedAggregates(small, {}, {{AggKind::kSum, Col("x"), "s"}})
          .value()
          .estimates[0][0]
          .variance;
  double var_large =
      EstimateGroupedAggregates(large, {}, {{AggKind::kSum, Col("x"), "s"}})
          .value()
          .estimates[0][0]
          .variance;
  EXPECT_LT(var_large, var_small);
}

// The statistical claim behind sampler pushdown: Filter(Sample(T)) and
// Sample(Filter(T)) give HT SUM estimates with the same distribution. We
// verify mean agreement across seeds.
TEST(SamplerPushdownTest, SamplerCommutesWithSelectionStatistically) {
  Table t = testutil::ZipfGroupedTable(20000, 8, 0.7, 3);
  ExprPtr pred = Gt(Col("x"), Lit(3.0));
  double mean_sample_then_filter = 0.0;
  double mean_filter_then_sample = 0.0;
  const int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Order A: sample first, then filter the sample.
    Sample s = BernoulliRowSample(t, 0.05, 10 + trial).value();
    Sample kept = FilterSample(s, pred).value();
    mean_sample_then_filter +=
        EstimateGroupedAggregates(kept, {}, {{AggKind::kSum, Col("x"), "s"}})
            .value()
            .estimates[0][0]
            .estimate /
        kTrials;

    // Order B: filter the base table first, then sample.
    std::vector<uint32_t> sel = EvalPredicate(*pred, t).value();
    Table filtered = t.Take(sel);
    Sample s2 = BernoulliRowSample(filtered, 0.05, 10 + trial).value();
    mean_filter_then_sample +=
        EstimateGroupedAggregates(s2, {}, {{AggKind::kSum, Col("x"), "s"}})
            .value()
            .estimates[0][0]
            .estimate /
        kTrials;
  }
  EXPECT_NEAR(mean_sample_then_filter, mean_filter_then_sample,
              std::fabs(mean_filter_then_sample) * 0.05);
}

}  // namespace
}  // namespace core
}  // namespace aqp
