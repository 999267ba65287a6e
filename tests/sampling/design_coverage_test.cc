// Cross-design statistical property sweep: for every sampling design and
// every linear aggregate, confidence intervals must achieve near-nominal
// coverage and estimates must concentrate on the truth.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/estimate.h"
#include "sampling/bernoulli.h"
#include "sampling/block.h"
#include "sampling/congressional.h"
#include "sampling/reservoir.h"
#include "sampling/stratified.h"
#include "test_util.h"

namespace aqp {
namespace {

enum class Design { kBernoulli, kBlock, kReservoir, kStratified, kCongress };
enum class Agg { kSum, kCount, kAvg };

struct Case {
  Design design;
  Agg agg;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  std::string d;
  switch (info.param.design) {
    case Design::kBernoulli:
      d = "Bernoulli";
      break;
    case Design::kBlock:
      d = "Block";
      break;
    case Design::kReservoir:
      d = "Reservoir";
      break;
    case Design::kStratified:
      d = "Stratified";
      break;
    case Design::kCongress:
      d = "Congressional";
      break;
  }
  switch (info.param.agg) {
    case Agg::kSum:
      return d + "Sum";
    case Agg::kCount:
      return d + "Count";
    case Agg::kAvg:
      return d + "Avg";
  }
  return d;
}

class DesignCoverageTest : public ::testing::TestWithParam<Case> {};

TEST_P(DesignCoverageTest, CiCoverageNearNominal) {
  const Case c = GetParam();
  Table t = testutil::ZipfGroupedTable(30000, 8, 0.6, 11);
  // Qualifying predicate: x above its rough median, exercising the
  // predicate path of every estimator.
  ExprPtr pred = Gt(Col("x"), Lit(3.0));
  // Exact answers.
  double sum_truth = 0.0;
  double count_truth = 0.0;
  size_t xcol = t.ColumnIndex("x").value();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    double x = t.column(xcol).NumericAt(i);
    if (x > 3.0) {
      sum_truth += x;
      count_truth += 1.0;
    }
  }
  double truth = 0.0;
  switch (c.agg) {
    case Agg::kSum:
      truth = sum_truth;
      break;
    case Agg::kCount:
      truth = count_truth;
      break;
    case Agg::kAvg:
      truth = sum_truth / count_truth;
      break;
  }

  int covered = 0;
  double mean_est = 0.0;
  const int kTrials = 120;
  for (int trial = 0; trial < kTrials; ++trial) {
    uint64_t seed = 10000 + trial;
    Sample sample;
    switch (c.design) {
      case Design::kBernoulli:
        sample = BernoulliRowSample(t, 0.05, seed).value();
        break;
      case Design::kBlock:
        sample = BlockSample(t, 0.05, 100, seed).value();
        break;
      case Design::kReservoir:
        sample = ReservoirSample(t, 1500, seed).value();
        break;
      case Design::kStratified:
        sample = StratifiedSample(t, "g", 1500, Allocation::kProportional,
                                  seed)
                     .value()
                     .sample;
        break;
      case Design::kCongress:
        sample = CongressionalSample(t, "g", 1500, seed).value().sample;
        break;
    }
    sample = core::FilterSample(sample, pred).value();
    AggSpec spec{AggKind::kSum, Col("x"), "s"};
    if (c.agg == Agg::kCount) spec = {AggKind::kCountStar, nullptr, "n"};
    if (c.agg == Agg::kAvg) spec = {AggKind::kAvg, Col("x"), "a"};
    Result<core::GroupedEstimates> est =
        core::EstimateGroupedAggregates(sample, {}, {spec});
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    const core::PointEstimate& pe = est->estimates[0][0];
    mean_est += pe.estimate / kTrials;
    if (pe.Ci(0.95).Covers(truth)) ++covered;
  }
  double coverage = static_cast<double>(covered) / kTrials;
  // Near-unbiased...
  EXPECT_NEAR(mean_est, truth, std::fabs(truth) * 0.05)
      << CaseName({GetParam(), 0});
  // ...with near-nominal (or conservative) interval coverage.
  EXPECT_GE(coverage, 0.85) << CaseName({GetParam(), 0});
}

INSTANTIATE_TEST_SUITE_P(
    AllDesignsAllAggregates, DesignCoverageTest,
    ::testing::Values(Case{Design::kBernoulli, Agg::kSum},
                      Case{Design::kBernoulli, Agg::kCount},
                      Case{Design::kBernoulli, Agg::kAvg},
                      Case{Design::kBlock, Agg::kSum},
                      Case{Design::kBlock, Agg::kCount},
                      Case{Design::kBlock, Agg::kAvg},
                      Case{Design::kReservoir, Agg::kSum},
                      Case{Design::kReservoir, Agg::kCount},
                      Case{Design::kReservoir, Agg::kAvg},
                      Case{Design::kStratified, Agg::kSum},
                      Case{Design::kStratified, Agg::kCount},
                      Case{Design::kStratified, Agg::kAvg},
                      Case{Design::kCongress, Agg::kSum},
                      Case{Design::kCongress, Agg::kCount},
                      Case{Design::kCongress, Agg::kAvg}),
    CaseName);

}  // namespace
}  // namespace aqp
