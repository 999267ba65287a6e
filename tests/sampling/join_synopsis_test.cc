#include "sampling/join_synopsis.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/estimate.h"
#include "test_util.h"

namespace aqp {
namespace {

// Star pair: fact(fk, amount) -> dim(pk, factor).
struct StarPair {
  Table fact{Schema({{"fk", DataType::kInt64}, {"amount", DataType::kDouble}})};
  Table dim{Schema({{"pk", DataType::kInt64}, {"factor", DataType::kDouble}})};
};

StarPair MakeStar(size_t fact_rows, int64_t dim_rows, uint64_t seed) {
  StarPair star;
  Pcg32 rng(seed);
  for (int64_t k = 0; k < dim_rows; ++k) {
    Status s = star.dim.AppendRow(
        {Value(k), Value(1.0 + static_cast<double>(k % 7))});
    AQP_CHECK(s.ok());
  }
  for (size_t i = 0; i < fact_rows; ++i) {
    int64_t fk = static_cast<int64_t>(rng.UniformUint64(dim_rows));
    Status s = star.fact.AppendRow({Value(fk), Value(rng.NextDouble() * 10)});
    AQP_CHECK(s.ok());
  }
  return star;
}

// Exact SUM(amount * factor) over the join.
double ExactJoinSum(const StarPair& star) {
  std::vector<double> factor_by_pk(star.dim.num_rows());
  for (size_t j = 0; j < star.dim.num_rows(); ++j) {
    factor_by_pk[star.dim.column(0).Int64At(j)] =
        star.dim.column(1).DoubleAt(j);
  }
  double total = 0.0;
  for (size_t i = 0; i < star.fact.num_rows(); ++i) {
    total += star.fact.column(1).DoubleAt(i) *
             factor_by_pk[star.fact.column(0).Int64At(i)];
  }
  return total;
}

TEST(JoinSynopsisTest, Validation) {
  StarPair star = MakeStar(100, 10, 1);
  EXPECT_FALSE(BuildJoinSynopsis(star.fact, "fk", star.dim, "pk", 0.0, 1).ok());
  EXPECT_FALSE(
      BuildJoinSynopsis(star.fact, "ghost", star.dim, "pk", 0.5, 1).ok());
  EXPECT_FALSE(
      BuildJoinSynopsis(star.fact, "amount", star.dim, "pk", 0.5, 1).ok())
      << "key type mismatch must be rejected";
}

TEST(JoinSynopsisTest, SchemaIsFactThenDim) {
  StarPair star = MakeStar(100, 10, 1);
  Sample s = BuildJoinSynopsis(star.fact, "fk", star.dim, "pk", 1.0, 1).value();
  ASSERT_EQ(s.table.num_columns(), 4u);
  EXPECT_EQ(s.table.schema().field(0).name, "fk");
  EXPECT_EQ(s.table.schema().field(2).name, "pk");
  EXPECT_EQ(s.num_rows(), 100u);  // FK join at rate 1 = full join.
}

TEST(JoinSynopsisTest, JoinedRowsAreConsistent) {
  StarPair star = MakeStar(500, 20, 3);
  Sample s =
      BuildJoinSynopsis(star.fact, "fk", star.dim, "pk", 0.3, 5).value();
  for (size_t i = 0; i < s.num_rows(); ++i) {
    EXPECT_EQ(s.table.column(0).Int64At(i), s.table.column(2).Int64At(i));
  }
}

TEST(JoinSynopsisTest, SynopsisSumUnbiased) {
  StarPair star = MakeStar(20000, 50, 7);
  double truth = ExactJoinSum(star);
  double mean_est = 0.0;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample s = BuildJoinSynopsis(star.fact, "fk", star.dim, "pk", 0.05,
                                 600 + trial)
                   .value();
    core::PointEstimate est =
        core::EstimateGroupedAggregates(
            s, {}, {{AggKind::kSum, Mul(Col("amount"), Col("factor")), "s"}})
            .value()
            .estimates[0][0];
    mean_est += est.estimate / kTrials;
  }
  EXPECT_NEAR(mean_est, truth, truth * 0.05);
}

TEST(JoinSynopsisTest, CountStarIsTheJoinCardinality) {
  // A synopsis has equal weights and no unit sizes, so the estimator
  // expands the mean unit count to the fact's units: COUNT(*) over an FK
  // join synopsis is the join cardinality exactly, with zero variance.
  StarPair star = MakeStar(20000, 50, 7);
  for (uint64_t seed : {600, 601, 602}) {
    Sample s =
        BuildJoinSynopsis(star.fact, "fk", star.dim, "pk", 0.05, seed).value();
    core::PointEstimate n =
        core::EstimateGroupedAggregates(s, {},
                                        {{AggKind::kCountStar, nullptr, "n"}})
            .value()
            .estimates[0][0];
    EXPECT_EQ(n.estimate, 20000.0);
    EXPECT_EQ(n.variance, 0.0);
  }
}

TEST(JoinOfSamplesTest, SampleSizeCollapsesQuadratically) {
  StarPair star = MakeStar(20000, 2000, 9);
  const double kRate = 0.05;
  Sample synopsis =
      BuildJoinSynopsis(star.fact, "fk", star.dim, "pk", kRate, 5).value();
  Sample both =
      JoinOfSamples(star.fact, "fk", star.dim, "pk", kRate, 5).value();
  // Synopsis keeps ~rate of join rows; join-of-samples only ~rate^2.
  EXPECT_GT(synopsis.num_rows(), both.num_rows() * 5);
}

TEST(JoinOfSamplesTest, StillUnbiasedButMuchHigherVariance) {
  StarPair star = MakeStar(10000, 200, 11);
  double truth = ExactJoinSum(star);
  const double kRate = 0.1;
  const int kTrials = 50;
  double mean_both = 0.0;
  double mse_syn = 0.0;
  double mse_both = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Sample syn = BuildJoinSynopsis(star.fact, "fk", star.dim, "pk", kRate,
                                   700 + trial)
                     .value();
    core::PointEstimate es =
        core::EstimateGroupedAggregates(
            syn, {}, {{AggKind::kSum, Mul(Col("amount"), Col("factor")), "s"}})
            .value()
            .estimates[0][0];
    mse_syn += (es.estimate - truth) * (es.estimate - truth) / kTrials;

    Sample both = JoinOfSamples(star.fact, "fk", star.dim, "pk", kRate,
                                800 + trial)
                      .value();
    core::PointEstimate eb =
        core::EstimateGroupedAggregates(
            both, {}, {{AggKind::kSum, Mul(Col("amount"), Col("factor")), "s"}})
            .value()
            .estimates[0][0];
    mean_both += eb.estimate / kTrials;
    mse_both += (eb.estimate - truth) * (eb.estimate - truth) / kTrials;
  }
  // Unbiased within noise...
  EXPECT_NEAR(mean_both, truth, truth * 0.15);
  // ...but with far worse variance than the synopsis — the paper's point.
  EXPECT_GT(mse_both, mse_syn * 3.0);
}

TEST(JoinSynopsisTest, DanglingFactRowsDropped) {
  StarPair star = MakeStar(100, 10, 13);
  ASSERT_TRUE(star.fact.AppendRow({Value(int64_t{999}), Value(5.0)}).ok());
  Sample s =
      BuildJoinSynopsis(star.fact, "fk", star.dim, "pk", 1.0, 1).value();
  EXPECT_EQ(s.num_rows(), 100u);  // The dangling row never appears.
}

}  // namespace
}  // namespace aqp
