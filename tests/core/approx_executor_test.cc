#include "core/approx_executor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sql/binder.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace core {
namespace {

// 60k-row fact table with skewed groups and two measures.
Catalog TestCatalog(uint64_t seed = 3) {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 60000;
  spec.dim_sizes = {12};
  spec.fk_skew = 0.25;
  return workload::GenerateStarSchema(spec, seed).value();
}

AqpOptions FastOptions() {
  AqpOptions opt;
  opt.pilot_rate = 0.02;
  opt.block_size = 64;
  opt.min_table_rows = 1000;
  opt.max_rate = 0.8;
  return opt;
}

TEST(ApproxExecutorTest, FallbackWithoutContract) {
  Catalog cat = TestCatalog();
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r =
      exec.Execute("SELECT SUM(measure_0) AS s FROM fact").value();
  EXPECT_FALSE(r.approximated);
  EXPECT_NE(r.profile.fallback_reason.find("no error contract"),
            std::string::npos);
  // Result is the exact answer.
  Table exact =
      sql::ExecuteSql("SELECT SUM(measure_0) AS s FROM fact", cat).value();
  EXPECT_DOUBLE_EQ(r.table.column(0).DoubleAt(0),
                   exact.column(0).DoubleAt(0));
}

TEST(ApproxExecutorTest, FallbackForNonLinearAggregate) {
  Catalog cat = TestCatalog();
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(
                           "SELECT MAX(measure_0) AS m FROM fact "
                           "WITH ERROR 5% CONFIDENCE 95%")
                       .value();
  EXPECT_FALSE(r.approximated);
  EXPECT_NE(r.profile.fallback_reason.find("non-linear"), std::string::npos);
}

TEST(ApproxExecutorTest, FallbackForNonAggregateQuery) {
  Catalog cat = TestCatalog();
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(
                           "SELECT measure_0 FROM fact LIMIT 5 "
                           "WITH ERROR 5% CONFIDENCE 95%")
                       .value();
  EXPECT_FALSE(r.approximated);
}

TEST(ApproxExecutorTest, FallbackForTinyTables) {
  Catalog cat = TestCatalog();
  AqpOptions opt = FastOptions();
  opt.min_table_rows = 1000000;  // Nothing is big enough.
  ApproxExecutor exec(&cat, opt);
  ApproxResult r = exec.Execute(
                           "SELECT SUM(measure_0) AS s FROM fact "
                           "WITH ERROR 5% CONFIDENCE 95%")
                       .value();
  EXPECT_FALSE(r.approximated);
  EXPECT_NE(r.profile.fallback_reason.find("large enough"), std::string::npos);
}

TEST(ApproxExecutorTest, GlobalSumWithinContract) {
  Catalog cat = TestCatalog();
  Table exact =
      sql::ExecuteSql("SELECT SUM(measure_0) AS s FROM fact", cat).value();
  double truth = exact.column(0).DoubleAt(0);
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(
                           "SELECT SUM(measure_0) AS s FROM fact "
                           "WITH ERROR 5% CONFIDENCE 95%")
                       .value();
  ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
  double estimate = r.table.column(0).DoubleAt(0);
  EXPECT_NEAR(estimate, truth, std::fabs(truth) * 0.05);
  ASSERT_EQ(r.cis.size(), 1u);
  // The CI is a statistical object: on this fixed seed just check shape
  // (coverage across seeds is asserted in ContractCoverageAcrossSeeds).
  EXPECT_LT(r.cis[0][0].low, r.cis[0][0].high);
  EXPECT_TRUE(r.cis[0][0].Covers(estimate));
  EXPECT_GT(r.profile.sampled_fraction, 0.0);
  EXPECT_LE(r.profile.sampled_fraction, 0.8);
  EXPECT_EQ(r.profile.sampled_table, "fact");
}

TEST(ApproxExecutorTest, OutputShapeMatchesExact) {
  Catalog cat = TestCatalog();
  const char* kSql =
      "SELECT fk_0, SUM(measure_0) AS total, COUNT(*) AS n FROM fact "
      "GROUP BY fk_0 ORDER BY fk_0";
  Table exact = sql::ExecuteSql(kSql, cat).value();
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(std::string(kSql) +
                                " WITH ERROR 10% CONFIDENCE 90%")
                       .value();
  ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
  EXPECT_EQ(r.table.num_columns(), exact.num_columns());
  EXPECT_EQ(r.table.schema().field(0).name, "fk_0");
  EXPECT_EQ(r.table.schema().field(1).name, "total");
  EXPECT_EQ(r.table.schema().field(2).name, "n");
  // All groups present (coverage logic raised the pilot rate).
  EXPECT_EQ(r.table.num_rows(), exact.num_rows());
}

TEST(ApproxExecutorTest, GroupedEstimatesNearTruth) {
  Catalog cat = TestCatalog();
  const char* kExact =
      "SELECT fk_0, AVG(measure_1) AS m FROM fact GROUP BY fk_0 "
      "ORDER BY fk_0";
  Table exact = sql::ExecuteSql(kExact, cat).value();
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(std::string(kExact) +
                                " WITH ERROR 5% CONFIDENCE 95%")
                       .value();
  ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
  ASSERT_EQ(r.table.num_rows(), exact.num_rows());
  for (size_t i = 0; i < exact.num_rows(); ++i) {
    double truth = exact.column(1).DoubleAt(i);
    double est = r.table.column(1).DoubleAt(i);
    EXPECT_NEAR(est, truth, std::fabs(truth) * 0.05 + 1e-9)
        << "group row " << i;
  }
}

TEST(ApproxExecutorTest, CompositeAggregateItem) {
  Catalog cat = TestCatalog();
  const char* kExact =
      "SELECT SUM(measure_0) / COUNT(*) AS mean_measure FROM fact";
  Table exact = sql::ExecuteSql(kExact, cat).value();
  double truth = exact.column(0).DoubleAt(0);
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(std::string(kExact) +
                                " WITH ERROR 5% CONFIDENCE 95%")
                       .value();
  ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
  EXPECT_NEAR(r.table.column(0).DoubleAt(0), truth, std::fabs(truth) * 0.05);
  // Composite CI covers.
  EXPECT_TRUE(r.cis[0][0].Covers(truth));
}

TEST(ApproxExecutorTest, JoinQueryApproximated) {
  Catalog cat = TestCatalog();
  const char* kExact =
      "SELECT d.band, SUM(f.measure_0) AS s FROM fact AS f "
      "JOIN dim_0 AS d ON f.fk_0 = d.pk GROUP BY d.band ORDER BY d.band";
  Table exact = sql::ExecuteSql(kExact, cat).value();
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(std::string(kExact) +
                                " WITH ERROR 10% CONFIDENCE 90%")
                       .value();
  ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
  EXPECT_EQ(r.profile.sampled_table, "fact");  // Fact side is the big one.
  ASSERT_EQ(r.table.num_rows(), exact.num_rows());
  for (size_t i = 0; i < exact.num_rows(); ++i) {
    double truth = exact.column(1).DoubleAt(i);
    EXPECT_NEAR(r.table.column(1).DoubleAt(i), truth,
                std::fabs(truth) * 0.10 + 1e-9);
  }
}

TEST(ApproxExecutorTest, SelectiveWherePreserved) {
  Catalog cat = TestCatalog();
  const char* kExact =
      "SELECT COUNT(*) AS n FROM fact WHERE measure_1 > 120";
  Table exact = sql::ExecuteSql(kExact, cat).value();
  double truth = static_cast<double>(exact.column(0).Int64At(0));
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(std::string(kExact) +
                                " WITH ERROR 10% CONFIDENCE 90%")
                       .value();
  ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
  double est = static_cast<double>(r.table.column(0).Int64At(0));
  EXPECT_NEAR(est, truth, truth * 0.1);
}

TEST(ApproxExecutorTest, InfeasiblyTightContractFallsBack) {
  Catalog cat = TestCatalog();
  AqpOptions opt = FastOptions();
  opt.max_rate = 0.02;  // Hardly any room.
  ApproxExecutor exec(&cat, opt);
  ApproxResult r = exec.Execute(
                           "SELECT SUM(measure_0) AS s FROM fact "
                           "WITH ERROR 0.1% CONFIDENCE 99%")
                       .value();
  EXPECT_FALSE(r.approximated);
  EXPECT_NE(r.profile.fallback_reason.find("infeasible"), std::string::npos);
  // Exact answer still returned.
  EXPECT_EQ(r.table.num_rows(), 1u);
}

TEST(ApproxExecutorTest, HavingFallsBack) {
  Catalog cat = TestCatalog();
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(
                           "SELECT fk_0, SUM(measure_0) AS s FROM fact "
                           "GROUP BY fk_0 HAVING SUM(measure_0) > 100 "
                           "WITH ERROR 5% CONFIDENCE 95%")
                       .value();
  EXPECT_FALSE(r.approximated);
}

TEST(ApproxExecutorTest, ContractCoverageAcrossSeeds) {
  // The headline property: across repeated executions, the relative error of
  // every aggregate stays within the contract in ~confidence fraction of
  // runs (conservative allocation should push the hit rate above nominal).
  Catalog cat = TestCatalog(17);
  Table exact =
      sql::ExecuteSql("SELECT SUM(measure_0) AS s FROM fact", cat).value();
  double truth = exact.column(0).DoubleAt(0);
  int within = 0;
  const int kTrials = 25;
  for (int trial = 0; trial < kTrials; ++trial) {
    AqpOptions opt = FastOptions();
    opt.seed = 1000 + trial * 13;
    ApproxExecutor exec(&cat, opt);
    ApproxResult r = exec.Execute(
                             "SELECT SUM(measure_0) AS s FROM fact "
                             "WITH ERROR 5% CONFIDENCE 95%")
                         .value();
    ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
    double rel = std::fabs(r.table.column(0).DoubleAt(0) - truth) /
                 std::fabs(truth);
    if (rel <= 0.05) ++within;
  }
  EXPECT_GE(within, static_cast<int>(kTrials * 0.9));
}

TEST(ApproxExecutorTest, LatencyDecompositionPopulated) {
  Catalog cat = TestCatalog();
  ApproxExecutor exec(&cat, FastOptions());
  ApproxResult r = exec.Execute(
                           "SELECT SUM(measure_0) AS s FROM fact "
                           "WITH ERROR 5% CONFIDENCE 95%")
                       .value();
  ASSERT_TRUE(r.approximated);
  EXPECT_GT(r.profile.pilot_seconds, 0.0);
  EXPECT_GE(r.profile.planning_seconds, 0.0);
  EXPECT_GT(r.profile.final_seconds, 0.0);
  EXPECT_GT(r.profile.rows_scanned, 0u);
}

TEST(ApproxExecutorTest, BernoulliRowMethodAlsoWorks) {
  Catalog cat = TestCatalog();
  AqpOptions opt = FastOptions();
  opt.method = SampleSpec::Method::kBernoulliRow;
  Table exact =
      sql::ExecuteSql("SELECT AVG(measure_1) AS a FROM fact", cat).value();
  double truth = exact.column(0).DoubleAt(0);
  ApproxExecutor exec(&cat, opt);
  ApproxResult r = exec.Execute(
                           "SELECT AVG(measure_1) AS a FROM fact "
                           "WITH ERROR 3% CONFIDENCE 95%")
                       .value();
  ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
  EXPECT_NEAR(r.table.column(0).DoubleAt(0), truth, std::fabs(truth) * 0.03);
}

}  // namespace
}  // namespace core
}  // namespace aqp
