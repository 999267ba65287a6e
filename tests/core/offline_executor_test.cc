#include "core/offline_executor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "sql/binder.h"
#include "workload/datagen.h"

namespace aqp {
namespace core {
namespace {

class OfflineExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = workload::GenerateLineitemLike(100000, 7).value();
    ASSERT_TRUE(samples_.BuildUniform(catalog_, "lineitem", 8000, 3).ok());
    ASSERT_TRUE(
        samples_.BuildStratified(catalog_, "lineitem", "shipmode", 8000, 5)
            .ok());
  }
  Catalog catalog_;
  SampleCatalog samples_;
};

TEST_F(OfflineExecutorTest, GlobalAggregateFromStoredSample) {
  Table exact =
      sql::ExecuteSql("SELECT SUM(extendedprice) AS s FROM lineitem",
                      catalog_)
          .value();
  double truth = exact.column(0).DoubleAt(0);
  OfflineExecutor exec(&catalog_, &samples_);
  ApproxResult r =
      exec.Execute("SELECT SUM(extendedprice) AS s FROM lineitem").value();
  EXPECT_TRUE(r.approximated);
  EXPECT_NEAR(r.table.column(0).DoubleAt(0), truth, std::fabs(truth) * 0.1);
  EXPECT_TRUE(r.cis[0][0].Covers(r.table.column(0).DoubleAt(0)));
}

TEST_F(OfflineExecutorTest, GroupByPrefersStratifiedSample) {
  Table exact = sql::ExecuteSql(
                    "SELECT shipmode, AVG(quantity) AS q FROM lineitem "
                    "GROUP BY shipmode ORDER BY shipmode",
                    catalog_)
                    .value();
  OfflineExecutor exec(&catalog_, &samples_);
  ApproxResult r = exec.Execute(
                           "SELECT shipmode, AVG(quantity) AS q FROM lineitem "
                           "GROUP BY shipmode ORDER BY shipmode")
                       .value();
  ASSERT_EQ(r.table.num_rows(), exact.num_rows());
  for (size_t i = 0; i < exact.num_rows(); ++i) {
    EXPECT_EQ(r.table.column(0).StringAt(i), exact.column(0).StringAt(i));
    EXPECT_NEAR(r.table.column(1).DoubleAt(i), exact.column(1).DoubleAt(i),
                exact.column(1).DoubleAt(i) * 0.1);
  }
}

TEST_F(OfflineExecutorTest, WherePredicateApplied) {
  Table exact = sql::ExecuteSql(
                    "SELECT COUNT(*) AS n FROM lineitem WHERE quantity <= 10",
                    catalog_)
                    .value();
  double truth = static_cast<double>(exact.column(0).Int64At(0));
  OfflineExecutor exec(&catalog_, &samples_);
  ApproxResult r =
      exec.Execute(
              "SELECT COUNT(*) AS n FROM lineitem WHERE quantity <= 10")
          .value();
  EXPECT_NEAR(static_cast<double>(r.table.column(0).Int64At(0)), truth,
              truth * 0.1);
}

TEST_F(OfflineExecutorTest, QualifiedColumnsResolve) {
  OfflineExecutor exec(&catalog_, &samples_);
  ApproxResult r =
      exec.Execute("SELECT SUM(l.quantity) AS q FROM lineitem AS l").value();
  EXPECT_TRUE(r.approximated);
  EXPECT_GT(r.table.column(0).DoubleAt(0), 0.0);
}

TEST_F(OfflineExecutorTest, JoinsUnsupported) {
  OfflineExecutor exec(&catalog_, &samples_);
  Result<ApproxResult> r = exec.Execute(
      "SELECT SUM(l.quantity) AS q FROM lineitem AS l "
      "JOIN orders AS o ON l.orderkey = o.orderkey");
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST_F(OfflineExecutorTest, NonLinearAggregatesUnsupported) {
  OfflineExecutor exec(&catalog_, &samples_);
  EXPECT_EQ(exec.Execute("SELECT MAX(quantity) AS m FROM lineitem")
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST_F(OfflineExecutorTest, NonAggregateUnsupported) {
  OfflineExecutor exec(&catalog_, &samples_);
  EXPECT_EQ(exec.Execute("SELECT quantity FROM lineitem").status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(OfflineExecutorTest, MissingSampleIsNotFound) {
  OfflineExecutor exec(&catalog_, &samples_);
  EXPECT_EQ(exec.Execute("SELECT COUNT(*) AS n FROM orders").status().code(),
            StatusCode::kNotFound);
}

TEST_F(OfflineExecutorTest, QueryLatencyIndependentOfBaseSize) {
  // The point of offline AQP: the stored sample answers without touching the
  // base table, so the answer survives even after the base table is dropped.
  Catalog stripped = catalog_;
  // Keep schema knowledge by re-registering an empty shell... actually the
  // binder needs the table for name resolution, so register a tiny stub with
  // the same schema.
  auto base = ReadTable(catalog_, "lineitem").value();
  auto stub = std::make_shared<Table>(base->schema());
  stripped.RegisterOrReplace("lineitem", stub);
  OfflineExecutor exec(&stripped, &samples_);
  ApproxResult r =
      exec.Execute("SELECT SUM(extendedprice) AS s FROM lineitem").value();
  EXPECT_GT(r.table.column(0).DoubleAt(0), 0.0);  // Still answers.
}

}  // namespace
}  // namespace core
}  // namespace aqp
