#include "workload/querygen.h"

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "sql/binder.h"
#include "workload/datagen.h"

namespace aqp {
namespace workload {
namespace {

Catalog TestCatalog() {
  StarSchemaSpec spec;
  spec.fact_rows = 20000;
  spec.dim_sizes = {50};
  return GenerateStarSchema(spec, 7).value();
}

QueryGenOptions TestOptions() {
  QueryGenOptions opt;
  opt.table = "fact";
  opt.numeric_columns = {"measure_0", "measure_1"};
  opt.predicate_columns = {"measure_0", "measure_1"};
  opt.group_by_columns = {"fk_0"};
  return opt;
}

TEST(QueryGenTest, RequiresNumericColumns) {
  Catalog cat = TestCatalog();
  auto fact = ReadTable(cat, "fact").value();
  QueryGenOptions opt;
  QueryGenerator gen(*fact, opt);
  EXPECT_FALSE(gen.Generate(5, 1).ok());
}

TEST(QueryGenTest, GeneratedQueriesParseAndExecute) {
  Catalog cat = TestCatalog();
  auto fact = ReadTable(cat, "fact").value();
  QueryGenerator gen(*fact, TestOptions());
  auto queries = gen.Generate(20, 3).value();
  ASSERT_EQ(queries.size(), 20u);
  for (const QuerySpec& q : queries) {
    Result<Table> r = sql::ExecuteSql(q.sql, cat);
    EXPECT_TRUE(r.ok()) << q.sql << " -> " << r.status().ToString();
  }
}

TEST(QueryGenTest, DeterministicPerSeed) {
  Catalog cat = TestCatalog();
  auto fact = ReadTable(cat, "fact").value();
  QueryGenerator gen(*fact, TestOptions());
  auto a = gen.Generate(10, 5).value();
  auto b = gen.Generate(10, 5).value();
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(a[i].sql, b[i].sql);
}

TEST(QueryGenTest, SelectivityRoughlyCalibrated) {
  Catalog cat = TestCatalog();
  auto fact = ReadTable(cat, "fact").value();
  QueryGenOptions opt = TestOptions();
  opt.group_by_probability = 0.0;
  opt.predicate_probability = 1.0;
  QueryGenerator gen(*fact, opt);
  auto queries = gen.Generate(30, 7).value();
  int checked = 0;
  for (const QuerySpec& q : queries) {
    if (q.predicate_column.empty() || q.target_selectivity > 0.5) continue;
    // Count matching rows exactly via a COUNT(*) rewrite.
    std::string count_sql = q.sql;
    size_t from = count_sql.find(" FROM ");
    count_sql = "SELECT COUNT(*) AS n" + count_sql.substr(from);
    Table r = sql::ExecuteSql(count_sql, cat).value();
    double actual = static_cast<double>(r.column(0).Int64At(0)) /
                    static_cast<double>(fact->num_rows());
    EXPECT_NEAR(actual, q.target_selectivity,
                0.5 * q.target_selectivity + 0.02)
        << q.sql;
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

TEST(QueryGenTest, DriftRotatesPopularity) {
  Catalog cat = TestCatalog();
  auto fact = ReadTable(cat, "fact").value();
  QueryGenOptions opt = TestOptions();
  opt.drift = 0.5;
  QueryGenerator drifted(*fact, opt);
  auto order = drifted.DriftedOrder({"a", "b", "c", "d"});
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "c");  // Rotated by 2.
  opt.drift = 0.0;
  QueryGenerator stable(*fact, opt);
  auto same = stable.DriftedOrder({"a", "b", "c", "d"});
  EXPECT_EQ(same[0], "a");
}

TEST(QueryGenTest, ErrorClauseAppended) {
  Catalog cat = TestCatalog();
  auto fact = ReadTable(cat, "fact").value();
  QueryGenOptions opt = TestOptions();
  opt.error_clause = "WITH ERROR 5% CONFIDENCE 95%";
  QueryGenerator gen(*fact, opt);
  auto queries = gen.Generate(5, 9).value();
  for (const QuerySpec& q : queries) {
    EXPECT_NE(q.sql.find("WITH ERROR"), std::string::npos);
    // Still parses.
    EXPECT_TRUE(sql::BindSql(q.sql, cat).ok()) << q.sql;
  }
}

}  // namespace
}  // namespace workload
}  // namespace aqp
