#include "sql/binder.h"

#include <gtest/gtest.h>

namespace aqp {
namespace sql {
namespace {

Catalog MakeCatalog() {
  Catalog cat;
  auto sales = std::make_shared<Table>(Schema({{"region", DataType::kString},
                                               {"cust", DataType::kInt64},
                                               {"amount",
                                                DataType::kDouble}}));
  auto add_sale = [&](const char* r, int64_t c, double a) {
    EXPECT_TRUE(
        sales->AppendRow({Value(std::string(r)), Value(c), Value(a)}).ok());
  };
  add_sale("east", 1, 10.0);
  add_sale("west", 2, 20.0);
  add_sale("east", 1, 30.0);
  add_sale("west", 3, 40.0);
  add_sale("east", 2, 50.0);

  auto custs = std::make_shared<Table>(
      Schema({{"cid", DataType::kInt64}, {"name", DataType::kString}}));
  auto add_cust = [&](int64_t c, const char* n) {
    EXPECT_TRUE(custs->AppendRow({Value(c), Value(std::string(n))}).ok());
  };
  add_cust(1, "ana");
  add_cust(2, "bob");
  add_cust(3, "cat");

  EXPECT_TRUE(cat.Register("sales", sales).ok());
  EXPECT_TRUE(cat.Register("customers", custs).ok());
  return cat;
}

TEST(BinderTest, SimpleProjection) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql("SELECT amount FROM sales", cat).value();
  EXPECT_EQ(out.num_rows(), 5u);
  EXPECT_EQ(out.schema().field(0).name, "amount");
}

TEST(BinderTest, ProjectionWithExpressionAndAlias) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT amount * 2 AS dbl, region FROM sales", cat).value();
  EXPECT_EQ(out.schema().field(0).name, "dbl");
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 20.0);
  EXPECT_EQ(out.column(1).StringAt(0), "east");
}

TEST(BinderTest, WhereFilters) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT amount FROM sales WHERE region = 'east'", cat)
          .value();
  EXPECT_EQ(out.num_rows(), 3u);
}

TEST(BinderTest, NonBooleanWhereRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT amount FROM sales WHERE amount", cat).ok());
}

TEST(BinderTest, GlobalAggregates) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a "
                  "FROM sales",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.column(0).Int64At(0), 5);
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 150.0);
  EXPECT_DOUBLE_EQ(out.column(2).DoubleAt(0), 30.0);
}

TEST(BinderTest, GroupByWithHavingAndOrder) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT region, SUM(amount) AS total FROM sales "
                  "GROUP BY region HAVING SUM(amount) > 50 "
                  "ORDER BY total DESC",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).StringAt(0), "east");  // 90 > 60.
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 90.0);
}

TEST(BinderTest, CompositeAggregateItem) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT SUM(amount) / COUNT(*) AS mean FROM sales", cat)
          .value();
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 30.0);
}

TEST(BinderTest, DuplicateAggregatesComputedOnce) {
  Catalog cat = MakeCatalog();
  BoundQuery bound =
      BindSql("SELECT SUM(amount), SUM(amount) / COUNT(*) FROM sales", cat)
          .value();
  // SUM(amount) appears twice but is bound once.
  EXPECT_EQ(bound.aggregates.size(), 2u);  // SUM and COUNT(*).
}

TEST(BinderTest, SelectItemOutsideGroupByRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(
      ExecuteSql("SELECT cust, SUM(amount) FROM sales GROUP BY region", cat)
          .ok());
}

TEST(BinderTest, GroupByExpressionKey) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT cust % 2 AS parity, COUNT(*) AS n FROM sales "
                  "GROUP BY cust % 2 ORDER BY parity",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).Int64At(0), 0);
  EXPECT_EQ(out.column(1).Int64At(0), 2);  // cust 2 twice.
}

TEST(BinderTest, JoinWithQualifiedColumns) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT c.name, SUM(s.amount) AS total FROM sales AS s "
                  "JOIN customers AS c ON s.cust = c.cid "
                  "GROUP BY c.name ORDER BY total DESC",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.column(0).StringAt(0), "bob");  // 20 + 50 = 70.
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 70.0);
}

TEST(BinderTest, JoinConditionSidesAutodetected) {
  Catalog cat = MakeCatalog();
  // Condition written right-to-left still binds.
  Table out = ExecuteSql(
                  "SELECT COUNT(*) AS n FROM sales AS s "
                  "JOIN customers AS c ON c.cid = s.cust",
                  cat)
                  .value();
  EXPECT_EQ(out.column(0).Int64At(0), 5);
}

TEST(BinderTest, UnresolvableJoinConditionRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql(
                   "SELECT 1 FROM sales AS s JOIN customers AS c "
                   "ON s.ghost = c.spirit",
                   cat)
                   .ok());
}

TEST(BinderTest, UnknownTableRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT x FROM nope", cat).ok());
}

TEST(BinderTest, UnknownColumnRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT ghost FROM sales", cat).ok());
}

TEST(BinderTest, OrderByUnknownOutputRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(
      ExecuteSql("SELECT amount FROM sales ORDER BY ghost", cat).ok());
}

TEST(BinderTest, HavingWithoutAggRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT amount FROM sales HAVING 1 = 1", cat).ok());
}

TEST(BinderTest, LimitApplies) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT amount FROM sales ORDER BY amount DESC LIMIT 2", cat)
          .value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 50.0);
}

TEST(BinderTest, ErrorSpecSurfacesInBoundQuery) {
  Catalog cat = MakeCatalog();
  BoundQuery bound =
      BindSql("SELECT AVG(amount) FROM sales WITH ERROR 5% CONFIDENCE 95%",
              cat)
          .value();
  ASSERT_TRUE(bound.error_spec.has_value());
  EXPECT_DOUBLE_EQ(bound.error_spec->relative_error, 0.05);
  EXPECT_TRUE(bound.has_aggregates);
  ASSERT_EQ(bound.aggregates.size(), 1u);
  EXPECT_EQ(bound.aggregates[0].kind, AggKind::kAvg);
  ASSERT_EQ(bound.tables.size(), 1u);
  EXPECT_EQ(bound.tables[0].table, "sales");
}

TEST(BinderTest, PrepareClassifiesShapeOnce) {
  Catalog cat = MakeCatalog();
  PreparedQuery q =
      Prepare("SELECT region, SUM(amount) AS s, COUNT(*) AS n FROM sales "
              "GROUP BY region WITH ERROR 5% CONFIDENCE 95%",
              cat)
          .value();
  EXPECT_TRUE(q.shape.has_contract);
  EXPECT_TRUE(q.shape.has_aggregates);
  EXPECT_TRUE(q.shape.all_linear);
  EXPECT_FALSE(q.shape.has_joins);
  EXPECT_FALSE(q.shape.has_having);
  EXPECT_EQ(q.shape.num_group_keys, 1u);
  EXPECT_EQ(q.shape.tables, std::vector<std::string>{"sales"});
  // The binder hands each aggregate's AST through, argument and all.
  ASSERT_EQ(q.bound.aggregates.size(), 2u);
  ASSERT_NE(q.bound.aggregates[0].call, nullptr);
  EXPECT_EQ(q.bound.aggregates[0].call->ToString(),
            q.bound.aggregates[0].display);
  EXPECT_EQ(q.bound.aggregates[0].call->children[0]->column, "amount");

  PreparedQuery joined =
      Prepare("SELECT MAX(s.amount) AS m FROM sales AS s JOIN customers AS c "
              "ON s.cust = c.cid JOIN sales AS t ON c.cid = t.cust "
              "HAVING MAX(s.amount) > 1",
              cat)
          .value();
  EXPECT_FALSE(joined.shape.has_contract);
  EXPECT_FALSE(joined.shape.all_linear);
  EXPECT_TRUE(joined.shape.has_joins);
  EXPECT_TRUE(joined.shape.has_having);
  EXPECT_EQ(joined.shape.tables,
            (std::vector<std::string>{"sales", "customers"}));

  EXPECT_FALSE(Prepare("SELEKT amount FROM sales", cat).ok());
  EXPECT_FALSE(Prepare("SELECT amount FROM nowhere", cat).ok());
}

TEST(BinderTest, TableSamplePlanAnnotated) {
  Catalog cat = MakeCatalog();
  BoundQuery bound =
      BindSql("SELECT COUNT(*) FROM sales TABLESAMPLE BERNOULLI (50)", cat)
          .value();
  EXPECT_NE(bound.plan->ToString().find("SAMPLE BERNOULLI 50%"),
            std::string::npos);
}

TEST(BinderTest, CountDistinct) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT COUNT(DISTINCT region) AS d FROM sales", cat).value();
  EXPECT_EQ(out.column(0).Int64At(0), 2);
}

TEST(BinderTest, MinMaxVarStddev) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT MIN(amount) AS lo, MAX(amount) AS hi, "
                  "VAR(amount) AS v, STDDEV(amount) AS sd FROM sales",
                  cat)
                  .value();
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 10.0);
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 50.0);
  EXPECT_DOUBLE_EQ(out.column(2).DoubleAt(0), 250.0);
}

TEST(BinderTest, ScalarFunctionsInSql) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT ABS(amount - 30) AS dev, SQRT(amount) AS root "
                  "FROM sales ORDER BY dev",
                  cat)
                  .value();
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 0.0);   // amount 30.
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(4), 20.0);  // amounts 10 and 50.
}

TEST(BinderTest, FunctionsInsideAggregates) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT SUM(ABS(amount - 30)) AS total_dev FROM sales", cat)
          .value();
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 60.0);  // 20+10+0+10+20.
}

TEST(BinderTest, FunctionsInWhere) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql(
                  "SELECT COUNT(*) AS n FROM sales WHERE ROUND(amount / 10) "
                  "% 2 = 0",
                  cat)
                  .value();
  // amount/10 in {1,2,3,4,5}; even rounds: 2 and 4.
  EXPECT_EQ(out.column(0).Int64At(0), 2);
}

TEST(BinderTest, SelectDistinct) {
  Catalog cat = MakeCatalog();
  Table out =
      ExecuteSql("SELECT DISTINCT region FROM sales ORDER BY region", cat)
          .value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).StringAt(0), "east");
  EXPECT_EQ(out.column(0).StringAt(1), "west");
}

TEST(BinderTest, SelectDistinctMultiColumn) {
  Catalog cat = MakeCatalog();
  Table out = ExecuteSql("SELECT DISTINCT region, cust FROM sales", cat)
                  .value();
  EXPECT_EQ(out.num_rows(), 4u);  // (east,1), (west,2), (west,3), (east,2).
}

TEST(BinderTest, SelectDistinctWithAggregatesRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_EQ(
      ExecuteSql("SELECT DISTINCT SUM(amount) FROM sales", cat).status().code(),
      StatusCode::kUnimplemented);
}

TEST(BinderTest, UnknownFunctionRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT FROBNICATE(amount) FROM sales", cat).ok());
}

// The first join below `root` and the node directly above it.
std::pair<const PlanNode*, const PlanNode*> JoinAndParent(const PlanPtr& root) {
  const PlanNode* parent = nullptr;
  const PlanNode* node = root.get();
  while (node->kind() != PlanKind::kJoin) {
    parent = node;
    node = node->child(0).get();
  }
  return {node, parent};
}

TEST(BinderPushdownTest, InnerJoinPushesSingleTableConjunctsToTheirScans) {
  Catalog cat = MakeCatalog();
  const char* sql =
      "SELECT s.amount, c.name FROM sales AS s JOIN customers AS c "
      "ON s.cust = c.cid WHERE s.amount > 15 AND c.name <> 'cat' "
      "AND (s.amount > 45 OR c.cid = 1)";
  BoundQuery bound = BindSql(sql, cat).value();
  auto [join, parent] = JoinAndParent(bound.plan);
  ASSERT_EQ(join->child(0)->kind(), PlanKind::kFilter);
  EXPECT_EQ(join->child(0)->predicate()->ToString(), "(s.amount > 15)");
  ASSERT_EQ(join->child(1)->kind(), PlanKind::kFilter);
  EXPECT_EQ(join->child(1)->predicate()->ToString(), "(c.name <> 'cat')");
  // The OR reads both tables: it stays above the join, alone.
  ASSERT_EQ(parent->kind(), PlanKind::kFilter);
  EXPECT_EQ(parent->predicate()->ToString(),
            "((s.amount > 45) OR (c.cid = 1))");

  Table out = ExecuteSql(sql, cat).value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 30.0);
  EXPECT_EQ(out.column(1).StringAt(0), "ana");
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(1), 50.0);
  EXPECT_EQ(out.column(1).StringAt(1), "bob");
}

TEST(BinderPushdownTest, UnqualifiedColumnPushesToItsTable) {
  Catalog cat = MakeCatalog();
  BoundQuery bound = BindSql(
      "SELECT COUNT(*) AS n FROM sales AS s JOIN customers AS c "
      "ON s.cust = c.cid WHERE name = 'bob' AND amount > 25",
      cat).value();
  auto [join, parent] = JoinAndParent(bound.plan);
  ASSERT_EQ(join->child(0)->kind(), PlanKind::kFilter);
  EXPECT_EQ(join->child(0)->predicate()->ToString(), "(amount > 25)");
  ASSERT_EQ(join->child(1)->kind(), PlanKind::kFilter);
  EXPECT_EQ(join->child(1)->predicate()->ToString(), "(name = 'bob')");
  EXPECT_EQ(parent->kind(), PlanKind::kAggregate);  // No residual filter.
}

TEST(BinderPushdownTest, LeftJoinPushesOnlyPreservedSideConjuncts) {
  Catalog cat = MakeCatalog();
  const char* sql =
      "SELECT s.amount, c.name FROM sales AS s LEFT JOIN customers AS c "
      "ON s.cust = c.cid WHERE s.amount > 15 AND c.name = 'bob'";
  BoundQuery bound = BindSql(sql, cat).value();
  auto [join, parent] = JoinAndParent(bound.plan);
  ASSERT_EQ(join->child(0)->kind(), PlanKind::kFilter);
  EXPECT_EQ(join->child(0)->predicate()->ToString(), "(s.amount > 15)");
  // Filtering the NULL-extended side early would turn dropped rows into
  // NULL-extended ones; its conjunct stays above the join.
  EXPECT_EQ(join->child(1)->kind(), PlanKind::kProject);
  ASSERT_EQ(parent->kind(), PlanKind::kFilter);
  EXPECT_EQ(parent->predicate()->ToString(), "(c.name = 'bob')");

  Table out = ExecuteSql(sql, cat).value();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(0), 20.0);
  EXPECT_DOUBLE_EQ(out.column(0).DoubleAt(1), 50.0);
}

TEST(BinderPushdownTest, OrSpanningBothSidesStaysAboveTheJoin) {
  Catalog cat = MakeCatalog();
  const char* sql =
      "SELECT s.amount FROM sales AS s JOIN customers AS c "
      "ON s.cust = c.cid WHERE s.amount > 45 OR c.name = 'ana'";
  BoundQuery bound = BindSql(sql, cat).value();
  auto [join, parent] = JoinAndParent(bound.plan);
  EXPECT_EQ(join->child(0)->kind(), PlanKind::kProject);
  EXPECT_EQ(join->child(1)->kind(), PlanKind::kProject);
  ASSERT_EQ(parent->kind(), PlanKind::kFilter);
  EXPECT_EQ(parent->predicate()->ToString(),
            "((s.amount > 45) OR (c.name = 'ana'))");
  Table out = ExecuteSql(sql, cat).value();
  ASSERT_EQ(out.num_rows(), 3u);  // 10 and 30 (ana), 50.
}

TEST(BinderPushdownTest, AmbiguousUnqualifiedColumnStillFailsToBind) {
  Catalog cat = MakeCatalog();
  Result<BoundQuery> r = BindSql(
      "SELECT a.amount FROM sales AS a JOIN sales AS b ON a.cust = b.cust "
      "WHERE a.amount > 1 AND amount > 10",
      cat);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(), "ambiguous column reference: amount");
}

}  // namespace
}  // namespace sql
}  // namespace aqp
