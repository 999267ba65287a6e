#include "engine/aggregate.h"

#include <cmath>

#include <gtest/gtest.h>

namespace aqp {
namespace {

Table SalesTable() {
  Table t(Schema({{"region", DataType::kString},
                  {"amount", DataType::kDouble},
                  {"qty", DataType::kInt64}}));
  auto add = [&t](const char* r, double a, int64_t q) {
    ASSERT_TRUE(t.AppendRow({Value(std::string(r)), Value(a), Value(q)}).ok());
  };
  add("east", 10.0, 1);
  add("west", 20.0, 2);
  add("east", 30.0, 3);
  add("west", 40.0, 4);
  add("east", 50.0, 5);
  return t;
}

TEST(AggKindTest, NamesAndLinearity) {
  EXPECT_EQ(AggKindName(AggKind::kSum), "SUM");
  EXPECT_EQ(AggKindName(AggKind::kCountDistinct), "COUNT DISTINCT");
  EXPECT_TRUE(IsLinearAgg(AggKind::kSum));
  EXPECT_TRUE(IsLinearAgg(AggKind::kAvg));
  EXPECT_TRUE(IsLinearAgg(AggKind::kCountStar));
  EXPECT_FALSE(IsLinearAgg(AggKind::kMin));
  EXPECT_FALSE(IsLinearAgg(AggKind::kCountDistinct));
}

TEST(AggResultTypeTest, Rules) {
  EXPECT_EQ(AggResultType(AggKind::kCount, DataType::kString).value(),
            DataType::kInt64);
  EXPECT_EQ(AggResultType(AggKind::kSum, DataType::kInt64).value(),
            DataType::kDouble);
  EXPECT_EQ(AggResultType(AggKind::kMin, DataType::kString).value(),
            DataType::kString);
  EXPECT_FALSE(AggResultType(AggKind::kSum, DataType::kString).ok());
}

TEST(GroupIndexTest, NoGroupsIsSingleGroup) {
  Table t = SalesTable();
  GroupIndex idx = BuildGroupIndex(t, {}).value();
  EXPECT_EQ(idx.num_groups, 1u);
  for (uint32_t g : idx.group_ids) EXPECT_EQ(g, 0u);
}

TEST(GroupIndexTest, GroupsByKey) {
  Table t = SalesTable();
  GroupIndex idx = BuildGroupIndex(t, {Col("region")}).value();
  EXPECT_EQ(idx.num_groups, 2u);
  EXPECT_EQ(idx.group_ids[0], idx.group_ids[2]);  // east rows together.
  EXPECT_EQ(idx.group_ids[1], idx.group_ids[3]);  // west rows together.
  EXPECT_NE(idx.group_ids[0], idx.group_ids[1]);
  EXPECT_EQ(idx.key_columns.size(), 1u);
  EXPECT_EQ(idx.key_columns[0].size(), 2u);
}

TEST(GroupIndexTest, ExpressionKeys) {
  Table t = SalesTable();
  // Group by qty % 2 -> two groups.
  GroupIndex idx = BuildGroupIndex(t, {Mod(Col("qty"), Lit(int64_t{2}))}).value();
  EXPECT_EQ(idx.num_groups, 2u);
}

TEST(GroupByAggregateTest, GlobalAggregates) {
  Table t = SalesTable();
  Table out = GroupByAggregate(
                  t, {}, {},
                  {{AggKind::kCountStar, nullptr, "n"},
                   {AggKind::kSum, Col("amount"), "total"},
                   {AggKind::kAvg, Col("amount"), "avg_amt"},
                   {AggKind::kMin, Col("amount"), "mn"},
                   {AggKind::kMax, Col("amount"), "mx"}})
                  .value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.column(0).Int64At(0), 5);
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 150.0);
  EXPECT_DOUBLE_EQ(out.column(2).DoubleAt(0), 30.0);
  EXPECT_DOUBLE_EQ(out.column(3).DoubleAt(0), 10.0);
  EXPECT_DOUBLE_EQ(out.column(4).DoubleAt(0), 50.0);
}

TEST(GroupByAggregateTest, GroupedSum) {
  Table t = SalesTable();
  Table out = GroupByAggregate(t, {Col("region")}, {"region"},
                               {{AggKind::kSum, Col("amount"), "total"},
                                {AggKind::kCountStar, nullptr, "n"}})
                  .value();
  ASSERT_EQ(out.num_rows(), 2u);
  // Group order follows first appearance: east then west.
  EXPECT_EQ(out.column(0).StringAt(0), "east");
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(0), 90.0);
  EXPECT_EQ(out.column(2).Int64At(0), 3);
  EXPECT_EQ(out.column(0).StringAt(1), "west");
  EXPECT_DOUBLE_EQ(out.column(1).DoubleAt(1), 60.0);
  EXPECT_EQ(out.column(2).Int64At(1), 2);
}

TEST(GroupByAggregateTest, VarianceAndStddev) {
  Table t(Schema({{"x", DataType::kDouble}}));
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  Table out = GroupByAggregate(t, {}, {},
                               {{AggKind::kVar, Col("x"), "v"},
                                {AggKind::kStddev, Col("x"), "s"}})
                  .value();
  EXPECT_NEAR(out.column(0).DoubleAt(0), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(out.column(1).DoubleAt(0), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(GroupByAggregateTest, CountDistinctExact) {
  Table t(Schema({{"x", DataType::kInt64}}));
  for (int64_t v : {1, 2, 2, 3, 3, 3, 4}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  Table out = GroupByAggregate(
                  t, {}, {}, {{AggKind::kCountDistinct, Col("x"), "d"}})
                  .value();
  EXPECT_EQ(out.column(0).Int64At(0), 4);
}

TEST(GroupByAggregateTest, NullArgumentsSkipped) {
  Table t(Schema({{"x", DataType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(10.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(20.0)}).ok());
  Table out = GroupByAggregate(t, {}, {},
                               {{AggKind::kCount, Col("x"), "c"},
                                {AggKind::kCountStar, nullptr, "n"},
                                {AggKind::kSum, Col("x"), "s"},
                                {AggKind::kAvg, Col("x"), "a"}})
                  .value();
  EXPECT_EQ(out.column(0).Int64At(0), 2);  // COUNT(x) skips NULL.
  EXPECT_EQ(out.column(1).Int64At(0), 3);  // COUNT(*) does not.
  EXPECT_DOUBLE_EQ(out.column(2).DoubleAt(0), 30.0);
  EXPECT_DOUBLE_EQ(out.column(3).DoubleAt(0), 15.0);
}

TEST(GroupByAggregateTest, EmptyInputGlobalAggregates) {
  Table t(Schema({{"x", DataType::kDouble}}));
  Table out = GroupByAggregate(t, {}, {},
                               {{AggKind::kCountStar, nullptr, "n"},
                                {AggKind::kSum, Col("x"), "s"}})
                  .value();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.column(0).Int64At(0), 0);
  EXPECT_TRUE(out.column(1).IsNull(0));  // SUM over empty set is NULL.
}

TEST(GroupByAggregateTest, EmptyInputGroupedYieldsNoRows) {
  Table t(Schema({{"g", DataType::kInt64}, {"x", DataType::kDouble}}));
  Table out = GroupByAggregate(t, {Col("g")}, {"g"},
                               {{AggKind::kSum, Col("x"), "s"}})
                  .value();
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(GroupByAggregateTest, SumOverStringRejected) {
  Table t = SalesTable();
  EXPECT_FALSE(
      GroupByAggregate(t, {}, {}, {{AggKind::kSum, Col("region"), "s"}}).ok());
}

TEST(GroupByAggregateTest, MinMaxOnStrings) {
  Table t = SalesTable();
  Table out = GroupByAggregate(t, {}, {},
                               {{AggKind::kMin, Col("region"), "mn"},
                                {AggKind::kMax, Col("region"), "mx"}})
                  .value();
  EXPECT_EQ(out.column(0).StringAt(0), "east");
  EXPECT_EQ(out.column(1).StringAt(0), "west");
}

}  // namespace
}  // namespace aqp
