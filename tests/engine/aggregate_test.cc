#include "engine/aggregate.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "support/row_reference.h"
#include "test_util.h"

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

// INT64 MIN/MAX compare as integers: as doubles, 2^53 and 2^53 + 1 round to
// the same value and the first one seen would win. Both input orders,
// grouped and global, serial and on the morsel path at 1 and 4 threads.
TEST(GroupByAggregateTest, Int64MinMaxBeyondTwoToThe53) {
  const int64_t lo = int64_t{1} << 53;
  const int64_t hi = lo + 1;
  Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  // Group 0 sees lo then hi, group 1 hi then lo; the pairs straddle
  // two-row morsels.
  for (int rep = 0; rep < 4; ++rep) {
    ASSERT_TRUE(t.AppendRow({Value(int64_t{0}), Value(lo)}).ok());
    ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(hi)}).ok());
    ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(lo)}).ok());
    ASSERT_TRUE(t.AppendRow({Value(int64_t{0}), Value(hi)}).ok());
  }
  const std::vector<AggSpec> aggs = {{AggKind::kMin, Col("v"), "mn"},
                                     {AggKind::kMax, Col("v"), "mx"}};
  for (size_t order = 0; order < 2; ++order) {
    // order 1 reverses the rows, so every group sees the other order.
    Table input = t;
    if (order == 1) {
      std::vector<uint32_t> rev;
      for (size_t r = t.num_rows(); r-- > 0;) {
        rev.push_back(static_cast<uint32_t>(r));
      }
      input = t.Take(rev);
    }
    ExecOptions morsels;
    morsels.morsel_rows = 2;
    morsels.parallel_min_rows = 2;
    for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
      morsels.num_threads = threads;
      AggregateOptions options;
      if (threads > 0) options.exec = &morsels;  // 0: one serial morsel.
      for (bool grouped : {true, false}) {
        std::vector<ExprPtr> keys;
        std::vector<std::string> names;
        if (grouped) {
          keys.push_back(Col("g"));
          names.push_back("g");
        }
        Table out =
            GroupByAggregate(input, keys, names, aggs, options).value();
        ASSERT_EQ(out.num_rows(), grouped ? 2u : 1u);
        const size_t first_agg = grouped ? 1 : 0;
        for (size_t r = 0; r < out.num_rows(); ++r) {
          EXPECT_EQ(out.column(first_agg).Int64At(r), lo)
              << "order " << order << " threads " << threads << " grouped "
              << grouped;
          EXPECT_EQ(out.column(first_agg + 1).Int64At(r), hi)
              << "order " << order << " threads " << threads << " grouped "
              << grouped;
        }
      }
    }
  }
}

// ---- Grouped aggregation against the row oracle ---------------------------

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

ExecOptions SmallMorsels(size_t threads) {
  ExecOptions opt;
  opt.num_threads = threads;
  opt.morsel_rows = 128;
  opt.parallel_min_rows = 256;
  return opt;
}

// Every aggregate kind over the double "x" plus INT64 MIN/MAX over "a".
std::vector<AggSpec> AllKinds() {
  return {{AggKind::kCountStar, nullptr, "n"},
          {AggKind::kCount, Col("x"), "c"},
          {AggKind::kSum, Col("x"), "s"},
          {AggKind::kAvg, Col("x"), "avg"},
          {AggKind::kMin, Col("x"), "mn"},
          {AggKind::kMax, Col("x"), "mx"},
          {AggKind::kVar, Col("x"), "var"},
          {AggKind::kStddev, Col("x"), "sd"},
          {AggKind::kCountDistinct, Col("x"), "cd"},
          {AggKind::kMin, Col("a"), "amn"},
          {AggKind::kMax, Col("a"), "amx"},
          {AggKind::kSum, Col("a"), "as"}};
}

// Table t(id, a, b, x): id is the row number, a and b are INT64 keys drawn
// from [0, a_domain) and [0, 7) (a NULL with probability a_nulls), x a
// nullable double that is sometimes -0.0, NaN or an infinity.
Table KeyTable(uint64_t seed, size_t rows, uint32_t a_domain, double a_nulls) {
  Pcg32 rng(seed);
  Table t(Schema({{"id", DataType::kInt64},
                  {"a", DataType::kInt64},
                  {"b", DataType::kInt64},
                  {"x", DataType::kDouble}}));
  const double odd[] = {-0.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(4);  // NULL until set.
    row[0] = Value(static_cast<int64_t>(r));
    if (rng.NextDouble() >= a_nulls) {
      row[1] = Value(static_cast<int64_t>(rng.UniformUint32(a_domain)));
    }
    row[2] = Value(static_cast<int64_t>(rng.UniformUint32(7)));
    const uint32_t u = rng.UniformUint32(40);
    if (u >= 1 && u <= 4) {
      row[3] = Value(odd[u - 1]);
    } else if (u > 4) {
      row[3] = Value(rng.Gaussian() * 50.0);
    }
    AQP_CHECK(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

// Runs `plan` on the engine at every thread count and requires the result
// to be bit-identical to the row oracle's.
void ExpectMatchesOracle(const PlanPtr& plan, const Catalog& catalog) {
  Result<Table> reference =
      testutil::ExecuteRowReference(plan, catalog, SmallMorsels(1));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t threads : kThreadCounts) {
    Result<Table> got =
        Execute(plan, catalog, nullptr, nullptr, SmallMorsels(threads));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(testutil::TablesBitIdentical(reference.value(), got.value()))
        << "threads=" << threads << "\n" << plan->ToString();
  }
}

PlanPtr GroupedPlan(PlanPtr input, const std::vector<std::string>& keys) {
  std::vector<ExprPtr> exprs;
  for (const std::string& k : keys) exprs.push_back(Col(k));
  return PlanNode::Aggregate(std::move(input), std::move(exprs), keys,
                             AllKinds());
}

Catalog OneTable(Table t) {
  Catalog catalog;
  catalog.RegisterOrReplace("t", std::make_shared<const Table>(std::move(t)));
  return catalog;
}

TEST(GroupedAggregateOracleTest, TwoInt64Keys) {
  Catalog catalog = OneTable(KeyTable(11, 3000, 20, 0.0));
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {"a", "b"}), catalog);
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {}), catalog);
}

TEST(GroupedAggregateOracleTest, NullableInt64Key) {
  Catalog catalog = OneTable(KeyTable(12, 3000, 40, 0.1));
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {"a"}), catalog);
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {"b", "a"}), catalog);
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {}), catalog);
}

TEST(GroupedAggregateOracleTest, SumsOverSignedZeroNaNAndInfinities) {
  // Few groups, so every group folds -0.0, NaN and both infinities from
  // many morsels; plus groups whose only values are -0.0.
  Table t = KeyTable(13, 2000, 3, 0.0);
  for (int r = 0; r < 300; ++r) {
    AQP_CHECK(t.AppendRow({Value(int64_t{2000 + r}),
                           Value(int64_t{100 + r % 2}), Value(int64_t{0}),
                           Value(-0.0)})
                  .ok());
  }
  Catalog catalog = OneTable(std::move(t));
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {"a"}), catalog);
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {"a", "b"}), catalog);
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {}), catalog);
  // Only -0.0 values: the one group's sum is +0.0, as the oracle's is.
  ExpectMatchesOracle(
      GroupedPlan(PlanNode::Filter(PlanNode::Scan("t"),
                                   Ge(Col("id"), Lit(int64_t{2000}))),
                  {}),
      catalog);
}

TEST(GroupedAggregateOracleTest, MorselsTheFilterEmpties) {
  Catalog catalog = OneTable(KeyTable(14, 4000, 50, 0.05));
  // The filter keeps the first and last few hundred rows: every morsel in
  // between comes out empty.
  PlanPtr ends = PlanNode::Filter(
      PlanNode::Scan("t"),
      Or(Lt(Col("id"), Lit(int64_t{300})), Ge(Col("id"), Lit(int64_t{3700}))));
  ExpectMatchesOracle(GroupedPlan(ends, {"a"}), catalog);
  ExpectMatchesOracle(GroupedPlan(ends, {"a", "b"}), catalog);
  ExpectMatchesOracle(GroupedPlan(ends, {}), catalog);
  // A filter that keeps nothing: no groups, or the one group without keys.
  PlanPtr none =
      PlanNode::Filter(PlanNode::Scan("t"), Lt(Col("id"), Lit(int64_t{0})));
  ExpectMatchesOracle(GroupedPlan(none, {"a"}), catalog);
  ExpectMatchesOracle(GroupedPlan(none, {}), catalog);
  for (size_t threads : kThreadCounts) {
    Result<Table> one = Execute(GroupedPlan(none, {}), catalog, nullptr,
                                nullptr, SmallMorsels(threads));
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_EQ(one->num_rows(), 1u) << "threads=" << threads;
  }
}

TEST(GroupedAggregateOracleTest, MoreGroupsThanMorselRows) {
  // About 2,000 groups over 128-row morsels: nearly every group is split
  // across morsels and partitions.
  Catalog catalog = OneTable(KeyTable(15, 5000, 2000, 0.02));
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {"a"}), catalog);
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {"a", "b"}), catalog);
  ExpectMatchesOracle(GroupedPlan(PlanNode::Scan("t"), {}), catalog);
}

// Grouped aggregation charges its partials and group tables to the query's
// budget as "aggregate state": the peak includes them, a budget that covers
// the input but not the state fails with a memory stop, and nothing leaks.
TEST(GroupedAggregateMemoryTest, StateIsChargedToTheBudget) {
  Table t = KeyTable(16, 20000, 5000, 0.0);
  const PlanPtr plan = GroupedPlan(
      PlanNode::Filter(PlanNode::Scan("t"), Ge(Col("id"), Lit(int64_t{0}))),
      {"a"});
  Catalog catalog = OneTable(t);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecOptions opt;
    opt.num_threads = threads;
    // The state alone: the aggregate on its own, with its own tracker.
    MemoryTracker state_only;
    opt.memory = &state_only;
    AggregateOptions agg_options;
    agg_options.exec = &opt;
    std::vector<AggSpec> aggs = AllKinds();
    ASSERT_TRUE(
        GroupByAggregate(t, {Col("a")}, {"a"}, aggs, agg_options).ok());
    const uint64_t state = state_only.peak();
    EXPECT_GT(state, 0u);
    EXPECT_EQ(state_only.used(), 0u);

    // The whole plan: its peak holds the aggregate's input and its state.
    MemoryTracker whole;
    opt.memory = &whole;
    ASSERT_TRUE(Execute(plan, catalog, nullptr, nullptr, opt).ok());
    ASSERT_GT(whole.peak(), state);
    const uint64_t input = whole.peak() - state;
    EXPECT_EQ(whole.used(), 0u);

    // A budget between the input and input + state.
    CancellationSource source;
    CancellationToken token = source.token();
    MemoryTracker tight(input + state / 2);
    tight.BindCancellation(&source);
    opt.memory = &tight;
    opt.cancel = &token;
    Result<Table> r = Execute(plan, catalog, nullptr, nullptr, opt);
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "threads=" << threads;
    EXPECT_EQ(token.cause(), StopCause::kMemory);
    EXPECT_GE(tight.exhausted_count(), 1u);
    EXPECT_EQ(tight.used(), 0u) << "leaked charge, threads=" << threads;
    opt.cancel = nullptr;
  }
}

}  // namespace
}  // namespace aqp
