// Randomized algebraic invariants of the relational engine: identities that
// must hold for ANY data, checked over generated tables.

#include <cmath>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

// Random table with group, key and measure columns.
Catalog RandomCatalog(uint64_t seed, size_t rows = 5000) {
  workload::ColumnSpec g;
  g.name = "g";
  g.dist = workload::ColumnSpec::Dist::kZipfInt;
  g.cardinality = 20;
  g.zipf_s = 0.7;
  workload::ColumnSpec k;
  k.name = "k";
  k.dist = workload::ColumnSpec::Dist::kUniformInt;
  k.min_value = 0;
  k.max_value = 99;
  workload::ColumnSpec x;
  x.name = "x";
  x.dist = workload::ColumnSpec::Dist::kNormal;
  x.mean = 10.0;
  x.stddev = 4.0;
  Catalog cat;
  Table t = workload::GenerateTable({g, k, x}, rows, seed).value();
  EXPECT_TRUE(cat.Register("t", std::make_shared<Table>(std::move(t))).ok());
  // A small dimension keyed 0..99.
  Table dim(Schema({{"pk", DataType::kInt64}, {"w", DataType::kDouble}}));
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        dim.AppendRow({Value(i), Value(static_cast<double>(i % 7))}).ok());
  }
  EXPECT_TRUE(cat.Register("dim", std::make_shared<Table>(std::move(dim))).ok());
  return cat;
}

double TotalOf(const Table& t, size_t col) {
  double total = 0.0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (!t.column(col).IsNull(i)) total += t.column(col).NumericAt(i);
  }
  return total;
}

class EnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnginePropertyTest, ConjunctiveFilterSplits) {
  // Filter(p1 AND p2) == Filter(p2) after Filter(p1).
  Catalog cat = RandomCatalog(GetParam());
  ExprPtr p1 = Gt(Col("x"), Lit(8.0));
  ExprPtr p2 = Lt(Col("k"), Lit(int64_t{50}));
  Table combined =
      Execute(PlanNode::Filter(PlanNode::Scan("t"), And(p1, p2)), cat).value();
  Table chained =
      Execute(PlanNode::Filter(PlanNode::Filter(PlanNode::Scan("t"), p1), p2),
              cat)
          .value();
  ASSERT_EQ(combined.num_rows(), chained.num_rows());
  EXPECT_DOUBLE_EQ(TotalOf(combined, 2), TotalOf(chained, 2));
}

TEST_P(EnginePropertyTest, GroupSumsAddUpToGlobalSum) {
  Catalog cat = RandomCatalog(GetParam());
  Table global = Execute(PlanNode::Aggregate(PlanNode::Scan("t"), {}, {},
                                             {{AggKind::kSum, Col("x"), "s"}}),
                         cat)
                     .value();
  Table grouped =
      Execute(PlanNode::Aggregate(PlanNode::Scan("t"), {Col("g")}, {"g"},
                                  {{AggKind::kSum, Col("x"), "s"}}),
              cat)
          .value();
  double group_total = TotalOf(grouped, 1);
  EXPECT_NEAR(group_total, global.column(0).DoubleAt(0),
              1e-6 * std::fabs(group_total));
}

TEST_P(EnginePropertyTest, FkJoinPreservesProbeRowsAndMeasure) {
  // Every t.k has exactly one dim.pk match, so the inner join neither drops
  // nor duplicates probe rows and preserves SUM(x).
  Catalog cat = RandomCatalog(GetParam());
  Table base = Execute(PlanNode::Scan("t"), cat).value();
  Table joined = Execute(PlanNode::Join(PlanNode::Scan("t"),
                                        PlanNode::Scan("dim"),
                                        JoinType::kInner, {"k"}, {"pk"}),
                         cat)
                     .value();
  ASSERT_EQ(joined.num_rows(), base.num_rows());
  size_t xcol = joined.ColumnIndex("x").value();
  EXPECT_NEAR(TotalOf(joined, xcol), TotalOf(base, 2), 1e-6);
}

TEST_P(EnginePropertyTest, LeftJoinRowCountAtLeastInner) {
  Catalog cat = RandomCatalog(GetParam());
  // Shrink the dimension so some probe rows dangle.
  auto dim = ReadTable(cat, "dim").value();
  cat.RegisterOrReplace("dim", std::make_shared<Table>(dim->Slice(0, 50)));
  Table inner = Execute(PlanNode::Join(PlanNode::Scan("t"),
                                       PlanNode::Scan("dim"),
                                       JoinType::kInner, {"k"}, {"pk"}),
                        cat)
                    .value();
  Table left = Execute(PlanNode::Join(PlanNode::Scan("t"),
                                      PlanNode::Scan("dim"),
                                      JoinType::kLeftOuter, {"k"}, {"pk"}),
                       cat)
                   .value();
  Table base = Execute(PlanNode::Scan("t"), cat).value();
  EXPECT_GE(left.num_rows(), inner.num_rows());
  EXPECT_EQ(left.num_rows(), base.num_rows());  // FK-ish: <=1 match per row.
}

TEST_P(EnginePropertyTest, UnionAllAggregatesAdd) {
  Catalog cat = RandomCatalog(GetParam());
  Table once = Execute(PlanNode::Aggregate(PlanNode::Scan("t"), {}, {},
                                           {{AggKind::kCountStar, nullptr,
                                             "n"},
                                            {AggKind::kSum, Col("x"), "s"}}),
                       cat)
                   .value();
  Table doubled =
      Execute(PlanNode::Aggregate(
                  PlanNode::UnionAll({PlanNode::Scan("t"),
                                      PlanNode::Scan("t")}),
                  {}, {},
                  {{AggKind::kCountStar, nullptr, "n"},
                   {AggKind::kSum, Col("x"), "s"}}),
              cat)
          .value();
  EXPECT_EQ(doubled.column(0).Int64At(0), 2 * once.column(0).Int64At(0));
  EXPECT_NEAR(doubled.column(1).DoubleAt(0), 2.0 * once.column(1).DoubleAt(0),
              1e-6);
}

TEST_P(EnginePropertyTest, SortIsPermutationAndOrdered) {
  Catalog cat = RandomCatalog(GetParam());
  Table sorted =
      Execute(PlanNode::Sort(PlanNode::Scan("t"), {{"x", true}}), cat).value();
  Table base = Execute(PlanNode::Scan("t"), cat).value();
  ASSERT_EQ(sorted.num_rows(), base.num_rows());
  EXPECT_NEAR(TotalOf(sorted, 2), TotalOf(base, 2), 1e-6);
  size_t xcol = sorted.ColumnIndex("x").value();
  for (size_t i = 1; i < sorted.num_rows(); ++i) {
    EXPECT_LE(sorted.column(xcol).DoubleAt(i - 1),
              sorted.column(xcol).DoubleAt(i));
  }
}

TEST_P(EnginePropertyTest, LimitIsPrefixOfSort) {
  Catalog cat = RandomCatalog(GetParam());
  PlanPtr sort = PlanNode::Sort(PlanNode::Scan("t"), {{"x", false}});
  Table full = Execute(sort, cat).value();
  Table top = Execute(PlanNode::Limit(sort, 10), cat).value();
  ASSERT_EQ(top.num_rows(), 10u);
  size_t xcol = top.ColumnIndex("x").value();
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(top.column(xcol).DoubleAt(i),
                     full.column(xcol).DoubleAt(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
}  // namespace aqp
