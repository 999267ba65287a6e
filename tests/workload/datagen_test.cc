#include "workload/datagen.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "stats/descriptive.h"

namespace aqp {
namespace workload {
namespace {

TEST(DatagenTest, Validation) {
  EXPECT_FALSE(GenerateTable({}, 10, 1).ok());
  ColumnSpec bad_cat;
  bad_cat.name = "c";
  bad_cat.dist = ColumnSpec::Dist::kCategorical;
  EXPECT_FALSE(GenerateTable({bad_cat}, 10, 1).ok());
  ColumnSpec bad_range;
  bad_range.name = "r";
  bad_range.dist = ColumnSpec::Dist::kUniformInt;
  bad_range.min_value = 10;
  bad_range.max_value = 0;
  EXPECT_FALSE(GenerateTable({bad_range}, 10, 1).ok());
}

TEST(DatagenTest, SequentialColumn) {
  ColumnSpec id;
  id.name = "id";
  id.dist = ColumnSpec::Dist::kSequential;
  Table t = GenerateTable({id}, 100, 1).value();
  ASSERT_EQ(t.num_rows(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(t.column(0).Int64At(static_cast<size_t>(i)), i);
  }
}

TEST(DatagenTest, UniformIntWithinRange) {
  ColumnSpec spec;
  spec.name = "u";
  spec.dist = ColumnSpec::Dist::kUniformInt;
  spec.min_value = -5;
  spec.max_value = 5;
  Table t = GenerateTable({spec}, 10000, 3).value();
  std::set<int64_t> seen;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    int64_t v = t.column(0).Int64At(i);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 11u);
}

TEST(DatagenTest, NormalMoments) {
  ColumnSpec spec;
  spec.name = "n";
  spec.dist = ColumnSpec::Dist::kNormal;
  spec.mean = 50.0;
  spec.stddev = 5.0;
  Table t = GenerateTable({spec}, 50000, 7).value();
  stats::Accumulator acc;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    acc.Add(t.column(0).DoubleAt(i));
  }
  EXPECT_NEAR(acc.mean(), 50.0, 0.2);
  EXPECT_NEAR(acc.sample_stddev(), 5.0, 0.2);
}

TEST(DatagenTest, ZipfSkewsLowRanks) {
  ColumnSpec spec;
  spec.name = "z";
  spec.dist = ColumnSpec::Dist::kZipfInt;
  spec.cardinality = 1000;
  spec.zipf_s = 1.2;
  Table t = GenerateTable({spec}, 50000, 9).value();
  int zeros = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (t.column(0).Int64At(i) == 0) ++zeros;
  }
  EXPECT_GT(zeros, 5000);
}

TEST(DatagenTest, CategoricalUsesGivenLabels) {
  ColumnSpec spec;
  spec.name = "c";
  spec.dist = ColumnSpec::Dist::kCategorical;
  spec.categories = {"a", "b", "c"};
  spec.zipf_s = 0.0;
  Table t = GenerateTable({spec}, 3000, 11).value();
  std::set<std::string> seen;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    seen.insert(t.column(0).StringAt(i));
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(DatagenTest, DeterministicPerSeed) {
  ColumnSpec spec;
  spec.name = "x";
  spec.dist = ColumnSpec::Dist::kExponential;
  Table a = GenerateTable({spec}, 100, 42).value();
  Table b = GenerateTable({spec}, 100, 42).value();
  Table c = GenerateTable({spec}, 100, 43).value();
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.column(0).DoubleAt(i), b.column(0).DoubleAt(i));
  }
  bool differs = false;
  for (size_t i = 0; i < 100 && !differs; ++i) {
    differs = a.column(0).DoubleAt(i) != c.column(0).DoubleAt(i);
  }
  EXPECT_TRUE(differs);
}

TEST(DatagenTest, StarSchemaShape) {
  StarSchemaSpec spec;
  spec.fact_rows = 5000;
  spec.dim_sizes = {50, 200};
  Catalog cat = GenerateStarSchema(spec, 3).value();
  EXPECT_TRUE(cat.Contains("fact"));
  EXPECT_TRUE(cat.Contains("dim_0"));
  EXPECT_TRUE(cat.Contains("dim_1"));
  EXPECT_EQ(cat.Cardinality("fact").value(), 5000u);
  EXPECT_EQ(cat.Cardinality("dim_0").value(), 50u);
  auto fact = ReadTable(cat, "fact").value();
  EXPECT_TRUE(fact->schema().HasField("fk_0"));
  EXPECT_TRUE(fact->schema().HasField("measure_0"));
  // FKs are valid dim references.
  size_t fk0 = fact->ColumnIndex("fk_0").value();
  for (size_t i = 0; i < fact->num_rows(); ++i) {
    EXPECT_LT(fact->column(fk0).Int64At(i), 50);
  }
}

TEST(DatagenTest, LineitemLikeShape) {
  Catalog cat = GenerateLineitemLike(10000, 5).value();
  EXPECT_EQ(cat.Cardinality("lineitem").value(), 10000u);
  EXPECT_EQ(cat.Cardinality("orders").value(), 2500u);
  auto li = ReadTable(cat, "lineitem").value();
  EXPECT_TRUE(li->schema().HasField("extendedprice"));
  EXPECT_TRUE(li->schema().HasField("shipmode"));
  // orderkey joins are valid.
  size_t ok_col = li->ColumnIndex("orderkey").value();
  for (size_t i = 0; i < li->num_rows(); ++i) {
    EXPECT_LT(li->column(ok_col).Int64At(i), 2500);
  }
}

}  // namespace
}  // namespace workload
}  // namespace aqp
