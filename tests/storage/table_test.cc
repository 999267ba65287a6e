#include "storage/table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace aqp {
namespace {

Schema TwoColSchema() {
  return Schema({{"id", DataType::kInt64}, {"price", DataType::kDouble}});
}

Table SmallTable() {
  Table t(TwoColSchema());
  for (int64_t i = 0; i < 5; ++i) {
    Status s = t.AppendRow({Value(i), Value(static_cast<double>(i) * 1.5)});
    EXPECT_TRUE(s.ok());
  }
  return t;
}

TEST(TableTest, EmptyTableFromSchema) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_columns(), 2u);
}

TEST(TableTest, MakeValidatesArity) {
  Result<Table> bad = Table::Make(TwoColSchema(), {Column(DataType::kInt64)});
  EXPECT_FALSE(bad.ok());
}

TEST(TableTest, MakeValidatesTypes) {
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64({1}));
  cols.push_back(Column::FromString({"x"}));  // Should be double.
  EXPECT_FALSE(Table::Make(TwoColSchema(), std::move(cols)).ok());
}

TEST(TableTest, MakeValidatesRaggedness) {
  std::vector<Column> cols;
  cols.push_back(Column::FromInt64({1, 2}));
  cols.push_back(Column::FromDouble({0.5}));
  EXPECT_FALSE(Table::Make(TwoColSchema(), std::move(cols)).ok());
}

TEST(TableTest, AppendRowAndRead) {
  Table t = SmallTable();
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.column(0).Int64At(3), 3);
  EXPECT_DOUBLE_EQ(t.column(1).DoubleAt(4), 6.0);
}

TEST(TableTest, AppendRowArityChecked) {
  Table t(TwoColSchema());
  EXPECT_FALSE(t.AppendRow({Value(int64_t{1})}).ok());
}

TEST(TableTest, ColumnIndexByName) {
  Table t = SmallTable();
  EXPECT_EQ(t.ColumnIndex("price").value(), 1u);
  EXPECT_FALSE(t.ColumnIndex("ghost").ok());
}

TEST(TableTest, TakeAndSlice) {
  Table t = SmallTable();
  Table taken = t.Take({4, 0});
  ASSERT_EQ(taken.num_rows(), 2u);
  EXPECT_EQ(taken.column(0).Int64At(0), 4);
  EXPECT_EQ(taken.column(0).Int64At(1), 0);

  Table sliced = t.Slice(2, 2);
  ASSERT_EQ(sliced.num_rows(), 2u);
  EXPECT_EQ(sliced.column(0).Int64At(0), 2);
}

TEST(TableTest, AppendTable) {
  Table a = SmallTable();
  Table b = SmallTable();
  ASSERT_TRUE(a.Append(b).ok());
  EXPECT_EQ(a.num_rows(), 10u);
  EXPECT_EQ(a.column(0).Int64At(7), 2);
}

// One column of each type; every third row is NULL in every column.
Table FourTypeTable(size_t rows, int64_t start) {
  Table t(Schema({{"i", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"s", DataType::kString},
                  {"b", DataType::kBool}}));
  for (size_t r = 0; r < rows; ++r) {
    const int64_t v = start + static_cast<int64_t>(r);
    if (v % 3 == 0) {
      EXPECT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value::Null(),
                               Value::Null()})
                      .ok());
      continue;
    }
    EXPECT_TRUE(t.AppendRow({Value(v), Value(static_cast<double>(v) * 0.5),
                             Value("k" + std::to_string(v % 5)),
                             Value(v % 2 == 0)})
                    .ok());
  }
  return t;
}

TEST(TableTest, AppendBulkMatchesRowAppend) {
  std::vector<Table> parts;
  parts.push_back(FourTypeTable(7, 0));
  parts.push_back(FourTypeTable(0, 7));  // Empty part.
  parts.push_back(FourTypeTable(5, 7));
  parts.push_back(FourTypeTable(0, 12));
  parts.push_back(FourTypeTable(4, 12));

  Table bulk = FourTypeTable(0, 0);
  Table rows = FourTypeTable(0, 0);
  ASSERT_TRUE(bulk.Append(parts[0]).ok());
  // A dictionary built before the later appends must not serve the grown
  // column.
  const auto before = bulk.column(2).EnsureDictionary();
  ASSERT_EQ(bulk.column(2).dictionary_if_built(), before);
  for (size_t p = 1; p < parts.size(); ++p) {
    ASSERT_TRUE(bulk.Append(parts[p]).ok());
  }
  for (const Table& part : parts) {
    for (size_t r = 0; r < part.num_rows(); ++r) rows.AppendRowFrom(part, r);
  }
  EXPECT_EQ(before->codes().size(), 7u);
  EXPECT_EQ(bulk.column(2).dictionary_if_built(), nullptr);
  ASSERT_EQ(bulk.num_rows(), 16u);
  ASSERT_EQ(rows.num_rows(), 16u);
  for (size_t c = 0; c < bulk.num_columns(); ++c) {
    EXPECT_EQ(bulk.column(c).null_count(), rows.column(c).null_count());
    EXPECT_EQ(bulk.column(c).null_count(), 6u);  // Rows 0, 3, ..., 15.
    for (size_t r = 0; r < bulk.num_rows(); ++r) {
      EXPECT_TRUE(bulk.column(c).SlotEquals(r, rows.column(c), r))
          << "col " << c << " row " << r;
    }
  }
  // The rebuilt dictionary covers every appended row.
  EXPECT_EQ(bulk.column(2).EnsureDictionary()->codes().size(), 16u);
  // Appending a table to itself doubles it.
  ASSERT_TRUE(bulk.Append(bulk).ok());
  ASSERT_EQ(bulk.num_rows(), 32u);
  EXPECT_EQ(bulk.column(0).null_count(), 12u);
  EXPECT_TRUE(bulk.column(2).SlotEquals(17, bulk.column(2), 1));
}

TEST(TableTest, AppendTableMismatchRejected) {
  Table a = SmallTable();
  Table c(Schema({{"x", DataType::kString}}));
  EXPECT_FALSE(a.Append(c).ok());
}

TEST(TableTest, AppendRowFrom) {
  Table a = SmallTable();
  Table b(TwoColSchema());
  b.AppendRowFrom(a, 2);
  ASSERT_EQ(b.num_rows(), 1u);
  EXPECT_EQ(b.column(0).Int64At(0), 2);
}

TEST(TableTest, RenameColumns) {
  Table t = SmallTable();
  ASSERT_TRUE(t.RenameColumns({"a", "b"}).ok());
  EXPECT_EQ(t.schema().field(0).name, "a");
  EXPECT_FALSE(t.RenameColumns({"only_one"}).ok());
}

TEST(TableTest, BlockView) {
  Table t(TwoColSchema());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i), Value(0.0)}).ok());
  }
  EXPECT_EQ(t.NumBlocks(4), 3u);
  auto range0 = t.BlockRange(0, 4);
  EXPECT_EQ(range0.first, 0u);
  EXPECT_EQ(range0.second, 4u);
  auto range2 = t.BlockRange(2, 4);
  EXPECT_EQ(range2.first, 8u);
  EXPECT_EQ(range2.second, 10u);
}

TEST(TableTest, BlockViewDefaultSize) {
  Table t = SmallTable();
  EXPECT_EQ(t.NumBlocks(), 1u);  // 5 rows < default block size.
}

TEST(TableTest, ToStringTruncates) {
  Table t = SmallTable();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("id | price"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

}  // namespace
}  // namespace aqp
