#include "storage/column.h"

#include <gtest/gtest.h>

namespace aqp {
namespace {

TEST(ColumnTest, FromVectorFactories) {
  Column ints = Column::FromInt64({1, 2, 3});
  EXPECT_EQ(ints.type(), DataType::kInt64);
  EXPECT_EQ(ints.size(), 3u);
  EXPECT_EQ(ints.Int64At(1), 2);
  EXPECT_EQ(ints.null_count(), 0u);

  Column doubles = Column::FromDouble({1.5, 2.5});
  EXPECT_DOUBLE_EQ(doubles.DoubleAt(0), 1.5);

  Column strings = Column::FromString({"a", "b"});
  EXPECT_EQ(strings.StringAt(1), "b");

  Column bools = Column::FromBool({true, false, true});
  EXPECT_TRUE(bools.BoolAt(0));
  EXPECT_FALSE(bools.BoolAt(1));
}

TEST(ColumnTest, AppendAndNulls) {
  Column c(DataType::kInt64);
  c.AppendInt64(10);
  c.AppendNull();
  c.AppendInt64(30);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.GetValue(1), Value::Null());
  EXPECT_EQ(c.GetValue(2), Value(int64_t{30}));
}

TEST(ColumnTest, AppendValueTypeChecked) {
  Column c(DataType::kDouble);
  EXPECT_TRUE(c.AppendValue(Value(1.5)).ok());
  EXPECT_TRUE(c.AppendValue(Value(int64_t{2})).ok());  // Widening.
  EXPECT_DOUBLE_EQ(c.DoubleAt(1), 2.0);
  EXPECT_FALSE(c.AppendValue(Value(std::string("x"))).ok());
  EXPECT_TRUE(c.AppendValue(Value::Null()).ok());
  EXPECT_EQ(c.size(), 3u);
}

TEST(ColumnTest, NumericAtWidens) {
  Column ints = Column::FromInt64({3});
  EXPECT_DOUBLE_EQ(ints.NumericAt(0), 3.0);
  Column doubles = Column::FromDouble({0.25});
  EXPECT_DOUBLE_EQ(doubles.NumericAt(0), 0.25);
}

TEST(ColumnTest, TakeGathers) {
  Column c = Column::FromInt64({10, 20, 30, 40});
  Column taken = c.Take({3, 1, 1});
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken.Int64At(0), 40);
  EXPECT_EQ(taken.Int64At(1), 20);
  EXPECT_EQ(taken.Int64At(2), 20);
}

TEST(ColumnTest, TakePreservesNulls) {
  Column c(DataType::kString);
  c.AppendString("a");
  c.AppendNull();
  Column taken = c.Take({1, 0});
  EXPECT_TRUE(taken.IsNull(0));
  EXPECT_EQ(taken.StringAt(1), "a");
  EXPECT_EQ(taken.null_count(), 1u);
}

TEST(ColumnTest, SliceBounds) {
  Column c = Column::FromInt64({1, 2, 3, 4, 5});
  Column s = c.Slice(1, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.Int64At(0), 2);
  EXPECT_EQ(s.Int64At(2), 4);
  // Over-long slice clamps.
  EXPECT_EQ(c.Slice(3, 100).size(), 2u);
  EXPECT_EQ(c.Slice(5, 1).size(), 0u);
}

TEST(ColumnTest, HashAtConsistent) {
  Column c = Column::FromInt64({5, 5, 6});
  EXPECT_EQ(c.HashAt(0), c.HashAt(1));
  EXPECT_NE(c.HashAt(0), c.HashAt(2));
}

TEST(ColumnTest, HashNullIsStable) {
  Column c(DataType::kInt64);
  c.AppendNull();
  c.AppendNull();
  EXPECT_EQ(c.HashAt(0), c.HashAt(1));
}

TEST(ColumnTest, SlotEquals) {
  Column a = Column::FromDouble({1.0, 2.0});
  Column b = Column::FromDouble({2.0, 3.0});
  EXPECT_TRUE(a.SlotEquals(1, b, 0));
  EXPECT_FALSE(a.SlotEquals(0, b, 0));
  Column with_null(DataType::kDouble);
  with_null.AppendNull();
  with_null.AppendDouble(1.0);
  EXPECT_FALSE(with_null.SlotEquals(0, a, 0));  // NULL != value.
  Column other_null(DataType::kDouble);
  other_null.AppendNull();
  EXPECT_TRUE(with_null.SlotEquals(0, other_null, 0));  // NULL == NULL here.
}

TEST(ColumnTest, AppendFromCopiesSlot) {
  Column src(DataType::kString);
  src.AppendString("x");
  src.AppendNull();
  Column dst(DataType::kString);
  dst.AppendFrom(src, 0);
  dst.AppendFrom(src, 1);
  EXPECT_EQ(dst.StringAt(0), "x");
  EXPECT_TRUE(dst.IsNull(1));
}

TEST(ColumnTest, AppendRangeCopiesSubrange) {
  Column src(DataType::kInt64);
  src.AppendInt64(1);
  src.AppendNull();
  src.AppendInt64(3);
  src.AppendNull();
  Column dst(DataType::kInt64);
  dst.AppendRange(src, 1, 2);
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_TRUE(dst.IsNull(0));
  EXPECT_EQ(dst.Int64At(1), 3);
  EXPECT_EQ(dst.null_count(), 1u);
  dst.AppendRange(src, 4, 0);
  EXPECT_EQ(dst.size(), 2u);
  Column all_null(DataType::kInt64);
  all_null.AppendNull();
  all_null.AppendNull();
  dst.AppendRange(all_null, 0, 2);
  EXPECT_EQ(dst.null_count(), 3u);
}

TEST(ColumnTest, FromValuesAdoptsValuesAndValidity) {
  // Empty validity: every row valid.
  Column all = Column::FromValues(std::vector<double>{1.5, -2.0}, {});
  EXPECT_EQ(all.type(), DataType::kDouble);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.null_count(), 0u);
  EXPECT_EQ(all.DoubleAt(1), -2.0);
  // Nonzero bytes are valid (stored as 1); a NULL slot is reset to the
  // default value AppendNull stores, whatever the vector held there.
  Column ints =
      Column::FromValues(std::vector<int64_t>{7, 99, 8}, {1, 0, 5});
  EXPECT_EQ(ints.null_count(), 1u);
  EXPECT_TRUE(ints.IsNull(1));
  EXPECT_EQ(ints.Int64At(1), 0);
  EXPECT_EQ(ints.validity()[2], 1);
  Column strs = Column::FromValues(std::vector<std::string>{"a", "junk"},
                                   {1, 0});
  EXPECT_EQ(strs.type(), DataType::kString);
  EXPECT_TRUE(strs.StringAt(1).empty());
  // BOOL takes bytes; any nonzero byte is true.
  Column bools = Column::FromValues(std::vector<uint8_t>{0, 3, 1}, {});
  EXPECT_EQ(bools.type(), DataType::kBool);
  EXPECT_EQ(bools.bool_data()[1], 1);
  EXPECT_FALSE(bools.BoolAt(0));
}

}  // namespace
}  // namespace aqp
