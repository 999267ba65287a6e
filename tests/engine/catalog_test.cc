#include "engine/catalog.h"

#include <gtest/gtest.h>

#include "engine/executor.h"

namespace aqp {
namespace {

std::shared_ptr<const Table> TinyTable(int rows) {
  auto t = std::make_shared<Table>(Schema({{"x", DataType::kInt64}}));
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(t->AppendRow({Value(static_cast<int64_t>(i))}).ok());
  }
  return t;
}

TEST(CatalogTest, RegisterAndGet) {
  Catalog cat;
  ASSERT_TRUE(cat.Register("t", TinyTable(3)).ok());
  EXPECT_TRUE(cat.Contains("t"));
  auto r = ReadTable(cat, "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);
}

TEST(CatalogTest, DuplicateRegisterRejected) {
  Catalog cat;
  ASSERT_TRUE(cat.Register("t", TinyTable(1)).ok());
  EXPECT_EQ(cat.Register("t", TinyTable(1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, RegisterOrReplace) {
  Catalog cat;
  cat.RegisterOrReplace("t", TinyTable(1));
  cat.RegisterOrReplace("t", TinyTable(5));
  EXPECT_EQ(cat.Cardinality("t").value(), 5u);
}

TEST(CatalogTest, GetMissingIsNotFound) {
  Catalog cat;
  EXPECT_EQ(ReadTable(cat, "ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cat.Cardinality("ghost").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, Drop) {
  Catalog cat;
  ASSERT_TRUE(cat.Register("t", TinyTable(1)).ok());
  ASSERT_TRUE(cat.Drop("t").ok());
  EXPECT_FALSE(cat.Contains("t"));
  EXPECT_EQ(cat.Drop("t").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, VersionStartsAtOneAndBumpsOnReplace) {
  Catalog cat;
  EXPECT_EQ(cat.Version("t").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(cat.Register("t", TinyTable(1)).ok());
  EXPECT_EQ(cat.Version("t").value(), 1u);
  cat.RegisterOrReplace("t", TinyTable(2));
  EXPECT_EQ(cat.Version("t").value(), 2u);
}

TEST(CatalogTest, VersionSurvivesDrop) {
  Catalog cat;
  ASSERT_TRUE(cat.Register("t", TinyTable(1)).ok());
  ASSERT_TRUE(cat.Drop("t").ok());
  // Not currently registered: no version to report...
  EXPECT_EQ(cat.Version("t").status().code(), StatusCode::kNotFound);
  // ...but re-registering must NOT reuse version 1, or version-keyed caches
  // would serve the dropped table's synopses for the new one.
  ASSERT_TRUE(cat.Register("t", TinyTable(3)).ok());
  EXPECT_EQ(cat.Version("t").value(), 3u);
}

TEST(CatalogTest, VersionsAreIndependentPerTable) {
  Catalog cat;
  ASSERT_TRUE(cat.Register("a", TinyTable(1)).ok());
  cat.RegisterOrReplace("a", TinyTable(2));
  ASSERT_TRUE(cat.Register("b", TinyTable(1)).ok());
  EXPECT_EQ(cat.Version("a").value(), 2u);
  EXPECT_EQ(cat.Version("b").value(), 1u);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog cat;
  ASSERT_TRUE(cat.Register("zeta", TinyTable(1)).ok());
  ASSERT_TRUE(cat.Register("alpha", TinyTable(1)).ok());
  auto names = cat.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

}  // namespace
}  // namespace aqp
