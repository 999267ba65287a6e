#include "common/hash_id_table.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"

namespace aqp {
namespace {

// Keys live outside the table; ids index `keys`.
uint32_t Insert(HashIdTable& table, std::vector<int64_t>& keys, int64_t key,
                uint64_t hash) {
  bool inserted = false;
  const uint32_t id = table.FindOrInsert(
      hash, [&](uint32_t cand) { return keys[cand] == key; }, &inserted);
  if (inserted) {
    EXPECT_EQ(id, keys.size());
    keys.push_back(key);
  }
  return id;
}

TEST(HashIdTableTest, DenseIdsInFirstInsertionOrderAcrossGrowth) {
  HashIdTable table;
  std::vector<int64_t> keys;
  // Far past the initial 16 slots: the table doubles many times.
  for (int64_t k = 0; k < 5000; ++k) {
    EXPECT_EQ(Insert(table, keys, 7 * k, HashInt64(7 * k)),
              static_cast<uint32_t>(k));
  }
  EXPECT_EQ(table.size(), 5000u);
  for (int64_t k = 4999; k >= 0; --k) {
    EXPECT_EQ(Insert(table, keys, 7 * k, HashInt64(7 * k)),
              static_cast<uint32_t>(k));
    EXPECT_EQ(table.Find(HashInt64(7 * k),
                         [&](uint32_t cand) { return keys[cand] == 7 * k; }),
              static_cast<uint32_t>(k));
  }
  EXPECT_EQ(table.size(), 5000u);
  EXPECT_EQ(table.Find(HashInt64(3), [&](uint32_t) { return false; }),
            HashIdTable::kNotFound);
}

TEST(HashIdTableTest, EqualHashesStayDistinctKeys) {
  // Every key hashes alike: only the equality callback tells them apart.
  HashIdTable table;
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(Insert(table, keys, k, 42), static_cast<uint32_t>(k));
  }
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(Insert(table, keys, k, 42), static_cast<uint32_t>(k));
  }
  EXPECT_EQ(table.size(), 100u);
}

TEST(HashIdTableTest, ClearForgetsKeysAndRestartsIds) {
  HashIdTable table;
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 300; ++k) Insert(table, keys, k, HashInt64(k));
  table.Clear();
  keys.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(HashInt64(5), [&](uint32_t) { return true; }),
            HashIdTable::kNotFound);
  EXPECT_EQ(Insert(table, keys, 5, HashInt64(5)), 0u);
  EXPECT_EQ(Insert(table, keys, 9, HashInt64(9)), 1u);
}

}  // namespace
}  // namespace aqp
