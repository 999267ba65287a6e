// Join parity: the columnar, morsel-parallel hash join must match the
// row-at-a-time oracle's join (support/row_reference.h) bit for bit — same
// cells, same row order — for inner and LEFT joins, NULL keys, duplicate
// build keys, two-column keys with a string part, and empty sides, at every
// thread count. The join also charges its build table and match-pair
// buffers to the query's MemoryTracker.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "expr/expr.h"
#include "storage/table.h"
#include "support/row_reference.h"
#include "test_util.h"

namespace aqp {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

// Low thresholds so a few hundred rows already run the parallel probe over
// many morsels.
ExecOptions Options(size_t threads) {
  ExecOptions opt;
  opt.num_threads = threads;
  opt.morsel_rows = 64;
  opt.parallel_min_rows = 128;
  return opt;
}

const char* const kTags[] = {"a", "b", "c", ""};

// Table with key columns k (int64, NULL about 1 in `null_every`), t (string
// from a 4-word vocabulary, occasionally NULL) and a payload column p.
Table KeyTable(Pcg32& rng, size_t rows, uint32_t key_range, uint32_t null_every,
               const std::string& prefix) {
  Table t(Schema({{prefix + "k", DataType::kInt64},
                  {prefix + "t", DataType::kString},
                  {prefix + "p", DataType::kDouble}}));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    if (rng.UniformUint32(null_every) == 0) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value(static_cast<int64_t>(rng.UniformUint32(key_range))));
    }
    if (rng.UniformUint32(null_every) == 0) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value(std::string(kTags[rng.UniformUint32(4)])));
    }
    row.push_back(Value(rng.Gaussian()));
    AQP_CHECK(t.AppendRow(std::move(row)).ok());
  }
  return t;
}

struct JoinCase {
  const char* label;
  size_t left_rows;
  size_t right_rows;
  uint32_t key_range;
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
};

// Joins `l` and `r` at every thread count and requires each result to be
// bit-identical (cells and row order) to the oracle's join.
void ExpectParity(const Catalog& catalog, const PlanPtr& left_plan,
                  const PlanPtr& right_plan, JoinType type,
                  const std::vector<std::string>& lkeys,
                  const std::vector<std::string>& rkeys,
                  const std::string& label) {
  const PlanPtr join =
      PlanNode::Join(left_plan, right_plan, type, lkeys, rkeys);
  const Table expected =
      testutil::ExecuteRowReference(join, catalog, Options(1)).value();
  for (size_t threads : kThreadCounts) {
    ExecStats stats;
    Result<Table> got =
        Execute(join, catalog, &stats, nullptr, Options(threads));
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    EXPECT_TRUE(testutil::TablesBitIdentical(expected, got.value()))
        << label << " threads=" << threads;
    EXPECT_EQ(stats.rows_joined, expected.num_rows()) << label;
  }
}

TEST(JoinParityTest, MatchesRowByRowReferenceAcrossPathsAndThreads) {
  const JoinCase cases[] = {
      // Many duplicate build keys per probe key (fan-out), NULL keys both
      // sides, several hundred probe rows -> many morsels.
      {"dup-keys", 700, 90, 12, {"lk"}, {"rk"}},
      // Mostly unmatched probe keys: LEFT joins NULL-extend most rows.
      {"sparse", 500, 40, 400, {"lk"}, {"rk"}},
      // Two-column key with a string part.
      {"two-col", 600, 120, 6, {"lk", "lt"}, {"rk", "rt"}},
      // Empty sides.
      {"empty-right", 300, 0, 10, {"lk"}, {"rk"}},
      {"empty-left", 0, 50, 10, {"lk"}, {"rk"}},
      {"both-empty", 0, 0, 10, {"lk", "lt"}, {"rk", "rt"}},
      // Below the morsel threshold: the serial probe.
      {"small", 20, 15, 5, {"lk", "lt"}, {"rk", "rt"}},
  };
  Pcg32 rng(0x701A);
  for (const JoinCase& c : cases) {
    Catalog catalog;
    catalog.RegisterOrReplace(
        "l", std::make_shared<const Table>(
                 KeyTable(rng, c.left_rows, c.key_range, 9, "l")));
    catalog.RegisterOrReplace(
        "r", std::make_shared<const Table>(
                 KeyTable(rng, c.right_rows, c.key_range, 7, "r")));
    for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
      const std::string label =
          std::string(c.label) +
          (type == JoinType::kInner ? " inner" : " left");
      // Plain scans (identity views in the engine).
      ExpectParity(catalog, PlanNode::Scan("l"), PlanNode::Scan("r"), type,
                   c.left_keys, c.right_keys, label + " scans");
      // Filtered and renamed inputs: selection views whose rows the join
      // reads through the selection.
      PlanPtr lf =
          PlanNode::Filter(PlanNode::Scan("l"), Gt(Col("lp"), Lit(-0.5)));
      PlanPtr rf = PlanNode::Project(
          PlanNode::Filter(PlanNode::Scan("r"), Lt(Col("rp"), Lit(0.8))),
          {Col("rt"), Col("rk"), Col("rp")}, {"rt", "rk", "rp"});
      ExpectParity(catalog, lf, rf, type, c.left_keys, c.right_keys,
                   label + " filtered");
    }
  }
}

TEST(JoinParityTest, LeftJoinNullExtendsEveryRightColumnType) {
  Catalog catalog;
  Table left(Schema({{"k", DataType::kInt64}}));
  for (int64_t k : {1, 2, 3}) ASSERT_TRUE(left.AppendRow({Value(k)}).ok());
  Table right(Schema({{"j", DataType::kInt64},
                      {"s", DataType::kString},
                      {"d", DataType::kDouble},
                      {"b", DataType::kBool}}));
  ASSERT_TRUE(right
                  .AppendRow({Value(int64_t{2}), Value(std::string("two")),
                              Value(2.5), Value(true)})
                  .ok());
  catalog.RegisterOrReplace("l", std::make_shared<const Table>(left));
  catalog.RegisterOrReplace("r", std::make_shared<const Table>(right));
  const PlanPtr join = PlanNode::Join(PlanNode::Scan("l"), PlanNode::Scan("r"),
                                      JoinType::kLeftOuter, {"k"}, {"j"});
  Table out = Execute(join, catalog, nullptr, nullptr, Options(2)).value();
  ASSERT_EQ(out.num_rows(), 3u);
  for (size_t c = 1; c < out.num_columns(); ++c) {
    EXPECT_TRUE(out.column(c).IsNull(0));
    EXPECT_FALSE(out.column(c).IsNull(1));
    EXPECT_TRUE(out.column(c).IsNull(2));
  }
  EXPECT_EQ(out.column(2).StringAt(1), "two");
  EXPECT_EQ(out.column(2).null_count(), 2u);
}

// A join whose build table and match pairs cannot fit the query budget is
// refused with ResourceExhausted instead of allocating past it, and every
// charge it took is returned.
TEST(JoinMemoryTest, TinyBudgetRefusesLargeJoinWithoutLeakingCharges) {
  Pcg32 rng(0xB0D9E7);
  Catalog catalog;
  catalog.RegisterOrReplace("l", std::make_shared<const Table>(
                                     KeyTable(rng, 40000, 500, 50, "l")));
  catalog.RegisterOrReplace("r", std::make_shared<const Table>(
                                     KeyTable(rng, 2000, 500, 50, "r")));
  const PlanPtr join = PlanNode::Join(PlanNode::Scan("l"), PlanNode::Scan("r"),
                                      JoinType::kInner, {"lk"}, {"rk"});
  // 1 KB: the build table alone is refused. 256 KB: the build fits, the
  // match pairs (about four per probe row) do not.
  for (uint64_t budget : {uint64_t{1} << 10, uint64_t{256} << 10}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      CancellationSource source;
      CancellationToken token = source.token();
      MemoryTracker memory(budget);
      memory.BindCancellation(&source);
      ExecOptions opt;
      opt.num_threads = threads;
      opt.memory = &memory;
      opt.cancel = &token;
      Result<Table> r = Execute(join, catalog, nullptr, nullptr, opt);
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << "budget=" << budget << " threads=" << threads;
      EXPECT_GE(memory.exhausted_count(), 1u);
      EXPECT_EQ(memory.used(), 0u) << "leaked charge, budget=" << budget;
    }
  }
  // With an unbounded tracker the same join runs, and its charges drain.
  MemoryTracker unbounded;
  ExecOptions opt;
  opt.memory = &unbounded;
  Result<Table> r = Execute(join, catalog, nullptr, nullptr, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(unbounded.peak(), 0u);
  EXPECT_EQ(unbounded.used(), 0u);
}

}  // namespace
}  // namespace aqp
