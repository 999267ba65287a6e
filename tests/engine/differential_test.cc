// Differential harness locking the engine to the row-at-a-time oracle
// (support/row_reference.h): a thousand seeded random queries — predicates
// over nullable int/double/string/bool columns (comparisons, BETWEEN, IN,
// LIKE, Kleene AND/OR/NOT, arithmetic fallbacks, NaN literals), sampled
// scans, projects, every aggregate kind, group-bys, sorts, limits, joins —
// must produce CELL-FOR-CELL BIT-IDENTICAL results in the engine and the
// oracle, at every thread count in {1, 2, 4, 8}. Queries that error must
// error with the same code. A second suite drives whole approximate queries
// through ApproxExecutor and requires results and confidence intervals to
// match bit for bit across thread counts.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/approx_executor.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "expr/expr.h"
#include "storage/table.h"
#include "support/row_reference.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

// Low thresholds so even small random tables exercise the morsel-parallel
// regions and multi-morsel selection merges.
ExecOptions ThreadOptions(size_t threads) {
  ExecOptions opt;
  opt.num_threads = threads;
  opt.morsel_rows = 128;
  opt.parallel_min_rows = 256;
  return opt;
}


const char* const kVocab[] = {"air", "rail", "ship", "mail",
                              "truck", "aa%", "a_c", ""};

// Random 6-column table: i (nullable int64, occasionally huge to stress the
// int64->double conversion kernels), d (nullable double with NaN and
// infinities), s (nullable dictionary-friendly string), b (nullable bool),
// k (small-domain int64 group key, occasionally null), h (non-null int64
// group key with a domain well above ThreadOptions' 128-row morsels, drawn
// from its own stream so the other columns' draws stay as they were).
Table RandomTable(Pcg32& rng, size_t rows) {
  Table t(Schema({{"i", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"s", DataType::kString},
                  {"b", DataType::kBool},
                  {"k", DataType::kInt64},
                  {"h", DataType::kInt64}}));
  Pcg32 h_rng(0x4A5 + rows, /*stream=*/7);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    if (rng.UniformUint32(10) == 0) {
      row.push_back(Value::Null());
    } else if (rng.UniformUint32(50) == 0) {
      // Outside the AVX2 magic-number conversion's exact range (|v| < 2^51):
      // forces the per-lane scalar-convert fallback.
      const int64_t huge[] = {(int64_t{1} << 53) + 1, -(int64_t{1} << 51) - 7,
                              (int64_t{1} << 62), -(int64_t{1} << 53)};
      row.push_back(Value(huge[rng.UniformUint32(4)]));
    } else {
      row.push_back(Value(static_cast<int64_t>(rng.UniformUint32(101)) - 50));
    }
    if (rng.UniformUint32(10) == 0) {
      row.push_back(Value::Null());
    } else if (rng.UniformUint32(50) == 0) {
      const double odd[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), -0.0};
      row.push_back(Value(odd[rng.UniformUint32(4)]));
    } else {
      row.push_back(Value(rng.Gaussian() * 25.0));
    }
    if (rng.UniformUint32(10) == 0) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value(std::string(kVocab[rng.UniformUint32(8)])));
    }
    if (rng.UniformUint32(10) == 0) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value(rng.UniformUint32(2) == 1));
    }
    if (rng.UniformUint32(20) == 0) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value(static_cast<int64_t>(rng.UniformUint32(6))));
    }
    row.push_back(Value(static_cast<int64_t>(h_rng.UniformUint32(1000))));
    Status s = t.AppendRow(std::move(row));
    AQP_CHECK(s.ok());
  }
  return t;
}

ExprPtr MakeCmp(uint32_t op, ExprPtr a, ExprPtr b) {
  switch (op % 6) {
    case 0: return Eq(std::move(a), std::move(b));
    case 1: return Ne(std::move(a), std::move(b));
    case 2: return Lt(std::move(a), std::move(b));
    case 3: return Le(std::move(a), std::move(b));
    case 4: return Gt(std::move(a), std::move(b));
    default: return Ge(std::move(a), std::move(b));
  }
}

ExprPtr NumLit(Pcg32& rng) {
  if (rng.UniformUint32(2) == 0) {
    return Lit(static_cast<int64_t>(rng.UniformUint32(101)) - 50);
  }
  return Lit((static_cast<double>(rng.UniformUint32(2001)) - 1000.0) / 10.0);
}

ExprPtr RandomPredicate(Pcg32& rng, int depth) {
  if (depth > 0 && rng.UniformUint32(100) < 45) {
    switch (rng.UniformUint32(3)) {
      case 0:
        return And(RandomPredicate(rng, depth - 1),
                   RandomPredicate(rng, depth - 1));
      case 1:
        return Or(RandomPredicate(rng, depth - 1),
                  RandomPredicate(rng, depth - 1));
      default:
        return Not(RandomPredicate(rng, depth - 1));
    }
  }
  switch (rng.UniformUint32(14)) {
    case 0:  // Numeric column vs literal.
      return MakeCmp(rng.UniformUint32(6),
                     Col(rng.UniformUint32(2) == 0 ? "i" : "d"), NumLit(rng));
    case 1:  // String column vs literal (dictionary range kernel).
      return MakeCmp(rng.UniformUint32(6), Col("s"),
                     Lit(std::string(kVocab[rng.UniformUint32(8)])));
    case 2: {  // Column vs column.
      const char* pairs[][2] = {{"i", "k"}, {"i", "d"}, {"d", "i"},
                                {"k", "i"}, {"d", "d"}};
      const auto& p = pairs[rng.UniformUint32(5)];
      return MakeCmp(rng.UniformUint32(6), Col(p[0]), Col(p[1]));
    }
    case 3: {  // Numeric BETWEEN (int64 bounds hit the int64-space kernel).
      int64_t lo = static_cast<int64_t>(rng.UniformUint32(60)) - 30;
      int64_t hi = lo + static_cast<int64_t>(rng.UniformUint32(40));
      return Between(Col(rng.UniformUint32(2) == 0 ? "i" : "k"), Lit(lo),
                     Lit(hi));
    }
    case 4:  // Double-bound BETWEEN over a double column.
      return Between(Col("d"), Lit(-20.0),
                     Lit(static_cast<double>(rng.UniformUint32(40))));
    case 5:  // String BETWEEN (dictionary range).
      return Between(Col("s"), Lit("a"), Lit("r"));
    case 6: {  // Numeric IN, sometimes with a NULL element.
      std::vector<Value> list = {Value(int64_t{1}), Value(int64_t{5}),
                                 Value(9.0)};
      if (rng.UniformUint32(3) == 0) list.push_back(Value::Null());
      return In(Col(rng.UniformUint32(2) == 0 ? "i" : "d"), std::move(list));
    }
    case 7: {  // String IN (dictionary bitmap).
      std::vector<Value> list = {Value(std::string("air")),
                                 Value(std::string("mail"))};
      if (rng.UniformUint32(3) == 0) list.push_back(Value::Null());
      return In(Col("s"), std::move(list));
    }
    case 8: {  // LIKE (dictionary bitmap).
      const char* pats[] = {"%ai%", "r__l", "%", "a%", "%k", ""};
      return Like(Col("s"), pats[rng.UniformUint32(6)]);
    }
    case 9:  // Bare bool column / bool comparison.
      return rng.UniformUint32(2) == 0
                 ? Col("b")
                 : Eq(Col("b"), Lit(rng.UniformUint32(2) == 1));
    case 10: {  // Arithmetic scalar fallback.
      switch (rng.UniformUint32(3)) {
        case 0:
          return Gt(Add(Col("i"), Col("d")), Lit(5.0));
        case 1:
          return Eq(Mod(Col("i"), Lit(int64_t{3})), Lit(int64_t{1}));
        default:
          return Lt(Mul(Col("d"), Lit(2.0)), Col("i"));
      }
    }
    case 11:  // NaN literal: the three-way comparator treats NaN as equal.
      return MakeCmp(rng.UniformUint32(6), Col("d"),
                     Lit(std::numeric_limits<double>::quiet_NaN()));
    case 12:  // Constant / NULL-literal predicates.
      switch (rng.UniformUint32(3)) {
        case 0: return Eq(Lit(int64_t{1}), Lit(int64_t{1}));
        case 1: return Gt(Col("d"), NullLit());
        default: return Lit(rng.UniformUint32(2) == 1);
      }
    default:  // Rare error probe: k can be 0, so both paths must fail alike.
      if (rng.UniformUint32(8) == 0) {
        return Eq(Mod(Col("i"), Col("k")), Lit(int64_t{0}));
      }
      return Le(Col("d"), Lit(10.0));
  }
}

// Builds a random plan over "t" (and sometimes "u"), tracking the current
// output column names so sorts and projects stay well-formed. `key_rng`
// picks the INT64-keyed groupings and INT64 MIN/MAX arguments on its own
// stream, so `rng`'s draws are the same as without them.
PlanPtr RandomPlan(Pcg32& rng, Pcg32& key_rng) {
  SampleSpec spec;
  if (rng.UniformUint32(2) == 0) {
    spec.method = rng.UniformUint32(2) == 0 ? SampleSpec::Method::kBernoulliRow
                                            : SampleSpec::Method::kSystemBlock;
    const double rates[] = {0.1, 0.5, 0.9};
    spec.rate = rates[rng.UniformUint32(3)];
    spec.seed = rng.UniformUint64(1u << 30);
    spec.block_size = 64;
  }
  PlanPtr plan = PlanNode::Scan("t", spec);
  std::vector<std::string> names = {"i", "d", "s", "b", "k", "h"};

  if (rng.UniformUint32(10) < 8) {
    plan = PlanNode::Filter(plan, RandomPredicate(rng, 2));
  }
  if (rng.UniformUint32(10) == 0) {
    plan = PlanNode::Join(plan, PlanNode::Scan("u"), JoinType::kInner, {"k"},
                          {"j"});
    names.push_back("j");
    names.push_back("y");
  }
  if (rng.UniformUint32(10) < 3) {
    if (rng.UniformUint32(2) == 0) {
      // Bare-column remap (zero-copy on the batch path).
      plan = PlanNode::Project(plan, {Col("d"), Col("i"), Col("s"), Col("k")},
                               {"d", "i2", "s", "k"});
      names = {"d", "i2", "s", "k"};
    } else {
      plan = PlanNode::Project(plan, {Add(Col("d"), Lit(1.5)), Col("k"),
                                      Col("s")},
                               {"dx", "k", "s"});
      names = {"dx", "k", "s"};
    }
  }
  if (rng.UniformUint32(10) < 6) {
    // Aggregate: every kind, global or grouped.
    std::string measure = "d";
    for (const std::string& n : names) {
      if (n == "dx") measure = "dx";
    }
    bool have_d = false;
    bool have_s = false;
    bool have_k = false;
    bool have_h = false;
    bool have_i = false;
    for (const std::string& n : names) {
      have_d |= (n == measure);
      have_s |= (n == "s");
      have_k |= (n == "k");
      have_h |= (n == "h");
      have_i |= (n == "i");
    }
    if (!have_d) return plan;  // Projection dropped the measure; stop here.
    std::vector<AggSpec> aggs;
    aggs.push_back({AggKind::kCountStar, nullptr, "a0"});
    const AggKind kinds[] = {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                             AggKind::kMin, AggKind::kMax, AggKind::kVar,
                             AggKind::kStddev, AggKind::kCountDistinct};
    const uint32_t extra = 1 + rng.UniformUint32(4);
    for (uint32_t a = 0; a < extra; ++a) {
      AggKind kind = kinds[rng.UniformUint32(8)];
      ExprPtr arg = Col(measure);
      if (kind == AggKind::kCountDistinct && have_s &&
          rng.UniformUint32(2) == 0) {
        arg = Col("s");
      }
      if ((kind == AggKind::kMin || kind == AggKind::kMax) && have_i &&
          key_rng.UniformUint32(3) == 0) {
        arg = Col("i");  // INT64 MIN/MAX, values beyond 2^53 included.
      }
      aggs.push_back({kind, std::move(arg), "a" + std::to_string(a + 1)});
    }
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    if (have_k && rng.UniformUint32(3) != 0) {
      group_exprs.push_back(Col("k"));
      group_names.push_back("k");
      if (have_s && rng.UniformUint32(3) == 0) {
        group_exprs.push_back(Col("s"));
        group_names.push_back("s");
      }
      // Half of the k-only groupings become (h) or (h, k): all-INT64 keys,
      // with more groups than a morsel has rows.
      if (group_exprs.size() == 1 && have_h) {
        switch (key_rng.UniformUint32(4)) {
          case 0:
            group_exprs = {Col("h")};
            group_names = {"h"};
            break;
          case 1:
            group_exprs.insert(group_exprs.begin(), Col("h"));
            group_names.insert(group_names.begin(), "h");
            break;
          default:
            break;
        }
      }
    }
    names = group_names;
    for (const AggSpec& a : aggs) names.push_back(a.alias);
    plan = PlanNode::Aggregate(plan, std::move(group_exprs),
                               std::move(group_names), std::move(aggs));
  }
  if (rng.UniformUint32(10) < 3 && !names.empty()) {
    std::vector<SortKey> keys;
    keys.push_back({names[rng.UniformUint32(
                        static_cast<uint32_t>(names.size()))],
                    rng.UniformUint32(2) == 0});
    plan = PlanNode::Sort(plan, std::move(keys));
  }
  if (rng.UniformUint32(10) < 2) {
    plan = PlanNode::Limit(plan, rng.UniformUint32(30));
  }
  return plan;
}

TEST(DifferentialTest, ThousandRandomQueriesBitIdenticalAcrossPathsAndThreads) {
  Pcg32 rng(0xD1FFE7);
  const size_t kRowChoices[] = {0, 1, 7, 63, 129, 257, 500, 1200, 3000, 100};
  Catalog catalog;

  // Join side table: key j in [0, 6), measure y.
  {
    Table u(Schema({{"j", DataType::kInt64}, {"y", DataType::kDouble}}));
    Pcg32 urng(77);
    for (size_t r = 0; r < 40; ++r) {
      Status s = u.AppendRow({Value(static_cast<int64_t>(urng.UniformUint32(6))),
                              Value(urng.Gaussian())});
      AQP_CHECK(s.ok());
    }
    catalog.RegisterOrReplace("u", std::make_shared<const Table>(std::move(u)));
  }

  Pcg32 key_rng(0x5EED, /*stream=*/3);
  size_t executed_ok = 0;
  size_t errored = 0;
  constexpr int kQueries = 1000;
  for (int q = 0; q < kQueries; ++q) {
    if (q % 100 == 0) {
      const size_t rows = kRowChoices[(q / 100) % 10];
      catalog.RegisterOrReplace(
          "t", std::make_shared<const Table>(RandomTable(rng, rows)));
    }
    PlanPtr plan = RandomPlan(rng, key_rng);
    Result<Table> reference =
        testutil::ExecuteRowReference(plan, catalog, ThreadOptions(1));
    for (size_t threads : kThreadCounts) {
      Result<Table> got =
          Execute(plan, catalog, nullptr, nullptr, ThreadOptions(threads));
      if (reference.ok() != got.ok()) {
        ADD_FAILURE() << "query " << q << " [threads=" << threads
                      << "]: ok mismatch vs reference\nplan:\n"
                      << plan->ToString() << "\nreference: "
                      << (reference.ok() ? "ok"
                                         : reference.status().ToString())
                      << "\ngot: "
                      << (got.ok() ? "ok" : got.status().ToString());
        continue;
      }
      if (!reference.ok()) {
        EXPECT_EQ(reference.status().code(), got.status().code())
            << "query " << q << " [threads=" << threads << "]";
        continue;
      }
      EXPECT_TRUE(testutil::TablesBitIdentical(reference.value(), got.value()))
          << "query " << q << " [threads=" << threads << "]\nplan:\n"
          << plan->ToString();
    }
    if (reference.ok()) {
      ++executed_ok;
    } else {
      ++errored;
    }
  }
  // The generator must keep exercising the deep paths: nearly all queries
  // run, and at least a few hit the matching-error path.
  EXPECT_GT(executed_ok, 900u);
  EXPECT_GT(errored, 0u);
}

// Whole approximate queries: results AND per-cell confidence intervals must
// be bit-identical at every thread count. A fresh executor per run keeps the
// invocation-salted stage seeds aligned.
TEST(DifferentialTest, ApproxExecutorCiBoundsBitIdenticalAcrossPaths) {
  Catalog catalog = workload::GenerateLineitemLike(20000, 23).value();
  const char* const kQueries[] = {
      "SELECT SUM(extendedprice) AS s FROM lineitem WITH ERROR 5% "
      "CONFIDENCE 95%",
      "SELECT COUNT(*) AS n FROM lineitem WHERE quantity < 25 WITH ERROR 5% "
      "CONFIDENCE 95%",
      "SELECT AVG(extendedprice) AS a FROM lineitem WHERE discount >= 0.01 "
      "AND shipmode = 'AIR' WITH ERROR 10% CONFIDENCE 90%",
      "SELECT shipmode, SUM(quantity) AS q FROM lineitem GROUP BY shipmode "
      "WITH ERROR 10% CONFIDENCE 95%",
      "SELECT SUM(extendedprice * (1 - discount)) AS rev FROM lineitem "
      "WHERE quantity BETWEEN 5 AND 40 WITH ERROR 5% CONFIDENCE 95%",
  };
  auto run = [&](const char* sql, size_t threads) {
    core::AqpOptions options;
    options.exec.num_threads = threads;
    core::ApproxExecutor executor(&catalog, options);
    return executor.Execute(sql);
  };
  for (const char* sql : kQueries) {
    Result<core::ApproxResult> reference = run(sql, 1);
    ASSERT_TRUE(reference.ok()) << sql << ": " << reference.status().ToString();
    for (size_t threads : kThreadCounts) {
      Result<core::ApproxResult> got = run(sql, threads);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      const core::ApproxResult& a = reference.value();
      const core::ApproxResult& b = got.value();
      EXPECT_EQ(a.approximated, b.approximated) << sql;
      EXPECT_EQ(a.profile.sampled_fraction, b.profile.sampled_fraction) << sql;
      EXPECT_TRUE(testutil::TablesBitIdentical(a.table, b.table))
          << sql << " [threads=" << threads << "]";
      ASSERT_EQ(a.cis.size(), b.cis.size()) << sql;
      for (size_t r = 0; r < a.cis.size(); ++r) {
        ASSERT_EQ(a.cis[r].size(), b.cis[r].size()) << sql;
        for (size_t c = 0; c < a.cis[r].size(); ++c) {
          EXPECT_EQ(std::bit_cast<uint64_t>(a.cis[r][c].estimate),
                    std::bit_cast<uint64_t>(b.cis[r][c].estimate))
              << sql << " row " << r << " item " << c;
          EXPECT_EQ(std::bit_cast<uint64_t>(a.cis[r][c].low),
                    std::bit_cast<uint64_t>(b.cis[r][c].low))
              << sql << " row " << r << " item " << c;
          EXPECT_EQ(std::bit_cast<uint64_t>(a.cis[r][c].high),
                    std::bit_cast<uint64_t>(b.cis[r][c].high))
              << sql << " row " << r << " item " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace aqp
