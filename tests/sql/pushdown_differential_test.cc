// WHERE pushdown differential: random join queries with mixed conjuncts
// (single-table, cross-table ORs, unqualified columns, constants) must give
// bit-identical results — cells and row order — with the binder's pushed
// plan in the engine at every thread count, and with a reference plan that
// keeps the whole WHERE in one Filter above the joins in the row-at-a-time
// oracle.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "sql/binder.h"
#include "support/row_reference.h"
#include "test_util.h"

namespace aqp {
namespace sql {
namespace {

// Rebuilds the join subtree `plan` without its Filters, appending their
// predicates to `moved`.
PlanPtr StripFilters(const PlanPtr& plan, std::vector<ExprPtr>* moved) {
  switch (plan->kind()) {
    case PlanKind::kFilter:
      moved->push_back(plan->predicate());
      return StripFilters(plan->child(), moved);
    case PlanKind::kProject:
      return PlanNode::Project(StripFilters(plan->child(), moved),
                               plan->exprs(), plan->names());
    case PlanKind::kJoin:
      return PlanNode::Join(StripFilters(plan->child(0), moved),
                            StripFilters(plan->child(1), moved),
                            plan->join_type(), plan->left_keys(),
                            plan->right_keys());
    default:
      return plan;
  }
}

// The pre-pushdown plan: every WHERE conjunct back in one Filter directly
// above the topmost join (residual first, then the pushed ones).
PlanPtr Unpush(const PlanPtr& plan) {
  const bool residual = plan->kind() == PlanKind::kFilter &&
                        plan->child()->kind() == PlanKind::kJoin;
  if (residual || plan->kind() == PlanKind::kJoin) {
    std::vector<ExprPtr> moved;
    PlanPtr joins = StripFilters(residual ? plan->child() : plan, &moved);
    ExprPtr where = residual ? plan->predicate() : nullptr;
    for (const ExprPtr& e : moved) {
      where = where == nullptr ? e : And(where, e);
    }
    return where == nullptr ? joins : PlanNode::Filter(joins, where);
  }
  switch (plan->kind()) {
    case PlanKind::kFilter:
      return PlanNode::Filter(Unpush(plan->child()), plan->predicate());
    case PlanKind::kProject:
      return PlanNode::Project(Unpush(plan->child()), plan->exprs(),
                               plan->names());
    case PlanKind::kAggregate:
      return PlanNode::Aggregate(Unpush(plan->child()), plan->group_exprs(),
                                 plan->group_names(), plan->aggs());
    case PlanKind::kSort:
      return PlanNode::Sort(Unpush(plan->child()), plan->sort_keys());
    case PlanKind::kLimit:
      return PlanNode::Limit(Unpush(plan->child()), plan->limit());
    default:
      return plan;
  }
}

// True when some Filter sits below a join in `plan`.
bool HasPushedFilter(const PlanPtr& plan, bool below_join) {
  if (plan->kind() == PlanKind::kFilter && below_join) return true;
  const bool join = plan->kind() == PlanKind::kJoin;
  for (size_t i = 0; i < plan->num_children(); ++i) {
    if (HasPushedFilter(plan->child(i), below_join || join)) return true;
  }
  return false;
}

const char* const kWords[] = {"air", "rail", "ship", "mail"};

template <typename T>
const T& Pick(Pcg32& rng, const std::vector<T>& v) {
  return v[rng.UniformUint32(static_cast<uint32_t>(v.size()))];
}

Value MaybeNull(Pcg32& rng, Value v) {
  return rng.UniformUint32(8) == 0 ? Value::Null() : std::move(v);
}

Catalog RandomCatalog(Pcg32& rng) {
  Catalog catalog;
  Table t(Schema({{"i", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"s", DataType::kString},
                  {"k", DataType::kInt64}}));
  const size_t t_rows = rng.UniformUint32(600);
  for (size_t r = 0; r < t_rows; ++r) {
    AQP_CHECK(
        t.AppendRow(
             {MaybeNull(rng, Value(int64_t{rng.UniformUint32(41)} - 20)),
              MaybeNull(rng, Value(rng.Gaussian() * 10.0)),
              MaybeNull(rng, Value(std::string(kWords[rng.UniformUint32(4)]))),
              MaybeNull(rng, Value(int64_t{rng.UniformUint32(6)}))})
            .ok());
  }
  Table u(Schema({{"j", DataType::kInt64},
                  {"y", DataType::kDouble},
                  {"w", DataType::kString}}));
  const size_t u_rows = rng.UniformUint32(60);
  for (size_t r = 0; r < u_rows; ++r) {
    AQP_CHECK(
        u.AppendRow(
             {MaybeNull(rng, Value(int64_t{rng.UniformUint32(6)})),
              MaybeNull(rng, Value(rng.Gaussian())),
              MaybeNull(rng, Value(std::string(kWords[rng.UniformUint32(4)])))})
            .ok());
  }
  Table v(Schema({{"m", DataType::kInt64}, {"z", DataType::kDouble}}));
  const size_t v_rows = rng.UniformUint32(20);
  for (size_t r = 0; r < v_rows; ++r) {
    AQP_CHECK(v.AppendRow({MaybeNull(rng, Value(int64_t{rng.UniformUint32(6)})),
                           Value(rng.Gaussian())})
                  .ok());
  }
  catalog.RegisterOrReplace("t", std::make_shared<const Table>(std::move(t)));
  catalog.RegisterOrReplace("u", std::make_shared<const Table>(std::move(u)));
  catalog.RegisterOrReplace("v", std::make_shared<const Table>(std::move(v)));
  return catalog;
}

std::string RandomConjunct(Pcg32& rng, bool three_tables) {
  const std::string n =
      std::to_string(static_cast<int>(rng.UniformUint32(31)) - 15);
  const std::string w = kWords[rng.UniformUint32(4)];
  std::vector<std::string> options = {
      // One table each (pushable unless that table is NULL-extended).
      "a.i > " + n,
      "a.d < " + n + ".5",
      "a.s = '" + w + "'",
      "a.s LIKE '%a%'",
      "a.k IN (1, 2, 3)",
      "a.d BETWEEN -8 AND 8",
      "i < " + n,  // Unqualified: only t has i.
      "NOT (a.i = 3)",
      "(a.i < 0 OR a.s = 'rail')",
      "b.y > -0.5",
      "b.w <> '" + w + "'",
      "y < 0.7",  // Unqualified: only u has y.
      // Several tables or none: stay above the joins.
      "(a.i > " + n + " OR b.y < 0)",
      "a.d > b.y",
      "1 = 1",
  };
  if (three_tables) {
    options.push_back("c.z < 0.3");
    options.push_back("(c.z > 0 OR a.d > 0)");
  }
  return Pick(rng, options);
}

std::string RandomQuery(Pcg32& rng) {
  const bool three = rng.UniformUint32(3) == 0;
  const char* join_kw[] = {" JOIN ", " LEFT JOIN "};
  std::string from = "t AS a";
  if (rng.UniformUint32(4) == 0) from += " TABLESAMPLE BERNOULLI(50)";
  from += join_kw[rng.UniformUint32(2)];
  from += "u AS b ON a.k = b.j";
  if (three) {
    from += join_kw[rng.UniformUint32(2)];
    from += rng.UniformUint32(2) == 0 ? "v AS c ON b.j = c.m"
                                      : "v AS c ON a.k = c.m";
  }
  std::string where = RandomConjunct(rng, three);
  const uint32_t extra = rng.UniformUint32(4);
  for (uint32_t e = 0; e < extra; ++e) {
    where += " AND " + RandomConjunct(rng, three);
  }
  switch (rng.UniformUint32(3)) {
    case 0:  // Plain projection: the join's row order reaches the output.
      return "SELECT a.i, a.d, a.s, b.j, b.y" +
             std::string(three ? ", c.z" : "") + " FROM " + from +
             " WHERE " + where;
    case 1:
      return "SELECT a.k, COUNT(*) AS n, SUM(a.d) AS sd, AVG(b.y) AS ay, "
             "MIN(b.w) AS mw FROM " +
             from + " WHERE " + where + " GROUP BY a.k";
    default:
      return "SELECT COUNT(*) AS n, SUM(b.y) AS sy, VAR(a.d) AS vd FROM " +
             from + " WHERE " + where;
  }
}

TEST(PushdownDifferentialTest, PushedPlansMatchOneFilterAboveTheJoins) {
  Pcg32 rng(0x9D5D0);
  constexpr int kQueries = 400;
  const size_t threads[] = {1, 2, 4, 8};
  Catalog catalog;
  int pushed = 0;
  for (int q = 0; q < kQueries; ++q) {
    if (q % 40 == 0) catalog = RandomCatalog(rng);
    const std::string sql = RandomQuery(rng);
    Result<BoundQuery> bound = BindSql(sql, catalog);
    ASSERT_TRUE(bound.ok()) << sql << ": " << bound.status().ToString();
    if (HasPushedFilter(bound->plan, false)) ++pushed;
    const PlanPtr reference_plan = Unpush(bound->plan);
    ASSERT_FALSE(HasPushedFilter(reference_plan, false)) << sql;
    // Same morsel geometry as the runs below: it, not the thread count,
    // fixes the floating-point grouping of the aggregates.
    ExecOptions ref_opt;
    ref_opt.num_threads = 1;
    ref_opt.morsel_rows = 64;
    ref_opt.parallel_min_rows = 128;
    Result<Table> reference =
        testutil::ExecuteRowReference(reference_plan, catalog, ref_opt);
    ASSERT_TRUE(reference.ok()) << sql << ": " << reference.status().ToString();
    for (size_t n : threads) {
      ExecOptions opt;
      opt.num_threads = n;
      opt.morsel_rows = 64;
      opt.parallel_min_rows = 128;
      Result<Table> got = Execute(bound->plan, catalog, nullptr, nullptr, opt);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      EXPECT_TRUE(testutil::TablesBitIdentical(reference.value(), got.value()))
          << sql << " [threads=" << n << "]\npushed plan:\n"
          << bound->plan->ToString();
    }
  }
  // Most queries must actually move something below a join.
  EXPECT_GT(pushed, kQueries / 2);
}

}  // namespace
}  // namespace sql
}  // namespace aqp
