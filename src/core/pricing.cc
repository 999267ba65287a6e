// Pricing a contract from the catalog's column statistics, before any
// sampling: how large the pilot must be, and whether the contract can be
// met below the decline rate at all. See DESIGN.md, "Pricing a contract".

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/cancellation.h"
#include "core/approx_executor.h"
#include "core/missing_groups.h"
#include "stats/distributions.h"

namespace aqp {
namespace core {
namespace {

constexpr double kCoverageMiss = 0.05;  // Pilot misses a group w.p. <= 5%.

// Block rate at which a value of `spread`, its rows kept independently with
// probability `s`, shows in a block sample with probability 1 - delta. Its
// rows fill rows^2 / sum_sq equally full blocks of sum_sq / rows rows; each
// holds a kept row with probability 1 - (1 - s)^(rows per block).
double CoverageRate(const ValueSpread& v, double s, double delta) {
  const double rows = static_cast<double>(v.rows);
  const double sum_sq = static_cast<double>(v.sum_sq);
  const double kept = 1.0 - std::pow(1.0 - s, sum_sq / rows);
  if (kept <= 0.0) return 1.0;
  return std::min(1.0, (1.0 - std::pow(delta, sum_sq / (rows * rows))) / kept);
}

// Smallest rate at which the ratio-to-size COUNT of a value's kept rows meets
// relative error `eps` at normal quantile `z`. Its variance at rate r is
// ((1 - r) / r) * V, with V the expected sum over blocks of (kept rows -
// share * block rows)^2 = s^2 (sum_sq - k rows^2 / n) + s (1 - s) rows for a
// table of n rows in blocks of k.
double RequiredRate(const ValueSpread& v, double s, uint32_t k, uint64_t n,
                    double eps, double z) {
  const double rows = static_cast<double>(v.rows);
  const double kept = s * rows;
  const double clustered =
      std::max(0.0, static_cast<double>(v.sum_sq) -
                        k * rows * rows / static_cast<double>(n));
  const double var = s * s * clustered + s * (1.0 - s) * rows;
  if (kept <= 0.0 || var <= 0.0) return 0.0;
  const double tol = eps * kept;
  return 1.0 / (1.0 + tol * tol / (z * z * var));
}

// The statistics a price reads: columns resolved against the query's table
// refs, fetched from the catalog at the stage's unit size.
class Pricer {
 public:
  Pricer(const Catalog& catalog, const sql::PreparedQuery& query,
         const StageTarget& target, const AqpOptions& options,
         obs::QueryTrace* trace)
      : catalog_(catalog),
        query_(query),
        target_(target),
        options_(options),
        trace_(trace) {}

  // A statement column name ("q.col" or "col") as (table ref, column): the
  // ref with that qualifier, or the only ref whose table has the column.
  struct ColumnRef {
    size_t ref = 0;
    std::string column;
  };
  std::optional<ColumnRef> Resolve(const std::string& name) const {
    const std::string base = sql::BaseName(name);
    const std::string qualifier =
        base.size() < name.size()
            ? name.substr(0, name.size() - base.size() - 1)
            : "";
    std::optional<ColumnRef> found;
    const std::vector<sql::TableRef>& refs = query_.bound.tables;
    for (size_t r = 0; r < refs.size(); ++r) {
      if (!qualifier.empty() && refs[r].qualifier() != qualifier) continue;
      Result<Schema> schema = catalog_.Schema(refs[r].table);
      if (!schema.ok() || !schema->FieldIndex(base).ok()) continue;
      if (found.has_value()) return std::nullopt;  // Ambiguous.
      found = ColumnRef{r, base};
    }
    return found;
  }

  // The column's statistics; null when they cannot be had (a failed build
  // prices nothing), an error only when the query was cancelled meanwhile.
  Result<std::shared_ptr<const ColumnStats>> Stats(const ColumnRef& c) const {
    Result<std::shared_ptr<const ColumnStats>> stats =
        catalog_.ColumnStatistics(query_.bound.tables[c.ref].table, c.column,
                                  target_.unit_rows, options_.exec, trace_);
    if (stats.ok()) return stats;
    AQP_RETURN_IF_ERROR(CheckCancelled(options_.exec.cancel));
    return std::shared_ptr<const ColumnStats>();
  }

  // Fraction of the rows of ref `near` (the sampled table) that `e` keeps,
  // or nullopt when the statistics cannot say. Conjunctions multiply, as if
  // independent; the terms are comparisons, IN lists and BETWEEN of an exact
  // column of `near` against literals. A term on another ref is not priced:
  // its share of that table's rows says little of the share of sampled rows
  // it keeps. `*columns` collects the columns read.
  Result<std::optional<double>> Selectivity(const sql::SqlExprPtr& e,
                                            size_t near,
                                            std::vector<ColumnRef>* columns) {
    using K = sql::SqlExpr::Kind;
    const std::optional<double> kUnknown;
    if (e->kind == K::kBinary && e->op == OpKind::kAnd) {
      AQP_ASSIGN_OR_RETURN(std::optional<double> a,
                           Selectivity(e->children[0], near, columns));
      if (!a.has_value()) return a;
      AQP_ASSIGN_OR_RETURN(std::optional<double> b,
                           Selectivity(e->children[1], near, columns));
      if (!b.has_value()) return b;
      return std::optional<double>(*a * *b);
    }
    if (e->children.empty() || e->children[0]->kind != K::kColumn) {
      return kUnknown;
    }
    const sql::SqlExprPtr& lhs = e->children[0];
    auto literal = [&](size_t i) -> const Value* {
      return i < e->children.size() && e->children[i]->kind == K::kLiteral
                 ? &e->children[i]->literal
                 : nullptr;
    };
    std::optional<ColumnRef> column = Resolve(lhs->column);
    if (!column.has_value() || column->ref != near) return kUnknown;
    AQP_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnStats> stats,
                         Stats(*column));
    if (stats == nullptr || stats->rows == 0) return kUnknown;
    columns->push_back(*column);
    std::optional<uint64_t> rows;
    if (e->kind == K::kBinary && literal(1) != nullptr) {
      rows = stats->RowsMatching(e->op, *literal(1));
    } else if (e->kind == K::kBetween && literal(1) && literal(2)) {
      std::optional<uint64_t> le =
          stats->RowsMatching(OpKind::kLe, *literal(2));
      std::optional<uint64_t> lt =
          stats->RowsMatching(OpKind::kLt, *literal(1));
      if (le.has_value() && lt.has_value()) rows = *le - std::min(*le, *lt);
    } else if (e->kind == K::kIn) {
      uint64_t sum = 0;
      for (const Value& v : e->in_list) {
        std::optional<uint64_t> eq = stats->RowsMatching(OpKind::kEq, v);
        if (!eq.has_value()) return kUnknown;
        sum += *eq;
      }
      rows = std::min(sum, stats->rows - stats->nulls.rows);
    }
    if (!rows.has_value()) return kUnknown;
    return std::optional<double>(static_cast<double>(*rows) /
                                 static_cast<double>(stats->rows));
  }

  // The near-side column of the single-condition inner equi-join between
  // ref `far` and the target's ref `near`, if there is one.
  std::optional<ColumnRef> NearJoinColumn(size_t far, size_t near) const {
    const std::vector<sql::JoinClause>& joins = query_.stmt.joins;
    for (size_t j = 0; j < joins.size(); ++j) {
      if (j + 1 != far && j + 1 != near) continue;
      const sql::JoinClause& join = joins[j];
      if (join.type != JoinType::kInner || join.conditions.size() != 1) {
        continue;
      }
      std::optional<ColumnRef> a = Resolve(join.conditions[0].first);
      std::optional<ColumnRef> b = Resolve(join.conditions[0].second);
      if (!a.has_value() || !b.has_value()) continue;
      if (a->ref == far && b->ref == near) return b;
      if (a->ref == near && b->ref == far) return a;
    }
    return std::nullopt;
  }

  Result<ContractPrice> Price() {
    const sql::SelectStmt& stmt = query_.stmt;
    ContractPrice price;
    const uint64_t units =
        (target_.rows + target_.unit_rows - 1) / target_.unit_rows;
    // Every pilot draws about min_units units, for its variances to mean
    // anything.
    double floor = options_.pilot_rate;
    if (units > 0) {
      floor = std::max(
          floor, std::min(0.5, static_cast<double>(options_.min_units) /
                                   static_cast<double>(units)));
    }
    price.pilot_rate = floor;
    price.pilot_basis = "floor";
    const bool grouped = !stmt.group_by.empty();
    // Without statistics a grouped pilot is sized for the worst case: a
    // group of min_group_rows rows packed into as few blocks as it fits.
    auto no_statistics = [&](std::string why) {
      if (grouped) {
        price.pilot_rate = std::min(
            0.5, std::max(floor, BlockRateForGroupCoverage(
                                     options_.min_group_rows,
                                     target_.unit_rows, kCoverageMiss)));
      }
      price.pilot_basis = "no statistics: " + why;
      return price;
    };

    const std::vector<sql::TableRef>& refs = query_.bound.tables;
    size_t near = refs.size();
    for (size_t r = 0; r < refs.size(); ++r) {
      if (refs[r].table != target_.table) continue;
      if (near != refs.size()) return no_statistics("table read twice");
      near = r;
    }
    if (near == refs.size()) return no_statistics("no sampled table");

    // The group key's spread, read from the key column itself or, for a key
    // on the far side of an inner equi-join, from the near-side join column:
    // each group then holds every row of at least one of its values.
    std::shared_ptr<const ColumnStats> key;
    std::optional<ColumnRef> key_column;
    std::string key_name;
    bool priceable = true;
    if (grouped) {
      if (stmt.group_by.size() != 1 ||
          stmt.group_by[0]->kind != sql::SqlExpr::Kind::kColumn) {
        return no_statistics("group key is not one column");
      }
      key_column = Resolve(stmt.group_by[0]->column);
      if (key_column.has_value() && key_column->ref != near) {
        key_column = NearJoinColumn(key_column->ref, near);
        priceable = false;  // A group is a union of near-side values.
      }
      if (!key_column.has_value()) {
        return no_statistics("group key off the sampled table");
      }
      AQP_ASSIGN_OR_RETURN(key, Stats(*key_column));
      key_name = refs[key_column->ref].qualifier() + "." + key_column->column;
      if (key == nullptr) return no_statistics(key_name + " unavailable");
      if (!key->exact) {
        return no_statistics(key_name + " has over " +
                             std::to_string(ColumnStats::kMaxValues) +
                             " values");
      }
    }

    double s = 1.0;
    std::vector<ColumnRef> predicate_columns;
    if (stmt.where != nullptr) {
      AQP_ASSIGN_OR_RETURN(std::optional<double> sel,
                           Selectivity(stmt.where, near, &predicate_columns));
      if (!sel.has_value()) return no_statistics("predicate");
      s = *sel;
    }
    // A predicate on the column the key's spread is read from keeps some of
    // its values whole and drops the rest: no one share s describes them.
    for (const ColumnRef& c : predicate_columns) {
      if (grouped && c.ref == key_column->ref &&
          c.column == key_column->column) {
        return no_statistics("predicate on " + key_name);
      }
    }

    // The values a group of the answer is made of (one whole-table value
    // when ungrouped).
    std::vector<std::pair<const Value*, ValueSpread>> values;
    static const Value kNull;
    if (grouped) {
      for (size_t i = 0; i < key->values.size(); ++i) {
        values.push_back({&key->values[i], key->spreads[i]});
      }
      if (key->nulls.rows > 0) values.push_back({&kNull, key->nulls});
    } else {
      const uint64_t k = target_.unit_rows;
      const uint64_t tail = target_.rows % k;
      const uint64_t sum_sq = (target_.rows / k) * k * k + tail * tail;
      values.push_back({nullptr, ValueSpread{target_.rows, units, sum_sq}});
    }

    // Pilot: the least-spread value with at least min_group_rows kept rows.
    if (grouped) {
      double coverage = 0.0;
      const std::pair<const Value*, ValueSpread>* least = nullptr;
      for (const auto& value : values) {
        if (s * static_cast<double>(value.second.rows) <
            static_cast<double>(options_.min_group_rows)) {
          continue;
        }
        const double rate = CoverageRate(value.second, s, kCoverageMiss);
        if (rate > coverage) {
          coverage = rate;
          least = &value;
        }
      }
      if (coverage > floor) {
        price.pilot_rate = std::min(0.5, coverage);
        price.pilot_basis = "least-spread value " + least->first->ToString() +
                            " of " + key_name + " (rows " +
                            std::to_string(least->second.rows) + ", blocks " +
                            std::to_string(least->second.blocks) + ")";
      }
    }

    // Predicted rate: COUNT's model for every SUM / COUNT item. AVG and
    // composite items are not priced.
    const bool priced_item = std::any_of(
        stmt.items.begin(), stmt.items.end(), [](const sql::SelectItem& item) {
          return item.expr->kind == sql::SqlExpr::Kind::kAggCall &&
                 item.expr->agg_kind != AggKind::kAvg;
        });
    if (!priceable || !priced_item) return price;
    size_t groups = 0;
    for (const auto& [value, spread] : values) {
      groups += s * static_cast<double>(spread.rows) >= 1.0;
    }
    const PerEstimateTarget per_estimate =
        ContractTarget(query_, std::max<size_t>(groups, 1));
    const double z = stats::NormalQuantile(
        1.0 - (1.0 - per_estimate.confidence) / 2.0);
    for (const auto& [value, spread] : values) {
      if (grouped && s * static_cast<double>(spread.rows) <
                         static_cast<double>(options_.min_group_rows)) {
        continue;
      }
      price.predicted_rate = std::max(
          price.predicted_rate,
          RequiredRate(spread, s, target_.unit_rows, target_.rows,
                       per_estimate.relative_error, z));
      price.priced = true;
    }
    return price;
  }

 private:
  const Catalog& catalog_;
  const sql::PreparedQuery& query_;
  const StageTarget& target_;
  const AqpOptions& options_;
  obs::QueryTrace* trace_;
};

}  // namespace

Result<ContractPrice> PriceContract(const Catalog& catalog,
                                    const sql::PreparedQuery& query,
                                    const StageTarget& target,
                                    const AqpOptions& options,
                                    obs::QueryTrace* trace) {
  return Pricer(catalog, query, target, options, trace).Price();
}

}  // namespace core
}  // namespace aqp
