#include "core/result_assembly.h"

#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "engine/executor.h"

namespace aqp {
namespace core {

void CountAggOccurrences(const sql::SqlExprPtr& e,
                         std::unordered_map<std::string, int>* counts) {
  if (e == nullptr) return;
  if (e->kind == sql::SqlExpr::Kind::kAggCall) {
    (*counts)[e->ToString()]++;
    return;
  }
  for (const sql::SqlExprPtr& c : e->children) CountAggOccurrences(c, counts);
}

namespace {

// Materializes per-group estimates into the aggregate node's output shape:
// bound.group_names columns, one column per aggregate (internal alias,
// INT64 for counts / DOUBLE otherwise), plus an INT64 "__row_id" column
// mapping rows back to group ordinals.
Result<Table> MaterializeAggTable(const GroupedEstimates& estimates,
                                  const sql::BoundQuery& bound) {
  const size_t groups = estimates.num_groups;
  Schema schema;
  std::vector<Column> cols;
  for (size_t g = 0; g < bound.group_names.size(); ++g) {
    schema.AddField({bound.group_names[g],
                     estimates.group_keys.column(g).type()});
    cols.push_back(estimates.group_keys.column(g));
  }
  for (size_t a = 0; a < bound.aggregates.size(); ++a) {
    const sql::BoundAggregate& agg = bound.aggregates[a];
    bool integral =
        agg.kind == AggKind::kCount || agg.kind == AggKind::kCountStar;
    Column col(integral ? DataType::kInt64 : DataType::kDouble);
    for (size_t g = 0; g < groups; ++g) {
      double v = estimates.estimates[a][g].estimate;
      if (integral) {
        col.AppendInt64(static_cast<int64_t>(std::llround(v)));
      } else {
        col.AppendDouble(v);
      }
    }
    schema.AddField({agg.internal_alias, col.type()});
    cols.push_back(std::move(col));
  }
  Column row_id(DataType::kInt64);
  for (size_t g = 0; g < groups; ++g) {
    row_id.AppendInt64(static_cast<int64_t>(g));
  }
  schema.AddField({"__row_id", DataType::kInt64});
  cols.push_back(std::move(row_id));
  return Table::Make(std::move(schema), std::move(cols));
}

}  // namespace

Result<AssembledResult> AssembleOutput(const sql::SelectStmt& stmt,
                                       const sql::BoundQuery& bound,
                                       const GroupedEstimates& estimates,
                                       double confidence) {
  AQP_ASSIGN_OR_RETURN(Table agg_table,
                       MaterializeAggTable(estimates, bound));
  Catalog groups;
  groups.RegisterOrReplace("__aqp_groups",
                           std::make_shared<Table>(std::move(agg_table)));
  AQP_ASSIGN_OR_RETURN(
      PlanPtr tail,
      sql::BindPostAggregation(stmt, bound, "__aqp_groups", groups));
  AQP_ASSIGN_OR_RETURN(Table with_ids, Execute(tail, groups));

  // Split off the trailing __row_id column, remembering the row -> group map.
  size_t id_col = with_ids.num_columns() - 1;
  std::vector<uint32_t> group_of_row(with_ids.num_rows());
  for (size_t i = 0; i < with_ids.num_rows(); ++i) {
    group_of_row[i] =
        static_cast<uint32_t>(with_ids.column(id_col).Int64At(i));
  }
  AssembledResult out;
  {
    Schema schema;
    std::vector<Column> cols;
    for (size_t c = 0; c + 1 < with_ids.num_columns(); ++c) {
      schema.AddField(with_ids.schema().field(c));
      cols.push_back(with_ids.column(c));
    }
    AQP_ASSIGN_OR_RETURN(out.table,
                         Table::Make(std::move(schema), std::move(cols)));
  }

  std::unordered_map<std::string, size_t> agg_index;
  for (size_t a = 0; a < bound.aggregates.size(); ++a) {
    agg_index[bound.aggregates[a].display] = a;
  }
  out.cis.resize(out.table.num_rows());
  for (size_t row = 0; row < out.table.num_rows(); ++row) {
    uint32_t g = group_of_row[row];
    out.cis[row].resize(stmt.items.size());
    for (size_t it = 0; it < stmt.items.size(); ++it) {
      std::unordered_map<std::string, int> counts;
      CountAggOccurrences(stmt.items[it].expr, &counts);
      double cell = 0.0;
      if (IsNumeric(out.table.column(it).type()) &&
          !out.table.column(it).IsNull(row)) {
        cell = out.table.column(it).NumericAt(row);
      }
      stats::ConfidenceInterval ci;
      ci.estimate = cell;
      ci.confidence = confidence;
      if (counts.empty()) {
        ci.low = ci.high = cell;  // Group key: exact.
      } else if (counts.size() == 1 && counts.begin()->second == 1 &&
                 stmt.items[it].expr->kind == sql::SqlExpr::Kind::kAggCall) {
        size_t a = agg_index.at(counts.begin()->first);
        ci = estimates.estimates[a][g].Ci(confidence);
      } else {
        // Composite: propagate relative errors (sum of factor widths).
        double rel = 0.0;
        for (const auto& [display, occurrences] : counts) {
          size_t a = agg_index.at(display);
          stats::ConfidenceInterval part =
              estimates.estimates[a][g].Ci(confidence);
          double r = part.relative_half_width();
          if (std::isfinite(r)) rel += r * occurrences;
        }
        double half = std::fabs(cell) * rel;
        ci.low = cell - half;
        ci.high = cell + half;
      }
      out.cis[row][it] = ci;
    }
  }
  return out;
}

}  // namespace core
}  // namespace aqp
