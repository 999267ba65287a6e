#ifndef AQP_SQL_BINDER_H_
#define AQP_SQL_BINDER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "sql/ast.h"

namespace aqp {
namespace sql {

/// One aggregate call discovered in the SELECT list / HAVING, as placed in
/// the plan's Aggregate node.
struct BoundAggregate {
  AggKind kind;
  ExprPtr arg;                 // nullptr for COUNT(*).
  std::string internal_alias;  // Output column name in the aggregate node.
  std::string display;         // SQL text, e.g. "SUM(price)".
  SqlExprPtr call;             // The aggregate call's AST (kAggCall).
};

/// A SELECT statement lowered to an executable plan, plus the AQP-relevant
/// structure (the aggregate inventory and the scanned tables) that the
/// approximate executor needs to plan sampling.
struct BoundQuery {
  PlanPtr plan;
  std::optional<ErrorSpec> error_spec;
  bool has_aggregates = false;
  std::vector<BoundAggregate> aggregates;
  std::vector<std::string> group_names;    // Aggregate-node group columns.
  std::vector<std::string> output_names;   // Final projected column names.
  std::vector<TableRef> tables;            // FROM then JOIN order.
};

/// Resolves names against the catalog, places aggregates, and lowers the
/// statement to a plan:
///   Scan -> (rename) -> Join* -> Filter(WHERE) -> Aggregate -> Filter(HAVING)
///   -> Project -> Sort -> Limit.
/// Every scanned column is renamed to "<qualifier>.<base>" so multi-table
/// queries never collide; unqualified references resolve by suffix.
/// Over joins, each top-level WHERE conjunct that reads one table is pushed
/// below the joins as a Filter on that table's scan (for LEFT joins, only
/// onto the preserved side); the remaining conjuncts stay in one Filter
/// above the joins. Join output order is left rows in order, so the pushed
/// plan feeds the aggregate the same row sequence as filtering afterwards.
/// Tables bind by schema alone (Catalog::Schema), so extent-backed names
/// bind like in-memory ones, and each table projects only the columns the
/// statement reads, so scans decode and gather nothing else. A sampled
/// table also offers "<qualifier>.__unit": the sampling unit of each row,
/// drawn by the engine's scan (engine/plan.h, SampleSpec).
Result<BoundQuery> Bind(const SelectStmt& stmt, const Catalog& catalog);

/// Parse + bind in one step.
Result<BoundQuery> BindSql(std::string_view sql, const Catalog& catalog);

/// The query-shape facts every executor and rung decides on, classified
/// once at Prepare time instead of re-derived from the AST at each site.
struct QueryShape {
  bool has_contract = false;    // A WITH ERROR clause was given.
  bool has_aggregates = false;  // Aggregate calls or GROUP BY.
  /// Every aggregate is SUM/COUNT/COUNT(*)/AVG — the class a sample can
  /// estimate, and the paper's "no silver bullet" boundary: MIN/MAX/COUNT
  /// DISTINCT/VAR force exact execution.
  bool all_linear = true;
  bool has_joins = false;
  bool has_having = false;
  size_t num_group_keys = 0;
  std::vector<std::string> tables;  // Distinct referenced tables, FROM first.
};

/// One submission's SQL, parsed, bound, and shape-classified exactly once,
/// then handed down the whole degradation ladder.
struct PreparedQuery {
  std::string sql;
  SelectStmt stmt;
  BoundQuery bound;
  QueryShape shape;
};

/// Parses and binds `sql` against `catalog` and classifies its shape.
/// `trace`, when non-null, receives one "parse" and one "bind" span.
Result<PreparedQuery> Prepare(std::string_view sql, const Catalog& catalog,
                              obs::QueryTrace* trace = nullptr);

/// Base column name: the part after the last '.' ("l.price" -> "price").
std::string BaseName(const std::string& name);

/// Every column name `stmt` reads, as written: SELECT items, WHERE, GROUP
/// BY, HAVING and the join conditions.
std::vector<std::string> StatementColumns(const SelectStmt& stmt);

/// Lowers a parser-level expression (no aggregate calls) to an engine
/// expression. Exposed for executors that evaluate pieces of a statement
/// outside a bound plan (e.g. the offline executor's predicate pushdown).
Result<ExprPtr> LowerSqlExpr(const SqlExprPtr& e);

/// Parse, bind, and execute exactly (ignores any WITH ERROR clause — that is
/// the approximate executor's job in core/). `trace`, when non-null,
/// receives parse/bind/execute lifecycle spans with per-operator detail.
Result<Table> ExecuteSql(std::string_view sql, const Catalog& catalog,
                         ExecStats* stats = nullptr,
                         obs::QueryTrace* trace = nullptr);

/// Builds the post-aggregation tail of `stmt` — SELECT-item projection, then
/// ORDER BY / LIMIT — over a scan of `agg_table`, whose schema must be the
/// aggregate node's output (bound.group_names columns followed by the
/// aggregates' internal aliases). The approximate executor materializes its
/// estimated aggregates into such a table and runs this plan to give the
/// user the exact output shape of the original query.
///
/// A passthrough of column "__row_id" (which must exist in `agg_table`) is
/// appended as the last output column so the caller can map output rows
/// back to groups after sorting/limiting. HAVING is not supported here
/// (callers fall back to exact execution).
Result<PlanPtr> BindPostAggregation(const SelectStmt& stmt,
                                    const BoundQuery& bound,
                                    const std::string& agg_table,
                                    const Catalog& catalog);

}  // namespace sql
}  // namespace aqp

#endif  // AQP_SQL_BINDER_H_
