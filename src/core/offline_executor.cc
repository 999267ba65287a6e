#include "core/offline_executor.h"

#include <cmath>

#include "common/cancellation.h"
#include "common/check.h"
#include "core/result_assembly.h"
#include "obs/metrics.h"

namespace aqp {
namespace core {
Status CheckSampleAnswerable(const sql::QueryShape& shape) {
  if (!shape.has_aggregates) {
    return Status::Unimplemented("sample AQP answers aggregate queries only");
  }
  if (shape.has_joins) {
    return Status::Unimplemented(
        "sample AQP over joins needs a join synopsis; fall back");
  }
  if (shape.has_having) {
    return Status::Unimplemented("HAVING unsupported over a sample; fall back");
  }
  if (!shape.all_linear) {
    return Status::Unimplemented(
        "non-linear aggregates unsupported over a sample; fall back");
  }
  return Status::OK();
}

OfflineExecutor::OfflineExecutor(const Catalog* catalog,
                                 const SampleCatalog* samples,
                                 ExecOptions exec)
    : catalog_(catalog), samples_(samples), exec_(exec) {
  AQP_CHECK(catalog != nullptr);
  AQP_CHECK(samples != nullptr);
}

Result<ApproxResult> OfflineExecutor::Execute(std::string_view sql,
                                              double confidence,
                                              obs::QueryTrace* parent_trace) {
  AQP_ASSIGN_OR_RETURN(sql::PreparedQuery query,
                       sql::Prepare(sql, *catalog_, parent_trace));
  return Execute(query, confidence, parent_trace);
}

Result<ApproxResult> OfflineExecutor::Execute(const sql::PreparedQuery& query,
                                              double confidence,
                                              obs::QueryTrace* parent_trace) {
  // Inert: times the whole execution without recording a node.
  obs::TraceSpan total_span;
  AQP_RETURN_IF_ERROR(CheckCancelled(exec_.cancel));
  AQP_RETURN_IF_ERROR(CheckSampleAnswerable(query.shape));
  const sql::SelectStmt& stmt = query.stmt;
  const bool instrumented = obs::Enabled();
  ApproxResult result;
  obs::ExecutionProfile& prof = result.profile;
  prof.query = query.sql;
  prof.executor = "offline-sample";
  const bool external_trace = parent_trace != nullptr;
  obs::QueryTrace* tr =
      external_trace ? parent_trace : (instrumented ? &prof.trace : nullptr);

  // Pick the best stored sample: prefer one stratified on the GROUP BY
  // column (sample selection, the BlinkDB step).
  std::string preferred;
  if (stmt.group_by.size() == 1 &&
      stmt.group_by[0]->kind == sql::SqlExpr::Kind::kColumn) {
    preferred = sql::BaseName(stmt.group_by[0]->column);
  }
  obs::TraceSpan select_span = obs::MaybeSpan(tr, "select-sample");
  AQP_ASSIGN_OR_RETURN(const StoredSample* stored,
                       samples_->FindBest(stmt.from.table, preferred));
  prof.sampling_design =
      stored->strata_column.empty()
          ? "stored-uniform(budget=" + std::to_string(stored->budget) + ")"
          : "stored-stratified(" + stored->strata_column +
                ", budget=" + std::to_string(stored->budget) + ")";
  select_span.AddAttr("sample_rows",
                      static_cast<uint64_t>(stored->sample.num_rows()));
  select_span.End();

  // Query-time cost of the offline path: only the stored sample is read.
  ExecStats stats;
  stats.rows_scanned = stored->sample.num_rows();

  // Qualify the stored sample's columns to the query's table alias so both
  // qualified and bare references resolve.
  Sample sample = stored->sample;
  {
    std::vector<std::string> names;
    for (const Field& f : sample.table.schema().fields()) {
      names.push_back(stmt.from.qualifier() + "." + sql::BaseName(f.name));
    }
    AQP_RETURN_IF_ERROR(sample.table.RenameColumns(names));
  }

  if (stmt.where != nullptr) {
    obs::TraceSpan filter_span = obs::MaybeSpan(tr, "filter-sample");
    AQP_ASSIGN_OR_RETURN(ExprPtr predicate, sql::LowerSqlExpr(stmt.where));
    AQP_ASSIGN_OR_RETURN(
        sample,
        FilterSample(sample, predicate, exec_, &stats.parallel));
    filter_span.AddAttr("rows_out",
                        static_cast<uint64_t>(sample.num_rows()));
  }

  std::vector<ExprPtr> group_exprs;
  for (const sql::SqlExprPtr& g : stmt.group_by) {
    AQP_ASSIGN_OR_RETURN(ExprPtr e, sql::LowerSqlExpr(g));
    group_exprs.push_back(std::move(e));
  }
  std::vector<AggSpec> agg_specs;
  for (const sql::BoundAggregate& agg : query.bound.aggregates) {
    agg_specs.push_back({agg.kind, agg.arg, agg.internal_alias});
  }
  obs::TraceSpan estimate_span = obs::MaybeSpan(tr, "estimate");
  AQP_ASSIGN_OR_RETURN(GroupedEstimates estimates,
                       EstimateGroupedAggregates(sample, group_exprs,
                                                 agg_specs));
  estimate_span.AddAttr("rows", static_cast<uint64_t>(sample.num_rows()));
  estimate_span.AddAttr("cells", static_cast<uint64_t>(estimates.num_cells));
  estimate_span.End();

  obs::TraceSpan assemble_span = obs::MaybeSpan(tr, "assemble");
  AQP_ASSIGN_OR_RETURN(
      AssembledResult assembled,
      AssembleOutput(stmt, query.bound, estimates, confidence));
  assemble_span.End();
  result.table = std::move(assembled.table);
  result.cis = std::move(assembled.cis);
  result.approximated = true;

  prof.approximated = true;
  prof.sampled_table = stmt.from.table;
  prof.sampled_fraction = stored->sample.nominal_rate;
  prof.estimated_error = MaxRelativeCiHalfWidth(result.cis);
  RecordExecStats(stats, exec_, &prof);
  // The whole query is this path's one stage.
  prof.final_seconds = prof.total_seconds = total_span.End();
  if (tr != nullptr && !external_trace) prof.trace.Finish();
  if (instrumented) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    static obs::Counter* queries = reg.GetCounter("aqp_offline_queries_total");
    static obs::LatencyHistogram* latency =
        reg.GetHistogram("aqp_core_offline_query_seconds");
    queries->Increment();
    latency->Observe(prof.total_seconds);
  }
  return result;
}

}  // namespace core
}  // namespace aqp
