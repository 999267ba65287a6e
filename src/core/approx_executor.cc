#include "core/approx_executor.h"

#include <cmath>
#include <unordered_map>

#include "common/cancellation.h"
#include "common/check.h"
#include "core/contract.h"
#include "core/estimate.h"
#include "core/result_assembly.h"
#include "obs/metrics.h"

namespace aqp {
namespace core {
namespace {

// The pre-aggregation twin of the user query: selects the group keys, the
// aggregate arguments, and each row's sampling unit, keeping FROM / JOIN /
// WHERE, dropping aggregation and everything after it. Every ref to
// `target` carries `spec`; every other ref is read whole.
sql::SelectStmt FlattenStatement(const sql::SelectStmt& stmt,
                                 const sql::BoundQuery& bound,
                                 const std::string& target,
                                 const SampleSpec& spec) {
  sql::SelectStmt flat;
  for (size_t g = 0; g < stmt.group_by.size(); ++g) {
    flat.items.push_back({stmt.group_by[g], "__g" + std::to_string(g)});
  }
  for (size_t a = 0; a < bound.aggregates.size(); ++a) {
    const sql::BoundAggregate& agg = bound.aggregates[a];
    if (agg.kind == AggKind::kCountStar) continue;
    flat.items.push_back({agg.call->children[0], "__arg" + std::to_string(a)});
  }
  auto unit = std::make_shared<sql::SqlExpr>();
  unit->kind = sql::SqlExpr::Kind::kColumn;
  unit->column = "__unit";
  flat.items.push_back({unit, "__unit"});
  flat.from = stmt.from;
  flat.joins = stmt.joins;
  flat.where = stmt.where;
  auto sample = [&](sql::TableRef& ref) {
    ref.sample = ref.table == target ? spec : SampleSpec{};
  };
  sample(flat.from);
  for (sql::JoinClause& join : flat.joins) sample(join.table);
  return flat;
}

}  // namespace

void RecordExecStats(const ExecStats& stats, const ExecOptions& exec,
                     obs::ExecutionProfile* profile) {
  profile->rows_scanned = stats.rows_scanned;
  profile->blocks_read = stats.blocks_read;
  profile->rows_joined = stats.rows_joined;
  if (stats.parallel.morsels > 0) {
    obs::ParallelReport par;
    par.num_threads = exec.ResolvedThreads();
    par.morsels = stats.parallel.morsels;
    par.steals = stats.parallel.steals;
    par.worker_rows = stats.parallel.worker_items;
    profile->parallel = std::move(par);
  }
}

double MaxRelativeCiHalfWidth(
    const std::vector<std::vector<stats::ConfidenceInterval>>& cis) {
  double worst = 0.0;
  for (const auto& row : cis) {
    for (const stats::ConfidenceInterval& ci : row) {
      double r = ci.relative_half_width();
      if (std::isfinite(r)) worst = std::max(worst, r);
    }
  }
  return worst;
}

Result<StageTarget> PickStageTarget(const Catalog& catalog,
                                    const sql::BoundQuery& query,
                                    const AqpOptions& options) {
  StageTarget target;
  for (const sql::TableRef& ref : query.tables) {
    AQP_ASSIGN_OR_RETURN(uint64_t rows, catalog.Cardinality(ref.table));
    if (rows >= options.min_table_rows && rows > target.rows) {
      target.rows = rows;
      target.table = ref.table;
    }
  }
  if (target.table.empty()) return target;
  const bool blocks = options.method == SampleSpec::Method::kSystemBlock;
  target.unit_rows = blocks ? options.block_size : 1;
  if (target.unit_rows == 0) {
    return Status::InvalidArgument("block size must be positive");
  }
  return target;
}

Result<StageResult> RunSampledStage(const Catalog& catalog,
                                    const sql::PreparedQuery& query,
                                    const StageTarget& target,
                                    const AqpOptions& options,
                                    const char* name, double rate,
                                    uint64_t seed, obs::QueryTrace* trace) {
  // Stage-boundary cancellation point: a deadline that fires between the
  // pilot and the final pass stops the query before the expensive stage.
  AQP_RETURN_IF_ERROR(CheckCancelled(options.exec.cancel));
  const sql::SelectStmt& stmt = query.stmt;
  const sql::BoundQuery& bound = query.bound;
  // Estimation-side specs over the flattened output's column names.
  std::vector<ExprPtr> group_exprs;
  for (size_t g = 0; g < stmt.group_by.size(); ++g) {
    group_exprs.push_back(Col("__g" + std::to_string(g)));
  }
  std::vector<AggSpec> agg_specs;
  for (size_t a = 0; a < bound.aggregates.size(); ++a) {
    const sql::BoundAggregate& agg = bound.aggregates[a];
    ExprPtr arg = agg.kind == AggKind::kCountStar
                      ? nullptr
                      : Col("__arg" + std::to_string(a));
    agg_specs.push_back({agg.kind, arg, agg.internal_alias});
  }

  obs::TraceSpan stage_span = obs::MaybeSpan(trace, name);
  stage_span.AddAttr("rate", rate);
  const SampleSpec spec{options.method, rate, seed, options.block_size};
  AQP_ASSIGN_OR_RETURN(
      sql::BoundQuery flat,
      sql::Bind(FlattenStatement(stmt, bound, target.table, spec), catalog));
  StageResult out;
  AQP_ASSIGN_OR_RETURN(
      Table rows,
      aqp::Execute(flat.plan, catalog, &out.stats, trace, options.exec));
  obs::TraceSpan estimate_span = obs::MaybeSpan(trace, "estimate");
  const SampleDesign design{rate, target.unit_rows, target.rows,
                            out.stats.sampled_units};
  AQP_ASSIGN_OR_RETURN(out.estimates,
                       EstimateGroupedAggregates(rows, design, group_exprs,
                                                 agg_specs, &options.exec));
  estimate_span.AddAttr("rows", static_cast<uint64_t>(rows.num_rows()));
  estimate_span.AddAttr("groups",
                        static_cast<uint64_t>(out.estimates.num_groups));
  estimate_span.AddAttr("cells",
                        static_cast<uint64_t>(out.estimates.num_cells));
  estimate_span.End();
  out.seconds = stage_span.End();
  return out;
}

PerEstimateTarget ContractTarget(const sql::PreparedQuery& query,
                                 size_t num_groups) {
  // Composite items split the error budget across their factors.
  size_t max_factors = 1;
  for (const sql::SelectItem& item : query.stmt.items) {
    std::unordered_map<std::string, int> counts;
    CountAggOccurrences(item.expr, &counts);
    size_t factors = 0;
    for (const auto& [display, c] : counts) factors += c;
    max_factors = std::max(max_factors, factors);
  }
  PerEstimateTarget target = AllocateContract(
      *query.stmt.error_spec, num_groups * query.bound.aggregates.size());
  target.relative_error =
      AllocateCompositeError(target.relative_error, max_factors);
  return target;
}

ApproxExecutor::ApproxExecutor(const Catalog* catalog, AqpOptions options)
    : catalog_(catalog), options_(options) {
  AQP_CHECK(catalog != nullptr);
}

Result<ApproxResult> ApproxExecutor::Execute(std::string_view sql,
                                             obs::QueryTrace* parent_trace) {
  AQP_ASSIGN_OR_RETURN(sql::PreparedQuery query,
                       sql::Prepare(sql, *catalog_, parent_trace));
  return Execute(query, parent_trace);
}

Result<ApproxResult> ApproxExecutor::Execute(const sql::PreparedQuery& query,
                                             obs::QueryTrace* parent_trace) {
  ++invocation_;
  // Inert: times the whole execution without recording a node.
  obs::TraceSpan total_span;
  const bool instrumented = obs::Enabled();
  const sql::SelectStmt& stmt = query.stmt;
  const sql::BoundQuery& bound = query.bound;

  ApproxResult result;
  obs::ExecutionProfile& prof = result.profile;
  prof.query = query.sql;
  prof.executor = "online-two-stage";
  // An externally owned parent trace (service tier) takes precedence over
  // the profile's local trace so the submission gets one span tree; the
  // parent's Finish() stays with its owner.
  const bool external_trace = parent_trace != nullptr;
  obs::QueryTrace* tr =
      external_trace ? parent_trace : (instrumented ? &prof.trace : nullptr);
  // What the engine did, summed over every stage that ran.
  ExecStats stats;
  auto add_stats = [&](const ExecStats& stage) {
    stats.rows_scanned += stage.rows_scanned;
    stats.blocks_read += stage.blocks_read;
    stats.rows_joined += stage.rows_joined;
    stats.parallel.MergeFrom(stage.parallel);
  };

  if (stmt.error_spec.has_value()) {
    obs::ContractReport contract;
    contract.requested_error = stmt.error_spec->relative_error;
    contract.requested_confidence = stmt.error_spec->confidence;
    prof.contract = contract;
  }

  // Records the cost paid and the query-level metrics; every exit path
  // funnels through here.
  auto finish = [&]() {
    prof.approximated = result.approximated;
    RecordExecStats(stats, options_.exec, &prof);
    prof.estimated_error = MaxRelativeCiHalfWidth(result.cis);
    if (prof.contract.has_value()) {
      prof.contract->achieved_error = prof.estimated_error;
    }
    prof.total_seconds = total_span.End();
    if (tr != nullptr && !external_trace) prof.trace.Finish();
    if (instrumented) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      static obs::Counter* queries = reg.GetCounter("aqp_queries_total");
      static obs::Counter* approx =
          reg.GetCounter("aqp_queries_approximated_total");
      static obs::Counter* fallbacks =
          reg.GetCounter("aqp_queries_fallback_total");
      static obs::LatencyHistogram* latency =
          reg.GetHistogram("aqp_core_query_seconds");
      static obs::LatencyHistogram* pilot_latency =
          reg.GetHistogram("aqp_core_pilot_seconds");
      queries->Increment();
      (result.approximated ? approx : fallbacks)->Increment();
      latency->Observe(prof.total_seconds);
      if (prof.pilot_seconds > 0.0) pilot_latency->Observe(prof.pilot_seconds);
    }
  };

  auto fallback = [&](std::string reason) -> Result<ApproxResult> {
    prof.fallback_reason = std::move(reason);
    prof.executor = "exact";
    obs::TraceSpan exact_span = obs::MaybeSpan(tr, "exact-execute");
    AQP_ASSIGN_OR_RETURN(
        result.table,
        aqp::Execute(bound.plan, *catalog_, &stats, tr, options_.exec));
    exact_span.End();
    finish();
    return result;
  };

  if (!query.shape.has_contract) {
    return fallback("no error contract (WITH ERROR clause) given");
  }
  if (!query.shape.has_aggregates) {
    return fallback("query has no aggregates to approximate");
  }
  if (!query.shape.all_linear) {
    return fallback(
        "non-linear aggregate (MIN/MAX/COUNT DISTINCT/VAR/STDDEV) cannot "
        "carry a sampling error contract");
  }
  if (query.shape.has_having) {
    return fallback("HAVING is answered exactly");
  }

  AQP_ASSIGN_OR_RETURN(StageTarget target,
                       PickStageTarget(*catalog_, bound, options_));
  if (target.table.empty()) {
    return fallback("no table is large enough to benefit from sampling");
  }
  prof.sampling_design =
      options_.method == SampleSpec::Method::kSystemBlock
          ? "system-block(block_size=" + std::to_string(options_.block_size) +
                ")"
          : "bernoulli-row";

  // ---- Stage 0: price -----------------------------------------------------
  obs::TraceSpan price_span = obs::MaybeSpan(tr, "price");
  AQP_ASSIGN_OR_RETURN(ContractPrice price,
                       PriceContract(*catalog_, query, target, options_, tr));
  price_span.AddAttr("pilot_rate", price.pilot_rate);
  price_span.AddAttr("pilot_basis", price.pilot_basis);
  if (price.priced) price_span.AddAttr("predicted_rate", price.predicted_rate);
  prof.planning_seconds = price_span.End();
  const double decline_rate = options_.safety_factor * options_.max_rate;
  if (price.priced && price.predicted_rate > decline_rate) {
    return fallback("priced out before pilot: predicted rate " +
                    std::to_string(price.predicted_rate) + " exceeds " +
                    std::to_string(decline_rate) +
                    " (safety_factor x max_rate); exact execution is cheaper");
  }

  // ---- Stage 1: pilot --------------------------------------------------
  const uint64_t population_units =
      (target.rows + target.unit_rows - 1) / target.unit_rows;
  const double pilot_rate = price.pilot_rate;
  // A stage at rate 1 would read every row: a sampled scan at that rate is
  // a plain scan, with no units to estimate from.
  const char* kEveryRow = " rate 1 reads every row; exact execution is cheaper";
  if (pilot_rate >= 1.0) return fallback(std::string("pilot") + kEveryRow);
  AQP_ASSIGN_OR_RETURN(
      StageResult pilot,
      RunSampledStage(*catalog_, query, target, options_, "pilot", pilot_rate,
                      options_.seed + invocation_ * 2, tr));
  add_stats(pilot.stats);
  prof.pilot_seconds = pilot.seconds;
  prof.pilot_rate = pilot_rate;
  prof.pilot_rows_scanned = pilot.stats.rows_scanned;

  // ---- Stage 2: plan -----------------------------------------------------
  obs::TraceSpan plan_span = obs::MaybeSpan(tr, "plan");
  size_t pilot_groups = std::max<size_t>(pilot.estimates.num_groups, 1);
  size_t num_estimates = pilot_groups * bound.aggregates.size();
  const PerEstimateTarget per_estimate = ContractTarget(query, pilot_groups);

  PlanningInputs inputs;
  inputs.pilot = &pilot.estimates;
  inputs.pilot_rate = pilot_rate;
  inputs.target = per_estimate;
  inputs.max_rate = options_.max_rate;
  inputs.safety_factor = options_.safety_factor;
  inputs.min_units = options_.min_units;
  inputs.population_units = population_units;
  SamplingPlan plan = PlanSamplingRate(inputs);
  prof.worst_required_rate = plan.worst_required_rate;
  plan_span.AddAttr("estimates", static_cast<uint64_t>(num_estimates));
  plan_span.AddAttr("planned_rate", plan.rate);
  plan_span.AddAttr("feasible", plan.feasible ? "true" : "false");
  prof.planning_seconds += plan_span.End();
  if (!plan.feasible) {
    return fallback("sampling plan infeasible: " + plan.reason);
  }
  if (plan.rate >= 1.0) return fallback(std::string("planned") + kEveryRow);

  // ---- Stage 3: final ----------------------------------------------------
  AQP_ASSIGN_OR_RETURN(
      StageResult final_stage,
      RunSampledStage(*catalog_, query, target, options_, "final", plan.rate,
                      options_.seed + invocation_ * 2 + 1, tr));
  add_stats(final_stage.stats);
  prof.final_seconds = final_stage.seconds;

  // Materialize the estimates into the exact query's output shape with
  // per-cell confidence intervals.
  obs::TraceSpan assemble_span = obs::MaybeSpan(tr, "assemble");
  AQP_ASSIGN_OR_RETURN(AssembledResult assembled,
                       AssembleOutput(stmt, bound, final_stage.estimates,
                                      per_estimate.confidence));
  assemble_span.End();
  result.table = std::move(assembled.table);
  result.cis = std::move(assembled.cis);

  result.approximated = true;
  prof.sampled_fraction = plan.rate;
  prof.sampled_table = target.table;
  finish();
  return result;
}

}  // namespace core
}  // namespace aqp
