#include "core/approx_executor.h"

#include <chrono>
#include <cmath>
#include <unordered_map>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/memory_tracker.h"
#include "core/contract.h"
#include "core/estimate.h"
#include "core/missing_groups.h"
#include "core/result_assembly.h"
#include "obs/metrics.h"
#include "sampling/bernoulli.h"
#include "sampling/block.h"

namespace aqp {
namespace core {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

sql::SqlExprPtr ColumnExpr(std::string name) {
  auto e = std::make_shared<sql::SqlExpr>();
  e->kind = sql::SqlExpr::Kind::kColumn;
  e->column = std::move(name);
  return e;
}

// The pre-aggregation twin of the user query: selects the group keys, the
// aggregate arguments, and the sample-design columns, keeping FROM / JOIN /
// WHERE, dropping aggregation and everything after it.
sql::SelectStmt FlattenStatement(const sql::SelectStmt& stmt,
                                 const sql::BoundQuery& bound) {
  sql::SelectStmt flat;
  for (size_t g = 0; g < stmt.group_by.size(); ++g) {
    flat.items.push_back({stmt.group_by[g], "__g" + std::to_string(g)});
  }
  for (size_t a = 0; a < bound.aggregates.size(); ++a) {
    const sql::BoundAggregate& agg = bound.aggregates[a];
    if (agg.kind == AggKind::kCountStar) continue;
    flat.items.push_back({agg.call->children[0], "__arg" + std::to_string(a)});
  }
  flat.from = stmt.from;
  flat.from.sample = SampleSpec{};  // Sampling happens via table substitution.
  flat.joins = stmt.joins;
  for (sql::JoinClause& join : flat.joins) join.table.sample = SampleSpec{};
  flat.where = stmt.where;
  flat.items.push_back({ColumnExpr("__unit"), "__unit"});
  flat.items.push_back({ColumnExpr("__weight"), "__weight"});
  return flat;
}

// Copies the sample's table and appends the design columns __unit / __weight.
Result<Table> WithDesignColumns(const Sample& sample) {
  Schema schema = sample.table.schema();
  schema.AddField({"__unit", DataType::kInt64});
  schema.AddField({"__weight", DataType::kDouble});
  std::vector<Column> cols;
  cols.reserve(schema.num_fields());
  for (size_t c = 0; c < sample.table.num_columns(); ++c) {
    cols.push_back(sample.table.column(c));
  }
  Column unit(DataType::kInt64);
  Column weight(DataType::kDouble);
  unit.Reserve(sample.num_rows());
  weight.Reserve(sample.num_rows());
  for (size_t i = 0; i < sample.num_rows(); ++i) {
    unit.AppendInt64(static_cast<int64_t>(sample.unit_ids[i]));
    weight.AppendDouble(sample.weights[i]);
  }
  cols.push_back(std::move(unit));
  cols.push_back(std::move(weight));
  return Table::Make(std::move(schema), std::move(cols));
}

// Rebuilds a design-carrying Sample from the flattened-query output (which
// has __unit and __weight columns), inheriting the design metadata of the
// base-table sample `design`.
Result<Sample> ReconstituteSample(Table result, const Sample& design) {
  Sample sample;
  AQP_ASSIGN_OR_RETURN(size_t unit_col, result.ColumnIndex("__unit"));
  AQP_ASSIGN_OR_RETURN(size_t weight_col, result.ColumnIndex("__weight"));
  sample.unit_ids.reserve(result.num_rows());
  sample.weights.reserve(result.num_rows());
  for (size_t i = 0; i < result.num_rows(); ++i) {
    sample.unit_ids.push_back(
        static_cast<uint32_t>(result.column(unit_col).Int64At(i)));
    sample.weights.push_back(result.column(weight_col).DoubleAt(i));
  }
  sample.num_units_sampled = design.num_units_sampled;
  sample.unit_sizes = design.unit_sizes;
  sample.num_units_population = design.num_units_population;
  sample.nominal_rate = design.nominal_rate;
  sample.population_rows = design.population_rows;
  sample.table = std::move(result);
  return sample;
}

}  // namespace

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
  const Clock::time_point start = Clock::now();
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

  if (stmt.error_spec.has_value()) {
    obs::ContractReport contract;
    contract.requested_error = stmt.error_spec->relative_error;
    contract.requested_confidence = stmt.error_spec->confidence;
    prof.contract = contract;
  }

  // Mirrors the scalar result fields into the profile and records the
  // query-level metrics; every exit path funnels through here.
  auto finish = [&]() {
    prof.approximated = result.approximated;
    prof.fallback_reason = result.fallback_reason;
    prof.sampled_table = result.sampled_table;
    prof.sampled_fraction = result.approximated ? result.final_rate : 1.0;
    prof.rows_scanned = result.exec_stats.rows_scanned;
    prof.blocks_read = result.exec_stats.blocks_read;
    prof.rows_joined = result.exec_stats.rows_joined;
    prof.pilot_seconds = result.pilot_seconds;
    prof.planning_seconds = result.planning_seconds;
    prof.final_seconds = result.final_seconds;
    prof.total_seconds = Seconds(start);
    if (result.exec_stats.parallel.morsels > 0) {
      obs::ParallelReport par;
      par.num_threads = options_.exec.ResolvedThreads();
      par.morsels = result.exec_stats.parallel.morsels;
      par.steals = result.exec_stats.parallel.steals;
      par.worker_rows = result.exec_stats.parallel.worker_items;
      prof.parallel = std::move(par);
    }
    prof.estimated_error = MaxRelativeCiHalfWidth(result.cis);
    if (prof.contract.has_value()) {
      prof.contract->achieved_error = prof.estimated_error;
    }
    if (tr != nullptr && !external_trace) prof.trace.Finish();
    if (instrumented) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      static obs::Counter* queries = reg.GetCounter("aqp_queries_total");
      static obs::Counter* approx =
          reg.GetCounter("aqp_queries_approximated_total");
      static obs::Counter* fallbacks =
          reg.GetCounter("aqp_queries_fallback_total");
      static obs::LatencyHistogram* latency =
          reg.GetHistogram("aqp_query_seconds");
      static obs::LatencyHistogram* pilot_latency =
          reg.GetHistogram("aqp_pilot_seconds");
      queries->Increment();
      (result.approximated ? approx : fallbacks)->Increment();
      latency->Observe(prof.total_seconds);
      if (result.pilot_seconds > 0.0) {
        pilot_latency->Observe(result.pilot_seconds);
      }
    }
  };

  auto fallback = [&](std::string reason) -> Result<ApproxResult> {
    result.approximated = false;
    result.fallback_reason = std::move(reason);
    prof.executor = "exact";
    obs::TraceSpan exact_span = obs::MaybeSpan(tr, "exact-execute");
    AQP_ASSIGN_OR_RETURN(result.table,
                         aqp::Execute(bound.plan, *catalog_,
                                      &result.exec_stats, tr, options_.exec));
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

  // Pick the largest scanned table above the sampling threshold.
  std::string target_table;
  uint64_t target_rows = 0;
  for (const sql::TableRef& ref : bound.tables) {
    AQP_ASSIGN_OR_RETURN(uint64_t rows, catalog_->Cardinality(ref.table));
    if (rows >= options_.min_table_rows && rows > target_rows) {
      target_rows = rows;
      target_table = ref.table;
    }
  }
  if (target_table.empty()) {
    return fallback("no table is large enough to benefit from sampling");
  }
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const Table> base,
                       catalog_->Get(target_table));
  prof.sampling_design =
      options_.method == SampleSpec::Method::kSystemBlock
          ? "system-block(block_size=" + std::to_string(options_.block_size) +
                ")"
          : "bernoulli-row";

  const sql::SelectStmt flat = FlattenStatement(stmt, bound);

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

  // One stage = sample -> substitute -> run flattened query -> estimate.
  auto run_stage =
      [&](const char* stage, double rate,
          uint64_t seed) -> Result<std::pair<GroupedEstimates, ExecStats>> {
    // Stage-boundary cancellation point: a deadline that fires between the
    // pilot and the final pass stops the query before the expensive stage.
    AQP_RETURN_IF_ERROR(CheckCancelled(options_.exec.cancel));
    obs::TraceSpan stage_span = obs::MaybeSpan(tr, stage);
    stage_span.AddAttr("rate", rate);
    obs::TraceSpan draw_span = obs::MaybeSpan(tr, "draw-sample");
    Sample sample;
    ParallelRunStats sampler_stats;
    if (options_.method == SampleSpec::Method::kSystemBlock) {
      AQP_ASSIGN_OR_RETURN(sample,
                           BlockSample(*base, rate, options_.block_size, seed,
                                       options_.exec, &sampler_stats));
    } else {
      AQP_ASSIGN_OR_RETURN(sample, BernoulliRowSample(*base, rate, seed,
                                                      options_.exec,
                                                      &sampler_stats));
    }
    draw_span.AddAttr("rows", static_cast<uint64_t>(sample.num_rows()));
    draw_span.AddAttr("units", static_cast<uint64_t>(sample.num_units_sampled));
    // The draw's gather is the stage's morselized row movement (the
    // vectorized engine path defers everything else zero-copy), so its
    // parallel attribution lives on this span.
    if (sampler_stats.morsels > 0) {
      draw_span.AddAttr("parallel_morsels", sampler_stats.morsels);
      draw_span.AddAttr("parallel_steals", sampler_stats.steals);
    }
    draw_span.End();
    AQP_ASSIGN_OR_RETURN(Table design_table, WithDesignColumns(sample));
    // The design-carrying sample copy is the stage's dominant allocation;
    // charge it against the query budget for the stage's lifetime so a
    // too-small budget trips here rather than in the OS allocator.
    AQP_ASSIGN_OR_RETURN(
        ScopedMemoryCharge stage_charge,
        ScopedMemoryCharge::Make(options_.exec.memory,
                                 design_table.ApproxBytes(), "stage sample"));
    Catalog staged = *catalog_;
    staged.RegisterOrReplace(target_table,
                             std::make_shared<Table>(std::move(design_table)));
    AQP_ASSIGN_OR_RETURN(sql::BoundQuery flat_bound, sql::Bind(flat, staged));
    ExecStats stats;
    stats.parallel.MergeFrom(sampler_stats);
    AQP_ASSIGN_OR_RETURN(Table flat_out,
                         aqp::Execute(flat_bound.plan, staged, &stats, tr,
                                      options_.exec));
    obs::TraceSpan estimate_span = obs::MaybeSpan(tr, "estimate");
    AQP_ASSIGN_OR_RETURN(Sample joined,
                         ReconstituteSample(std::move(flat_out), sample));
    AQP_ASSIGN_OR_RETURN(GroupedEstimates estimates,
                         EstimateGroupedAggregates(joined, group_exprs,
                                                   agg_specs));
    estimate_span.AddAttr("groups",
                          static_cast<uint64_t>(estimates.num_groups));
    return std::make_pair(std::move(estimates), stats);
  };

  // ---- Stage 1: pilot --------------------------------------------------
  Clock::time_point t0 = Clock::now();
  const uint64_t population_units =
      options_.method == SampleSpec::Method::kSystemBlock
          ? base->NumBlocks(options_.block_size)
          : base->num_rows();
  double pilot_rate = options_.pilot_rate;
  // The pilot itself must see enough units for its variance estimates to
  // mean anything.
  if (population_units > 0) {
    pilot_rate = std::max(
        pilot_rate, std::min(0.5, static_cast<double>(options_.min_units) /
                                      static_cast<double>(population_units)));
  }
  if (!stmt.group_by.empty()) {
    pilot_rate = std::max(
        pilot_rate,
        BlockRateForGroupCoverage(options_.min_group_rows,
                                  options_.method ==
                                          SampleSpec::Method::kSystemBlock
                                      ? options_.block_size
                                      : 1,
                                  /*delta=*/0.05));
    pilot_rate = std::min(pilot_rate, 0.5);
  }
  AQP_ASSIGN_OR_RETURN(
      auto pilot,
      run_stage("pilot", pilot_rate, options_.seed + invocation_ * 2));
  result.exec_stats = pilot.second;
  result.pilot_seconds = Seconds(t0);
  prof.pilot_rate = pilot_rate;
  prof.pilot_rows_scanned = pilot.second.rows_scanned;

  // ---- Stage 2: plan -----------------------------------------------------
  Clock::time_point t1 = Clock::now();
  obs::TraceSpan plan_span = obs::MaybeSpan(tr, "plan");
  size_t pilot_groups = std::max<size_t>(pilot.first.num_groups, 1);
  size_t num_estimates = pilot_groups * bound.aggregates.size();
  // Composite items split the error budget across their factors.
  int max_factors = 1;
  for (const sql::SelectItem& item : stmt.items) {
    std::unordered_map<std::string, int> counts;
    CountAggOccurrences(item.expr, &counts);
    int factors = 0;
    for (const auto& [display, c] : counts) factors += c;
    max_factors = std::max(max_factors, factors);
  }
  sql::ErrorSpec spec = *stmt.error_spec;
  PerEstimateTarget target = AllocateContract(spec, num_estimates);
  target.relative_error =
      AllocateCompositeError(target.relative_error, max_factors);

  PlanningInputs inputs;
  inputs.pilot = &pilot.first;
  inputs.pilot_rate = pilot_rate;
  inputs.target = target;
  inputs.max_rate = options_.max_rate;
  inputs.safety_factor = options_.safety_factor;
  inputs.min_units = options_.min_units;
  inputs.population_units = population_units;
  SamplingPlan plan = PlanSamplingRate(inputs);
  result.planning_seconds = Seconds(t1);
  prof.worst_required_rate = plan.worst_required_rate;
  plan_span.AddAttr("estimates", static_cast<uint64_t>(num_estimates));
  plan_span.AddAttr("planned_rate", plan.rate);
  plan_span.AddAttr("feasible", plan.feasible ? "true" : "false");
  plan_span.End();
  if (!plan.feasible) {
    return fallback("sampling plan infeasible: " + plan.reason);
  }

  // ---- Stage 3: final ----------------------------------------------------
  Clock::time_point t2 = Clock::now();
  AQP_ASSIGN_OR_RETURN(
      auto final_stage,
      run_stage("final", plan.rate, options_.seed + invocation_ * 2 + 1));
  const GroupedEstimates& estimates = final_stage.first;
  result.exec_stats.rows_scanned += final_stage.second.rows_scanned;
  result.exec_stats.blocks_read += final_stage.second.blocks_read;
  result.exec_stats.rows_joined += final_stage.second.rows_joined;
  result.exec_stats.parallel.MergeFrom(final_stage.second.parallel);

  // Materialize the estimates into the exact query's output shape with
  // per-cell confidence intervals.
  obs::TraceSpan assemble_span = obs::MaybeSpan(tr, "assemble");
  AQP_ASSIGN_OR_RETURN(AssembledResult assembled,
                       AssembleOutput(stmt, bound, estimates, *catalog_,
                                      target.confidence));
  assemble_span.End();
  result.table = std::move(assembled.table);
  result.cis = std::move(assembled.cis);

  result.approximated = true;
  result.final_rate = plan.rate;
  result.sampled_table = target_table;
  result.final_seconds = Seconds(t2);
  finish();
  return result;
}

}  // namespace core
}  // namespace aqp
