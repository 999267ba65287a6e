#ifndef AQP_CORE_APPROX_EXECUTOR_H_
#define AQP_CORE_APPROX_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/estimate.h"
#include "core/sample_planner.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "obs/profile.h"
#include "sql/binder.h"
#include "stats/confidence.h"

namespace aqp {
namespace core {

/// Knobs of the approximate executor.
struct AqpOptions {
  /// Pilot-stage sampling rate. Every pilot is raised to draw about
  /// `min_units` units (up to a rate of 0.5). A GROUP BY pilot is raised
  /// further, to the rate at which the least-spread group-key value with at
  /// least `min_group_rows` qualifying rows is seen with probability 0.95,
  /// read from the catalog's column statistics (PriceContract), and capped
  /// at 0.5. Only where the statistics cannot say (an expression key,
  /// several keys, a key with over ColumnStats::kMaxValues values, a
  /// predicate they cannot price) is the pilot sized for the worst case: a
  /// group of `min_group_rows` rows packed into as few blocks as it fits
  /// (BlockRateForGroupCoverage). There the 0.5 cap usually binds: 100 rows
  /// in one 1024-row block would need 0.95.
  double pilot_rate = 0.01;
  uint64_t min_group_rows = 100;

  /// Sampling method for both stages. Block sampling is the default: it is
  /// what actually skips I/O; the executor's estimators stay valid because
  /// they aggregate per block (unit).
  SampleSpec::Method method = SampleSpec::Method::kSystemBlock;
  uint32_t block_size = kDefaultBlockSize;

  /// Plans above this rate fall back to exact execution (sampling overhead
  /// no longer pays for itself).
  double max_rate = 0.1;
  /// Tables smaller than this are never sampled.
  uint64_t min_table_rows = 5000;
  /// Inflation on the planned rate to absorb pilot noise.
  double safety_factor = 2.0;
  /// Both stages must be expected to draw at least this many sampling units
  /// (blocks for block sampling, rows for row sampling).
  uint64_t min_units = 30;

  uint64_t seed = 42;

  /// Morsel-parallel execution knobs forwarded to the engine and the
  /// samplers for every stage (pilot, final, exact fallback). The default
  /// resolves to all hardware threads; set `exec.num_threads = 1` for
  /// strictly serial execution. Results never depend on the thread count.
  ExecOptions exec;
};

/// Result of an approximate execution: the answer, and the profile of how
/// it was reached. `table` always has the exact query's output shape; when
/// `approximated` is false it IS the exact answer and
/// `profile.fallback_reason` says why sampling was declined. Everything else
/// the executor decided or paid (rates, sampled table, rows scanned, stage
/// seconds) lives only in `profile`.
struct ApproxResult {
  Table table;
  /// Also in `profile.approximated`: callers branch on it before reading the
  /// answer, and the profile carries it so a profile alone (logged, cached or
  /// rendered) still says whether the answer was sampled.
  bool approximated = false;

  /// cis[row][item]: confidence interval of each output cell at the
  /// contract's (allocated) confidence; zero-width for group-key items.
  std::vector<std::vector<stats::ConfidenceInterval>> cis;

  /// What the executor actually did: sampling design, rates, what it
  /// scanned, per-stage span timings, contract requested vs. achieved.
  /// Render with `profile.ToText()` (EXPLAIN ANALYZE tree) or
  /// `profile.ToJson()`. Span collection is gated on the global
  /// observability flag (`obs::MetricsRegistry::Global().set_enabled(...)` /
  /// env `AQP_OBS=0`); the scalar fields, stage seconds included, are always
  /// filled.
  obs::ExecutionProfile profile;
};

/// Records what the engine did for a query in `profile`: rows scanned,
/// blocks read, rows joined, and, when any region ran parallel, the morsel
/// attribution at `exec`'s resolved thread count.
void RecordExecStats(const ExecStats& stats, const ExecOptions& exec,
                     obs::ExecutionProfile* profile);

/// Widest finite relative CI half-width across all of `cis`' cells — the
/// error the system can attest a posteriori (0 when every cell is exact).
/// Shared by the contract report, the governed executor's degraded-answer
/// accounting, and the service query log.
double MaxRelativeCiHalfWidth(
    const std::vector<std::vector<stats::ConfidenceInterval>>& cis);

/// The table a query's sampled stages draw from: the largest table the
/// query scans with at least `min_table_rows` rows (`table` is empty when
/// none has), its row count, and the rows per sampling unit of the
/// options' method.
struct StageTarget {
  std::string table;
  uint64_t rows = 0;
  uint32_t unit_rows = 1;
};

/// Picks the stage target of `query` (InvalidArgument for a zero block
/// size when a table qualifies).
Result<StageTarget> PickStageTarget(const Catalog& catalog,
                                    const sql::BoundQuery& query,
                                    const AqpOptions& options);

/// The per-estimate target of `query`'s contract over `num_groups` groups:
/// Boole's split of the confidence across every (group, aggregate)
/// estimate, and the relative error split across the factors of the widest
/// composite SELECT item.
PerEstimateTarget ContractTarget(const sql::PreparedQuery& query,
                                 size_t num_groups);

/// What the catalog's column statistics say about a contract before any
/// sampling (core/pricing.cc).
struct ContractPrice {
  /// The rate the pilot should run at, and what set it: "floor" (pilot_rate
  /// or min_units units), "least-spread value <v> of <q.column>", or "no
  /// statistics: <why>" (the worst-case grouped rate).
  double pilot_rate = 0.0;
  std::string pilot_basis;
  /// Whether any item was priced, and the largest final rate the priced
  /// items are predicted to need before the safety factor — a lower bound
  /// under the model's assumptions.
  bool priced = false;
  double predicted_rate = 0.0;
};

/// Prices `query`'s contract (it must carry one) on `target` from column
/// statistics, building those it reads on first use (charged to
/// `options.exec.memory`, traced under `trace`). Costs O(log NDV) per
/// predicate term and O(NDV) of the group key, with no table pass once the
/// statistics exist.
///
/// The pilot rate is the largest of `pilot_rate`, min_units units, and the
/// block rate at which the least-spread group-key value — counting only
/// values with at least `min_group_rows` qualifying rows — is seen with
/// probability 0.95, capped at 0.5. A key on the far side of a
/// single-condition inner equi-join is sized by the near-side join column.
///
/// The predicted rate inverts the ratio-to-size variance of each priced
/// group's COUNT, from its per-block row counts, under the query's Boole
/// allocation. SUM and COUNT items are priced by COUNT's variance (a lower
/// bound for SUM's); AVG and composite items, far-side keys and predicates
/// on the key's own column are not priced. Predicates are assumed
/// independent of the key and of the layout.
Result<ContractPrice> PriceContract(const Catalog& catalog,
                                    const sql::PreparedQuery& query,
                                    const StageTarget& target,
                                    const AqpOptions& options,
                                    obs::QueryTrace* trace);

/// What one sampled stage produced: per-group estimates of every aggregate
/// of the query, what the engine did for them, and how long the stage's
/// span was open.
struct StageResult {
  GroupedEstimates estimates;
  ExecStats stats;
  double seconds = 0.0;
};

/// Runs one sampled stage of `query`: its pre-aggregation twin (FROM, JOIN
/// and WHERE; the group keys, aggregate arguments and "__unit") with
/// `target.table` sampled at `rate` with `seed`, run by the engine, then
/// EstimateGroupedAggregates over its rows and the scan's draw, under a
/// span `name` (recorded when `trace` is non-null, timed either way: its
/// duration is the result's `seconds`). A tripped cancellation token fails
/// the stage. For a fixed seed, the units drawn at rate r are a subset of
/// those drawn at any higher rate.
Result<StageResult> RunSampledStage(const Catalog& catalog,
                                    const sql::PreparedQuery& query,
                                    const StageTarget& target,
                                    const AqpOptions& options,
                                    const char* name, double rate,
                                    uint64_t seed, obs::QueryTrace* trace);

/// Two-stage online approximate SQL executor with a-priori error contracts:
///
///   0. PRICE: size the pilot from the catalog's column statistics, and
///      decline (exact fallback, no pilot) when they predict a final rate
///      above safety_factor * max_rate.
///   1. PILOT: run the query's pre-aggregation pipeline with the largest
///      scanned table block-sampled at a small rate (the
///      sampling-equivalence rules make this a valid sample of the
///      aggregate's input), and estimate every aggregate with a unit-aware
///      variance.
///   2. PLAN: allocate the user's joint (error, confidence) contract across
///      all estimates (Boole), invert the HT variance law for the smallest
///      sufficient rate, and decline (exact fallback) when sampling cannot
///      win.
///   3. FINAL: resample at the planned rate, re-estimate, and assemble the
///      original query's output shape with per-cell confidence intervals.
///
/// Each stage is one engine plan: the pre-aggregation statement bound
/// against the live catalog (in-memory or extent-backed), the target
/// table's ref carrying the stage's TABLESAMPLE spec. The engine's scan
/// draws the sample and outputs each row's unit ("__unit"); the estimator
/// reads those rows and the scan's draw — the TABLESAMPLE rewrite posture
/// of PilotDB and VerdictDB.
class ApproxExecutor {
 public:
  /// `catalog` must outlive the executor.
  ApproxExecutor(const Catalog* catalog, AqpOptions options);

  /// Executes `sql`. Queries without a WITH ERROR clause, without
  /// aggregates, with non-linear aggregates (MIN/MAX/COUNT DISTINCT/VAR),
  /// with HAVING, or whose planned rate is infeasible run exactly.
  ///
  /// When `parent_trace` is non-null the executor's spans (parse, bind,
  /// pilot, plan, final, per-operator) open under the parent's current
  /// cursor instead of the result profile's own trace, so a caller that
  /// already owns a submit-scoped trace (the service tier) gets ONE span
  /// tree for the whole submission. The parent is never Finish()ed here —
  /// the caller owns its lifecycle — and `result.profile.trace` is left
  /// empty for the caller to fill (the service deep-copies the finished
  /// parent in). Parse and bind spans go to `parent_trace` only.
  Result<ApproxResult> Execute(std::string_view sql,
                               obs::QueryTrace* parent_trace = nullptr);

  /// Executes an already prepared query (same contract as above).
  Result<ApproxResult> Execute(const sql::PreparedQuery& query,
                               obs::QueryTrace* parent_trace = nullptr);

 private:
  const Catalog* catalog_;
  AqpOptions options_;
  uint64_t invocation_ = 0;  // Salts stage seeds across calls.
};

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_APPROX_EXECUTOR_H_
