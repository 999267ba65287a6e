#ifndef AQP_GOV_GOVERNED_EXECUTOR_H_
#define AQP_GOV_GOVERNED_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "core/approx_executor.h"
#include "core/offline_catalog.h"
#include "gov/query_context.h"

namespace aqp {
namespace gov {

/// Bounded retry for transient Internal failures (injected faults are the
/// canonical case): a rung attempt that fails with kInternal is re-run after
/// an exponential backoff with deterministic jitter, as long as attempts and
/// deadline budget remain. The attempt budget is shared across the whole
/// query (all rungs), so a retry storm cannot multiply down the ladder.
/// `FromEnv` overlays AQP_RETRY_MAX / AQP_RETRY_BASE_MS /
/// AQP_RETRY_MULTIPLIER / AQP_RETRY_MAX_BACKOFF_MS.
struct RetryOptions {
  /// Extra attempts beyond the first, per query; 0 disables retry.
  int max_attempts = 2;
  /// Backoff before retry k (0-based): base * multiplier^k, capped at
  /// max_backoff_ms, scaled by a deterministic jitter in [0.5, 1.0) derived
  /// from (query seed, k) — no wall-clock randomness, so a seeded run
  /// replays with identical waits.
  int64_t base_backoff_ms = 10;
  double backoff_multiplier = 2.0;
  int64_t max_backoff_ms = 500;

  static RetryOptions FromEnv(RetryOptions base);
};

/// Per-(table, rung) admission gate the ladder consults before attempting a
/// rung, implemented by the service tier's CircuitBreaker. A denied rung is
/// skipped exactly as if it had failed (the ladder descends); when every
/// rung is denied the query fast-fails with the gate's retry-after hint.
/// Implementations must be thread-safe — one gate serves every query.
class RungGate {
 public:
  struct Decision {
    bool allow = true;
    int64_t retry_after_ms = 0;  // Advisory, set on denials.
  };
  virtual ~RungGate() = default;
  virtual Decision Allow(const std::string& table, int rung) = 0;
  /// Reports how an attempted rung concluded: `ok` false means the rung
  /// conclusively failed with a fault (kInternal, post-retry) — deadline and
  /// memory failures are resource signals, not rung health, and are not
  /// reported.
  virtual void RecordOutcome(const std::string& table, int rung, bool ok) = 0;
};

/// Knobs of the governed executor: the inner AQP configuration plus the
/// resource limits and the degradation behaviour.
struct GovernedOptions {
  core::AqpOptions aqp;

  /// Wall-clock deadline per query; < 0 = none. 0 is legal ("already
  /// expired") and forces the ladder immediately — how the deadline-0
  /// robustness suite exercises every rung.
  int64_t deadline_ms = -1;
  /// Live-set byte budget per query; 0 = unlimited.
  uint64_t memory_budget_bytes = 0;

  /// Confidence used for degraded answers (rungs 1 and 2).
  double confidence = 0.95;
  /// Rows in the rung-2 grace sample: a simple random sample of the current
  /// table, drawn after the deadline has already expired and charged to the
  /// query's memory budget — the bounded cost that buys an honest early
  /// estimate instead of an error.
  size_t ola_grace_rows = 4096;
  /// Degraded confidence intervals are widened by this factor (half-width
  /// multiplier) to reflect that the answer came from a rung the query did
  /// not ask for.
  double degraded_ci_inflation = 1.5;

  /// Drift context of the offline synopses rung 1 would answer from, set
  /// per query by the service tier from the cache entries it adopted (the
  /// DriftMonitor's latest score and the synopsis age). 0 = fresh/unknown.
  double synopsis_drift_score = 0.0;
  double synopsis_age_seconds = 0.0;
  /// Rung-1 CI inflation grows with measured drift:
  ///   inflation = degraded_ci_inflation * (1 + gain * drift_score)
  /// so a synopsis known to be going stale answers with honestly wider
  /// intervals instead of confidently-wrong ones.
  double drift_inflation_gain = 1.0;
  /// At or above this drift score rung 1 refuses to answer from the stored
  /// synopsis at all (PilotDB-style decline-when-unsafe): the ladder falls
  /// through to the grace-sample rung, which reads CURRENT data.
  double drift_decline_threshold = 0.5;

  /// Bounded retry with backoff for transient Internal rung failures.
  RetryOptions retry;

  /// Optional per-(table, rung) gate (the service's CircuitBreaker), not
  /// owned, consulted for `gate_table` before each rung attempt; null or an
  /// empty table disables gating. Must outlive the executor.
  RungGate* rung_gate = nullptr;
  std::string gate_table;
};

/// Resource-governed query execution: wraps the two-stage ApproxExecutor in
/// a QueryContext (deadline + memory budget + cancellation) and, when the
/// preferred strategy cannot finish, walks a degradation ladder instead of
/// failing:
///
///   rung 0  exact / two-stage approximate (ApproxExecutor), governed
///   rung 1  pre-computed offline sample (SampleCatalog), cost ∝ sample size
///   rung 2  grace sample: `ola_grace_rows` rows of the current table drawn
///           without replacement, answered by rung 1's estimator; cost
///           O(k log(N/k)), CI widened by `degraded_ci_inflation`
///   — else  Status::ResourceExhausted (nothing could answer)
///
/// The query is parsed and bound once and every rung answers that one
/// PreparedQuery. Rungs 1 and 2 share the filter → estimate → assemble path,
/// so both answer single-table GROUP BY queries with linear aggregates.
/// Degraded answers carry `degraded_reason` / `degradation_rung` in their
/// ExecutionProfile and keep the exact query's output shape. The ladder is
/// taken for deadline expiry, memory exhaustion, and runtime faults
/// (including injected ones); explicit user cancellation does NOT degrade —
/// the caller asked the query to stop, so Cancelled comes straight back.
class GovernedExecutor {
 public:
  /// `catalog` must outlive the executor; `samples` may be null (the ladder
  /// then skips rung 1).
  GovernedExecutor(const Catalog* catalog, const core::SampleCatalog* samples,
                   GovernedOptions options);

  /// Executes `sql` under this executor's limits.
  Result<core::ApproxResult> Execute(std::string_view sql);

  /// Executes `sql` under an externally owned context (e.g. one the caller
  /// may Cancel() from another thread). The context must already be
  /// Start()ed or be started by the caller. A non-null `trace` becomes the
  /// parent of every span the ladder produces — one "rung-N" span per rung
  /// attempted, with the inner executor's spans nested beneath — so a
  /// service-owned submit trace sees the whole descent; the trace's
  /// Finish() stays with its owner.
  Result<core::ApproxResult> ExecuteWithContext(
      std::string_view sql, QueryContext& ctx,
      obs::QueryTrace* trace = nullptr);

  /// Executes an already prepared query: every rung answers this one
  /// parse and bind (the service prepares once, before its caches).
  Result<core::ApproxResult> ExecuteWithContext(
      const sql::PreparedQuery& query, QueryContext& ctx,
      obs::QueryTrace* trace = nullptr);

 private:
  /// Per-query retry accounting, shared by every rung attempt.
  struct RetryState {
    int attempts_left = 0;
    uint64_t count = 0;          // Retries actually performed.
    double wait_seconds = 0.0;   // Total backoff slept.
    int64_t retry_after_ms = 0;  // Worst gate hint seen (for fast-fail).
  };

  Result<core::ApproxResult> RunLadder(const sql::PreparedQuery& query,
                                       QueryContext& ctx, Status failure,
                                       RetryState& retry,
                                       obs::QueryTrace* trace);
  Result<core::ApproxResult> RunGraceRung(const sql::PreparedQuery& query,
                                          const ExecOptions& exec,
                                          obs::QueryTrace* trace);
  /// Runs `attempt` under a "rung-N" span, retrying kInternal failures with
  /// backoff while the shared attempt budget and the deadline allow.
  /// Reports the conclusive outcome to the rung gate.
  template <typename Fn>
  Result<core::ApproxResult> AttemptWithRetry(int rung, QueryContext& ctx,
                                              RetryState& retry,
                                              obs::QueryTrace* trace,
                                              Fn&& attempt);
  /// Gate consultation for one rung; {true, 0} when no gate is configured.
  RungGate::Decision GateAllow(int rung, RetryState& retry) const;
  void FinishProfile(core::ApproxResult* result, const QueryContext& ctx,
                     const RetryState& retry, int rung,
                     std::string degraded_reason,
                     double pre_inflation_error = 0.0) const;

  const Catalog* catalog_;
  const core::SampleCatalog* samples_;
  GovernedOptions options_;
};

/// True iff `s` is a failure the degradation ladder absorbs (deadline,
/// memory, fault) as opposed to one it must surface unchanged (user cancel,
/// malformed query, ...).
bool IsDegradable(const Status& s);

/// True iff `s` is the ladder's own "every rung failed" exhaustion status —
/// the service's poison-query detection keys on it (a query no rung can
/// answer is quarantine material, a plain deadline miss is not).
bool IsLadderExhausted(const Status& s);

}  // namespace gov
}  // namespace aqp

#endif  // AQP_GOV_GOVERNED_EXECUTOR_H_
