#ifndef AQP_OBS_PROFILE_H_
#define AQP_OBS_PROFILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace aqp {
namespace obs {

/// The (requested, achieved) halves of an accuracy contract, attached to a
/// profile when the query carried a WITH ERROR clause.
struct ContractReport {
  double requested_error = 0.0;       // Relative, e.g. 0.05.
  double requested_confidence = 0.0;  // e.g. 0.95.
  /// Widest relative CI half-width across all output cells — the error the
  /// system can actually attest a posteriori. 0 for exact answers.
  double achieved_error = 0.0;
  bool met() const { return achieved_error <= requested_error; }
};

/// Morsel-parallel execution summary for one query: how many threads were
/// resolved, how many morsels ran, how many were stolen off their owner's
/// run, and how many rows each worker slot processed (slot 0 is the
/// coordinating thread). Filled by executors that ran parallel regions;
/// absent means the query ran entirely serial.
struct ParallelReport {
  uint64_t num_threads = 0;
  uint64_t morsels = 0;
  uint64_t steals = 0;
  std::vector<uint64_t> worker_rows;  // Rows per worker slot.
};

/// What the system actually did to answer one query — the paper's central
/// adoption complaint ("users cannot see what the AQP system did") turned
/// into a first-class result field. Every executor (two-stage online,
/// offline-sample, grace-sample, exact fallback) fills one in; it
/// renders as an EXPLAIN ANALYZE-style text tree or as JSON.
struct ExecutionProfile {
  std::string query;
  /// Which execution strategy answered: "online-two-stage", "offline-sample",
  /// "grace-sample", or "exact".
  std::string executor;

  /// Also on core::ApproxResult, where callers branch on it; kept here so a
  /// profile on its own (logged, cached, rendered) says whether it sampled.
  bool approximated = false;
  std::string fallback_reason;  // Why exact execution was chosen, if it was.

  /// Resource governance. When a governed query could not run its preferred
  /// strategy (deadline, memory budget, or a runtime fault), the governor
  /// descends a degradation ladder and records here which rung answered and
  /// why: rung 0 = preferred strategy, 1 = stored offline sample, 2 =
  /// grace sample of the current table (CI widened by the degradation
  /// inflation). `degraded_reason` is empty for ungoverned / undegraded runs.
  std::string degraded_reason;
  int degradation_rung = 0;
  /// Widest finite relative CI half-width across the answer's output cells —
  /// the error the system ESTIMATES it returned (0 for exact answers). For
  /// degraded answers this is measured AFTER the degradation CI inflation;
  /// `pre_inflation_error` keeps the raw estimator half-width so the
  /// accuracy auditor can attribute a coverage miss to estimation error
  /// (pre-inflation CI already too narrow) vs. insufficient inflation.
  double estimated_error = 0.0;
  double pre_inflation_error = 0.0;  // 0 for undegraded answers.
  /// Peak live bytes the query's MemoryTracker saw, and the bytes still
  /// charged when the profile was taken (must be 0 — anything else is a
  /// governance accounting leak).
  uint64_t memory_peak_bytes = 0;
  uint64_t memory_leaked_bytes = 0;

  /// Service tier (filled only for queries that went through a
  /// service::QueryService). How long the query waited for admission, how
  /// many submissions were already queued when it arrived, and which
  /// cross-query cache shaped the answer: "result-cache" (served without
  /// executing), "synopsis-cache" (degraded rung answered from a shared
  /// cached synopsis), or empty (no cache involvement).
  double admission_wait_seconds = 0.0;
  uint64_t queue_depth_at_admission = 0;
  std::string cache_source;
  /// Drift context of the synopsis that served (or was available to) this
  /// answer: the DriftMonitor's latest score for it and its age at answer
  /// time. Both 0 when no cached synopsis was involved or never scored.
  double synopsis_drift_score = 0.0;
  double synopsis_age_seconds = 0.0;
  /// Bounded-retry accounting: how many rung attempts were re-run after a
  /// transient Internal failure, and the total backoff slept doing so. Both
  /// 0 for queries that never retried.
  uint64_t retry_count = 0;
  double retry_wait_seconds = 0.0;

  /// Sampling decisions.
  std::string sampling_design;   // e.g. "system-block(block_size=128)".
  std::string sampled_table;     // Which table was sampled.
  double sampled_fraction = 1.0;  // Final-stage rate; 1.0 = full scan.
  double pilot_rate = 0.0;
  double worst_required_rate = 0.0;  // Planner's uncapped requirement.

  /// Cost actually paid.
  uint64_t rows_scanned = 0;
  uint64_t blocks_read = 0;
  uint64_t rows_joined = 0;
  uint64_t pilot_rows_scanned = 0;
  /// Stage seconds, each the duration of its stage's span: `pilot` and
  /// `final` (the offline executor's whole query), and `price` + `plan` for
  /// planning. Total is an unrecorded span around the whole execution. Spans
  /// time themselves even when tracing is off, so these are always filled;
  /// when traced they equal the spans' `duration_seconds` exactly.
  double pilot_seconds = 0.0;
  double planning_seconds = 0.0;
  double final_seconds = 0.0;
  double total_seconds = 0.0;

  std::optional<ContractReport> contract;

  /// Morsel/steal/per-worker attribution when any stage ran parallel.
  std::optional<ParallelReport> parallel;

  /// Nested span timings (parse -> bind -> pilot -> plan -> final -> ...),
  /// with per-operator row counts when engine tracing was on.
  QueryTrace trace{"query"};

  /// EXPLAIN ANALYZE-style rendering: a header block of decisions/costs
  /// followed by the span tree.
  std::string ToText() const;

  /// Everything above as one JSON object (spans under "trace").
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace aqp

#endif  // AQP_OBS_PROFILE_H_
