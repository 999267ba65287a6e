#ifndef AQP_SERVICE_DRIFT_MONITOR_H_
#define AQP_SERVICE_DRIFT_MONITOR_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/drift_baseline.h"
#include "engine/catalog.h"
#include "obs/query_log.h"
#include "service/accuracy_auditor.h"
#include "service/synopsis_cache.h"

namespace aqp {
namespace service {

/// Drift-monitor knobs. `FromEnv` overlays the environment:
///   AQP_DRIFT_ENABLED               1/0 (master switch)
///   AQP_DRIFT_PERIOD_MS             periodic sweep interval (<= 0: only
///                                   on-demand / version-activity sweeps)
///   AQP_DRIFT_FLAG_THRESHOLD        soft-drift score threshold in [0, 1]
///   AQP_DRIFT_INVALIDATE_THRESHOLD  hard-drift score threshold in [0, 1]
///   AQP_DRIFT_DEADLINE_MS           per-sweep governed rescan deadline
///   AQP_DRIFT_MEMORY_BUDGET         per-sweep rescan memory budget (bytes)
///   AQP_DRIFT_MAX_ROWS              rows rescanned per table (0 = all)
struct DriftMonitorOptions {
  bool enabled = false;
  /// Periodic sweep interval; the worker also wakes early when the service
  /// reports catalog version activity. <= 0 disables the thread — sweeps
  /// then only run via CheckNow() (tests/bench) or version activity is
  /// ignored.
  int64_t period_ms = 5000;
  /// Score at which entries are flagged (kept serving; the governed layer
  /// widens CIs and the auditor prioritizes the table).
  double flag_threshold = 0.15;
  /// Score at which the table's synopses are dropped outright; the next
  /// query rebuilds from current data.
  double invalidate_threshold = 0.35;
  /// Governed budget of one sweep's rescans; a table whose rescan cannot
  /// finish is skipped (counted, not retried until the next sweep).
  int64_t deadline_ms = 10000;  // < 0 = none.
  uint64_t memory_budget_bytes = 0;
  /// Leading rows rescanned per table (0 = all) — bounds sweep cost on
  /// huge tables at some sensitivity loss.
  uint64_t max_rows = 0;

  static DriftMonitorOptions FromEnv(DriftMonitorOptions base);
  static DriftMonitorOptions FromEnv() {
    return FromEnv(DriftMonitorOptions());
  }
};

/// Point-in-time monitor counters.
struct DriftMonitorStats {
  uint64_t sweeps = 0;        // Completed sweeps (periodic + nudged + CheckNow).
  uint64_t checks = 0;        // Per-table baseline/current comparisons.
  uint64_t failed = 0;        // Rescans abandoned (deadline/memory/missing).
  uint64_t flagged = 0;       // Soft-drift verdicts (score >= flag threshold).
  uint64_t invalidated = 0;   // Hard-drift verdicts (entries dropped).
  double last_max_score = 0.0;  // Worst table score seen in the last sweep.
};

/// Background synopsis drift monitor — the eyes the cache lacks. The
/// version-keyed SynopsisCache is blind to in-place table mutation (an
/// append through a retained non-const handle bumps no version), so cached
/// synopses can silently serve confidently-wrong CIs forever. This monitor
/// closes the loop: on a periodic schedule (and nudged on catalog version
/// activity) it enumerates the cache's drift baselines, rebuilds each
/// table's column statistics under its own governed deadline/memory budget,
/// and scores the drift per column (KS statistic, KMV domain churn,
/// heavy-hitter turnover, moment shift — see core/drift_baseline.h).
/// Verdicts feed four sinks:
///
///   * the cache: scores are written back to entries (soft) or the table's
///     entries are invalidated outright (hard, score >= invalidate
///     threshold) so the next query rebuilds from current data;
///   * the auditor: flagged tables get priority ground-truth audits;
///   * the metrics registry: `synopsis.drift.*` and
///     `synopsis.staleness_seconds` gauges (labeled per table);
///   * the query log: one kind="drift" event per table verdict.
///
/// Modeled on AccuracyAuditor's drop-not-block design: all work runs on one
/// low-priority thread, a sweep that cannot finish is abandoned and retried
/// at the next tick, and nothing here ever back-pressures foreground
/// queries. CheckNow()/Drain() give tests and benches deterministic sweeps.
class DriftMonitor {
 public:
  /// `catalog` and `cache` must outlive the monitor; `log` and `auditor`
  /// may be null. When `options.enabled` is false the monitor is inert (no
  /// thread, CheckNow is a no-op).
  DriftMonitor(const Catalog* catalog, SynopsisCache* cache,
               DriftMonitorOptions options, obs::QueryLog* log = nullptr,
               AccuracyAuditor* auditor = nullptr);
  ~DriftMonitor();
  DriftMonitor(const DriftMonitor&) = delete;
  DriftMonitor& operator=(const DriftMonitor&) = delete;

  /// Nudges the worker to sweep soon (the service calls this when it
  /// observes a table version change). Cheap and non-blocking.
  void NotifyVersionActivity();

  /// Runs one full sweep synchronously on the caller's thread (serialized
  /// with the background worker). Tests and benches use this instead of
  /// waiting out the period.
  void CheckNow();

  /// Blocks until the worker is idle with no pending nudge.
  void Drain();

  /// Last computed drift score for `table` (0 when never checked).
  double TableScore(const std::string& table) const;

  DriftMonitorStats stats() const;
  bool enabled() const { return options_.enabled; }
  const DriftMonitorOptions& options() const { return options_; }

 private:
  void Loop();
  /// One sweep over every cached baseline. Callers must NOT hold mu_.
  void Sweep();
  /// Rescan + score one table against `info`'s baseline.
  void CheckTable(const PersistedSynopsis& info, double now_unix_seconds);
  void PublishVerdict(const PersistedSynopsis& info,
                      const core::TableDriftReport& report,
                      const std::string& action, double staleness_seconds,
                      double check_seconds);

  const Catalog* catalog_;
  SynopsisCache* cache_;
  const DriftMonitorOptions options_;
  obs::QueryLog* log_;
  AccuracyAuditor* auditor_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // Wakes the worker (nudge / stop).
  std::condition_variable drained_cv_;  // Wakes Drain() waiters.
  bool stop_ = false;
  bool nudged_ = false;
  bool idle_ = true;
  uint64_t sweeps_ = 0;
  uint64_t checks_ = 0;
  uint64_t failed_ = 0;
  uint64_t flagged_ = 0;
  uint64_t invalidated_ = 0;
  double last_max_score_ = 0.0;
  std::map<std::string, double> table_scores_;

  std::mutex sweep_mu_;  // Serializes Sweep() between worker and CheckNow().
  std::thread worker_;
};

}  // namespace service
}  // namespace aqp

#endif  // AQP_SERVICE_DRIFT_MONITOR_H_
