#include "service/drift_monitor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "engine/executor.h"
#include "gov/fault_injector.h"
#include "gov/query_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aqp {
namespace service {
namespace {

/// Composes `family{table="<name>"}` — the registry is flat-name, so labels
/// ride inside the name and the Prometheus exporter splits them back out.
/// Label values escape backslash and quote so the composed name survives
/// both exporters.
std::string Labeled(const std::string& family, const std::string& table) {
  std::string value;
  value.reserve(table.size());
  for (char c : table) {
    if (c == '\\' || c == '"') value.push_back('\\');
    value.push_back(c);
  }
  return family + "{table=\"" + value + "\"}";
}

}  // namespace

DriftMonitorOptions DriftMonitorOptions::FromEnv(DriftMonitorOptions base) {
  if (const char* e = std::getenv("AQP_DRIFT_ENABLED")) {
    base.enabled = (e[0] == '1' || e[0] == 't' || e[0] == 'T' ||
                    e[0] == 'y' || e[0] == 'Y');
  }
  auto load_i64 = [](const char* name, int64_t* out) {
    if (const char* v = std::getenv(name)) {
      char* end = nullptr;
      long long parsed = std::strtoll(v, &end, 10);
      if (end != v) *out = parsed;
    }
  };
  auto load_f64 = [](const char* name, double* out) {
    if (const char* v = std::getenv(name)) {
      char* end = nullptr;
      double parsed = std::strtod(v, &end);
      if (end != v) *out = parsed;
    }
  };
  load_i64("AQP_DRIFT_PERIOD_MS", &base.period_ms);
  load_f64("AQP_DRIFT_FLAG_THRESHOLD", &base.flag_threshold);
  load_f64("AQP_DRIFT_INVALIDATE_THRESHOLD", &base.invalidate_threshold);
  load_i64("AQP_DRIFT_DEADLINE_MS", &base.deadline_ms);
  if (const char* v = std::getenv("AQP_DRIFT_MEMORY_BUDGET")) {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end != v) base.memory_budget_bytes = parsed;
  }
  if (const char* v = std::getenv("AQP_DRIFT_MAX_ROWS")) {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end != v) base.max_rows = parsed;
  }
  return base;
}

DriftMonitor::DriftMonitor(const Catalog* catalog, SynopsisCache* cache,
                           DriftMonitorOptions options, obs::QueryLog* log,
                           AccuracyAuditor* auditor)
    : catalog_(catalog),
      cache_(cache),
      options_(std::move(options)),
      log_(log),
      auditor_(auditor) {
  if (options_.enabled && options_.period_ms > 0) {
    worker_ = std::thread([this] { Loop(); });
  }
}

DriftMonitor::~DriftMonitor() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    worker_.join();
  }
}

void DriftMonitor::NotifyVersionActivity() {
  if (!options_.enabled) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    nudged_ = true;
  }
  work_cv_.notify_one();
}

void DriftMonitor::CheckNow() {
  if (!options_.enabled) return;
  Sweep();
}

void DriftMonitor::Drain() {
  if (!worker_.joinable()) return;
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return idle_ && !nudged_; });
}

double DriftMonitor::TableScore(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_scores_.find(table);
  return it == table_scores_.end() ? 0.0 : it->second;
}

DriftMonitorStats DriftMonitor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DriftMonitorStats s;
  s.sweeps = sweeps_;
  s.checks = checks_;
  s.failed = failed_;
  s.flagged = flagged_;
  s.invalidated = invalidated_;
  s.last_max_score = last_max_score_;
  return s;
}

void DriftMonitor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    const auto period = std::chrono::milliseconds(options_.period_ms);
    work_cv_.wait_for(lock, period, [this] { return stop_ || nudged_; });
    if (stop_) break;
    nudged_ = false;
    idle_ = false;
    lock.unlock();
    Sweep();  // Rescans run without mu_ held.
    lock.lock();
    idle_ = true;
    drained_cv_.notify_all();
  }
}

void DriftMonitor::Sweep() {
  // One sweep at a time: CheckNow() from a test must not interleave with a
  // periodic tick mid-flight.
  std::lock_guard<std::mutex> sweep_lock(sweep_mu_);

  const std::vector<PersistedSynopsis> baselines = cache_->Baselines();
  // Several specs per table share one rescan verdict: keep the most recent
  // baseline per table (scores apply to every entry via MarkDrifted).
  std::unordered_map<std::string, const PersistedSynopsis*> by_table;
  for (const PersistedSynopsis& info : baselines) {
    auto [it, inserted] = by_table.emplace(info.table, &info);
    if (!inserted &&
        info.built_unix_seconds > it->second->built_unix_seconds) {
      it->second = &info;
    }
  }

  const double now = obs::NowUnixSeconds();
  double max_score = 0.0;
  for (const auto& [table, info] : by_table) {
    CheckTable(*info, now);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_scores_.find(table);
    if (it != table_scores_.end()) max_score = std::max(max_score, it->second);
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++sweeps_;
  last_max_score_ = max_score;
}

void DriftMonitor::CheckTable(const PersistedSynopsis& info,
                              double now_unix_seconds) {
  obs::TraceSpan check_span;  // Inert: times the check, records nothing.

  // Chaos site: a failed rescan is abandoned like any governed-budget miss —
  // counted, never retried before the next sweep, never foreground-visible.
  if (!gov::FaultInjector::Global().MaybeFail("drift.sweep").ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    return;
  }

  uint64_t version = info.catalog_version;
  if (auto v = catalog_->Version(info.table); v.ok()) version = v.value();

  // Governed rescan: the monitor's cost is bounded by ITS budget, never the
  // foreground's — an extent-backed table's decode included, which reads
  // only the extents holding the max_rows leading rows the statistics
  // cover. A rescan that blows the deadline or the memory budget is
  // abandoned; the table is retried on the next sweep. A dropped table
  // fails its read: its versioned keys are unreachable anyway, and the LRU
  // ages the entries out.
  gov::QueryContext ctx(
      gov::Limits{options_.deadline_ms, options_.memory_budget_bytes});
  ctx.Start();
  ExecOptions exec;
  exec.num_threads = 1;  // A background decode leaves the pool to queries.
  ctx.Bind(&exec);
  auto table = ReadTable(*catalog_, info.table, nullptr, exec, nullptr,
                         options_.max_rows);
  // An in-memory name reads whole: copy its leading rows, charged to the
  // rescan's budget.
  ScopedMemoryCharge head_charge;
  if (table.ok() && options_.max_rows > 0 &&
      table.value()->num_rows() > options_.max_rows) {
    Table head = table.value()->Slice(0, options_.max_rows);
    auto charge = ScopedMemoryCharge::Make(exec.memory, head.ApproxBytes(),
                                           "drift rescan rows");
    if (charge.ok()) {
      head_charge = std::move(charge).value();
      table = std::make_shared<const Table>(std::move(head));
    } else {
      table = charge.status();
    }
  }
  Result<core::TableDriftBaseline> current =
      table.ok() ? core::BuildDriftBaseline(*table.value(), info.table,
                                            version, exec.memory, exec.cancel)
                 : table.status();
  if (!current.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    return;
  }

  const core::TableDriftReport report =
      core::ScoreDrift(*info.baseline, current.value());
  const double staleness =
      std::max(0.0, now_unix_seconds - info.built_unix_seconds);

  std::string action = "none";
  if (report.score >= options_.invalidate_threshold) {
    action = "invalidate";
    cache_->InvalidateTable(info.table);
    if (auditor_ != nullptr) auditor_->PrioritizeTable(info.table);
  } else if (report.score >= options_.flag_threshold) {
    action = "flag";
    cache_->MarkDrifted(info.table, report.score);
    if (auditor_ != nullptr) auditor_->PrioritizeTable(info.table);
  } else {
    // Below threshold the score is still written back so per-answer
    // profiles report the freshest measurement.
    cache_->MarkDrifted(info.table, report.score);
  }

  const double check_seconds = check_span.End();

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++checks_;
    if (action == "flag") ++flagged_;
    if (action == "invalidate") ++invalidated_;
    table_scores_[info.table] = report.score;
  }

  PublishVerdict(info, report, action, staleness, check_seconds);
}

void DriftMonitor::PublishVerdict(const PersistedSynopsis& info,
                                  const core::TableDriftReport& report,
                                  const std::string& action,
                                  double staleness_seconds,
                                  double check_seconds) {
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetGauge(Labeled("synopsis.drift.score_ratio", info.table))
        ->Set(report.score);
    reg.GetGauge(Labeled("synopsis.drift.ks_ratio", info.table))
        ->Set(report.ks);
    reg.GetGauge(Labeled("synopsis.drift.domain_churn_ratio", info.table))
        ->Set(report.domain_churn);
    reg.GetGauge(Labeled("synopsis.drift.hh_turnover_ratio", info.table))
        ->Set(report.hh_turnover);
    reg.GetGauge(Labeled("synopsis.drift.moment_shift_ratio", info.table))
        ->Set(report.moment_shift);
    reg.GetGauge(Labeled("synopsis.staleness_seconds", info.table))
        ->Set(staleness_seconds);
    reg.GetCounter("synopsis.drift.checks")->Increment();
    if (action == "flag") reg.GetCounter("synopsis.drift.flags")->Increment();
    if (action == "invalidate") {
      reg.GetCounter("synopsis.drift.invalidations")->Increment();
    }
    reg.GetHistogram("aqp_synopsis_drift_check_seconds")
        ->Observe(check_seconds);
  }

  if (log_ != nullptr) {
    obs::QueryLogEvent e;
    e.kind = "drift";
    e.status = "ok";
    e.wall_ms = check_seconds * 1e3;
    e.drift_table = info.table;
    e.drift_score = report.score;
    e.drift_ks = report.ks;
    e.drift_domain_churn = report.domain_churn;
    e.drift_hh_turnover = report.hh_turnover;
    e.drift_moment_shift = report.moment_shift;
    e.drift_worst_column = report.worst_column;
    e.drift_action = action;
    e.staleness_seconds = staleness_seconds;
    log_->Append(std::move(e));
  }
}

}  // namespace service
}  // namespace aqp
