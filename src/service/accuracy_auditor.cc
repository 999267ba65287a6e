#include "service/accuracy_auditor.h"

#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "gov/fault_injector.h"
#include "gov/query_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace aqp {
namespace service {
namespace {

// Joins the non-aggregate cells of one output row into a group-identity key
// so approximate and exact rows can be matched independent of row order.
std::string RowKey(const Table& t, size_t row,
                   const std::vector<bool>& is_aggregate) {
  std::string key;
  for (size_t c = 0; c < t.num_columns() && c < is_aggregate.size(); ++c) {
    if (is_aggregate[c]) continue;
    key += t.column(c).IsNull(row) ? "NULL" : t.column(c).GetValue(row).ToString();
    key += '\x1f';
  }
  return key;
}

}  // namespace

AuditOptions AuditOptions::FromEnv(AuditOptions base) {
  if (const char* f = std::getenv("AQP_AUDIT_FRACTION")) {
    char* end = nullptr;
    double v = std::strtod(f, &end);
    if (end != f) base.fraction = v;
  }
  if (const char* d = std::getenv("AQP_AUDIT_DEADLINE_MS")) {
    char* end = nullptr;
    long long v = std::strtoll(d, &end, 10);
    if (end != d) base.deadline_ms = v;
  }
  return base;
}

AccuracyAuditor::AccuracyAuditor(const Catalog* catalog, AuditOptions options,
                                 obs::QueryLog* log)
    : catalog_(catalog),
      options_(options),
      log_(log),
      interval_(options.fraction <= 0.0
                    ? 0
                    : std::max<uint64_t>(
                          1, static_cast<uint64_t>(
                                 std::llround(1.0 / options.fraction)))) {
  if (interval_ > 0) {
    worker_ = std::thread([this] { Loop(); });
  }
}

AccuracyAuditor::~AccuracyAuditor() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    worker_.join();
  }
}

bool AccuracyAuditor::MaybeEnqueue(const std::string& sql,
                                   const core::ApproxResult& result) {
  if (interval_ == 0) return false;
  if (!result.approximated || result.cis.empty()) return false;

  Pending p;
  p.sql = sql;
  p.answer = result.table;
  p.cis = result.cis;
  p.table = result.profile.sampled_table;
  p.rung = result.profile.degradation_rung;
  p.estimated_error = result.profile.estimated_error;
  p.pre_inflation_error = result.profile.pre_inflation_error;
  if (result.profile.contract.has_value() &&
      result.profile.contract->requested_confidence > 0.0) {
    p.nominal_confidence = result.profile.contract->requested_confidence;
  }

  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    ++eligible_;
    bool prioritized = false;
    if (!p.table.empty()) {
      auto prio = priority_tables_.find(p.table);
      if (prio != priority_tables_.end()) {
        prioritized = true;
        if (--prio->second == 0) priority_tables_.erase(prio);
      }
    }
    if (!prioritized && eligible_ % interval_ != 0) return false;
    ++sampled_;
    if (queue_.size() >= options_.queue_capacity) {
      // Never back-pressure the foreground: the audit is best-effort.
      ++dropped_;
      return false;
    }
    queue_.push_back(std::move(p));
    enqueued = true;
  }
  work_cv_.notify_one();
  return enqueued;
}

void AccuracyAuditor::PrioritizeTable(const std::string& table,
                                      uint64_t budget) {
  if (interval_ == 0 || table.empty() || budget == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& remaining = priority_tables_[table];
  remaining = std::max(remaining, budget);
}

void AccuracyAuditor::Drain() {
  if (interval_ == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return queue_.empty() && idle_; });
}

AuditorStats AccuracyAuditor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  AuditorStats s;
  s.eligible = eligible_;
  s.sampled = sampled_;
  s.dropped = dropped_;
  s.audited = audited_;
  s.failed = failed_;
  s.cells = cells_;
  s.covered = covered_;
  s.coverage_regression = coverage_regression_;
  return s;
}

void AccuracyAuditor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty() && stop_) break;
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    idle_ = false;
    lock.unlock();
    AuditOne(p);  // Ground truth runs without mu_ held.
    lock.lock();
    idle_ = true;
    drained_cv_.notify_all();
  }
}

void AccuracyAuditor::AuditOne(const Pending& p) {
  obs::TraceSpan audit_span;  // Inert: times the audit, records nothing.
  double worst_observed = 0.0;
  Result<std::pair<uint64_t, uint64_t>> verdict =
      CompareAgainstTruth(p, &worst_observed);
  const double wall_ms = audit_span.End() * 1e3;

  if (verdict.ok()) {
    RecordVerdict(p, verdict.value().first, verdict.value().second,
                  worst_observed);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
  }

  if (log_ != nullptr) {
    obs::QueryLogEvent e;
    e.kind = "audit";
    e.sql = p.sql;
    e.sql_fingerprint = HashString(p.sql);
    e.status = verdict.ok() ? "ok" : "failed";
    e.degradation_rung = p.rung;
    e.estimated_error = p.estimated_error;
    e.pre_inflation_error = p.pre_inflation_error;
    e.wall_ms = wall_ms;
    e.audited_table = p.table;
    if (verdict.ok()) {
      e.audit_cells = verdict.value().first;
      e.audit_covered = verdict.value().second;
      e.observed_error = worst_observed;
    }
    log_->Append(std::move(e));
  }
}

Result<std::pair<uint64_t, uint64_t>> AccuracyAuditor::CompareAgainstTruth(
    const Pending& p, double* worst_observed_error) {
  // Chaos site: a failed re-execution is one dropped audit verdict (counted,
  // logged status="failed"), never a foreground-visible error.
  AQP_RETURN_IF_ERROR(gov::FaultInjector::Global().MaybeFail("audit.reexec"));
  // Ground truth: the same SQL with the error clause stripped, executed
  // exactly, single-threaded (stays off the shared morsel pool), under the
  // auditor's own deadline and memory budget.
  AQP_ASSIGN_OR_RETURN(sql::SelectStmt stmt, sql::Parse(p.sql));
  stmt.error_spec.reset();
  AQP_ASSIGN_OR_RETURN(sql::BoundQuery bound, sql::Bind(stmt, *catalog_));

  gov::QueryContext ctx(
      gov::Limits{options_.deadline_ms, options_.memory_budget_bytes});
  ctx.Start();
  ExecOptions exec;
  exec.num_threads = 1;
  ctx.Bind(&exec);
  ExecStats stats;
  AQP_ASSIGN_OR_RETURN(
      Table truth, aqp::Execute(bound.plan, *catalog_, &stats, nullptr, exec));

  // Which output columns carry aggregates (the cells with CIs to check).
  std::vector<bool> is_aggregate;
  for (const sql::SelectItem& item : stmt.items) {
    is_aggregate.push_back(item.expr != nullptr &&
                           item.expr->ContainsAggregate());
  }

  std::unordered_map<std::string, size_t> truth_rows;
  truth_rows.reserve(truth.num_rows());
  for (size_t r = 0; r < truth.num_rows(); ++r) {
    truth_rows.emplace(RowKey(truth, r, is_aggregate), r);
  }

  uint64_t cells = 0;
  uint64_t covered = 0;
  for (size_t r = 0; r < p.answer.num_rows() && r < p.cis.size(); ++r) {
    auto it = truth_rows.find(RowKey(p.answer, r, is_aggregate));
    for (size_t c = 0; c < p.answer.num_columns() && c < p.cis[r].size();
         ++c) {
      if (c >= is_aggregate.size() || !is_aggregate[c]) continue;
      ++cells;
      // A row the exact answer does not have is an invented group: every
      // one of its aggregate cells is a miss by definition.
      if (it == truth_rows.end()) continue;
      if (truth.column(c).IsNull(it->second)) continue;
      double exact = truth.column(c).GetValue(it->second).AsDouble();
      const stats::ConfidenceInterval& ci = p.cis[r][c];
      if (ci.Covers(exact)) ++covered;
      double denom = std::abs(exact);
      double err = denom > 0.0 ? std::abs(ci.estimate - exact) / denom
                               : std::abs(ci.estimate - exact);
      *worst_observed_error = std::max(*worst_observed_error, err);
    }
  }
  return std::make_pair(cells, covered);
}

void AccuracyAuditor::RecordVerdict(const Pending& p, uint64_t cells,
                                    uint64_t covered,
                                    double worst_observed_error) {
  const std::string key =
      (p.table.empty() ? "unknown" : p.table) + ".rung" +
      std::to_string(p.rung);

  bool any_regressed = false;
  double window_coverage = 0.0;
  double window_mean_error = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++audited_;
    cells_ += cells;
    covered_ += covered;

    Window& w = windows_[key];
    for (uint64_t i = 0; i < cells; ++i) {
      bool cell_covered = i < covered;
      w.cells.emplace_back(cell_covered, worst_observed_error);
      if (cell_covered) ++w.covered;
      w.error_sum += worst_observed_error;
      while (w.cells.size() > options_.window_cells) {
        auto [old_covered, old_err] = w.cells.front();
        w.cells.pop_front();
        if (old_covered) --w.covered;
        w.error_sum -= old_err;
      }
    }
    if (!w.cells.empty()) {
      window_coverage = static_cast<double>(w.covered) / w.cells.size();
      window_mean_error = w.error_sum / w.cells.size();
    }
    // The regression flag is recomputed over every key's current window so
    // it clears when coverage recovers.
    for (const auto& [k, win] : windows_) {
      if (win.cells.size() < 50) continue;
      double cov = static_cast<double>(win.covered) / win.cells.size();
      if (cov < p.nominal_confidence - options_.coverage_slack) {
        any_regressed = true;
        break;
      }
    }
    coverage_regression_ = any_regressed;
  }

  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("service.audit.cells." + key)->Increment(cells);
    reg.GetCounter("service.audit.covered." + key)->Increment(covered);
    reg.GetGauge("service.audit.coverage." + key)->Set(window_coverage);
    reg.GetGauge("service.audit.observed_error." + key)
        ->Set(window_mean_error);
    reg.GetGauge("service.audit.coverage_regression")
        ->Set(any_regressed ? 1.0 : 0.0);
  }
}

}  // namespace service
}  // namespace aqp
