// E18 — self-healing query service: watchdog + bounded retry + circuit
// breakers under an expanded chaos matrix.
//
// Claim (survey §interactivity: an AQP tier is sold on bounded answers, so
// its failure behaviour IS the product): a serving tier facing transient
// faults must (a) keep delivering undegraded rung-0 answers when protected
// by bounded retry, breakers, and admission retry-after hints — while the
// same fault rate collapses an unprotected tier's goodput; (b) bound tail
// latency by deadline + watchdog grace; (c) reclaim the admission slot of a
// query hung mid-morsel while the morsel is still stalled, leaking nothing;
// and (d) trip per-(table, rung) breakers on a persistent fault and
// fast-fail with a parseable retry-after hint.
//
// Goodput here = fraction of submissions answered at rung 0 (the answer the
// client actually asked for). Degraded rungs keep the tier alive but are
// not goodput; that distinction is what makes "5% faults, unprotected"
// measurably collapse even though the degradation ladder still answers.
//
// The final phase drives every NEW injection site (synopsis.build,
// result_cache.insert, drift.sweep, audit.reexec, service.admit) with a
// targeted p=1.0 schedule and asserts from per-site counters that each one
// actually fired — the chaos matrix cannot silently lose a site.
//
// Env: AQP_E18_ROWS / AQP_E18_QUERIES size the run (CI smoke uses small
// values; defaults are laptop-class).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "gov/fault_injector.h"
#include "service/query_service.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

constexpr uint64_t kChaosSeed = 42;
constexpr double kChaosP = 0.05;
constexpr int64_t kChaosDeadlineMs = 2000;
constexpr int64_t kChaosGraceMs = 500;

constexpr int64_t kHangMs = 1500;
constexpr int64_t kHungDeadlineMs = 100;
constexpr int64_t kHungGraceMs = 200;

size_t TableRows() {
  return bench::EnvSize("AQP_E18_ROWS", 120000);
}

int QueriesPerPhase() {
  // k has 100 distinct values; past 99 the predicates would repeat and the
  // result cache would answer them fault-free, diluting the comparison.
  return static_cast<int>(
      std::min<size_t>(bench::EnvSize("AQP_E18_QUERIES", 60), 99));
}

Catalog MakeCatalog(size_t rows) {
  std::vector<workload::ColumnSpec> cols;
  workload::ColumnSpec key;
  key.name = "k";
  key.dist = workload::ColumnSpec::Dist::kUniformInt;
  key.min_value = 0;
  key.max_value = 99;
  cols.push_back(key);
  workload::ColumnSpec measure;
  measure.name = "x";
  measure.dist = workload::ColumnSpec::Dist::kExponential;
  cols.push_back(measure);
  Table t = workload::GenerateTable(cols, rows, 5).value();
  Catalog cat;
  AQP_CHECK(cat.Register("t", std::make_shared<Table>(std::move(t))).ok());
  return cat;
}

// Distinct predicate per query: every submission has its own fingerprint,
// so neither the result cache nor the poison quarantine links them.
std::string ChaosSql(int q) {
  return "SELECT SUM(x) AS s, COUNT(*) AS n FROM t WHERE k < " +
         std::to_string(1 + (q % 99)) + " WITH ERROR 5% CONFIDENCE 95%";
}

// The protected configuration: bounded retry tuned for bench-scale queries
// (millisecond backoffs), breakers on (the default), watchdog with a tight
// grace. Two executor threads keep the per-attempt fault-site surface small
// enough that the retry budget can actually win.
service::ServiceOptions BaseOptions() {
  service::ServiceOptions o;
  o.gov.aqp.pilot_rate = 0.02;
  o.gov.aqp.block_size = 64;
  o.gov.aqp.min_table_rows = 1000;
  o.gov.aqp.max_rate = 0.8;
  o.gov.aqp.exec.num_threads = 2;
  o.gov.deadline_ms = kChaosDeadlineMs;
  o.gov.retry.max_attempts = 4;
  o.gov.retry.base_backoff_ms = 1;
  o.gov.retry.max_backoff_ms = 8;
  o.synopsis_rows = 4000;
  o.synopsis_min_table_rows = 10000;
  o.admission.max_inflight = 4;
  o.admission.max_queue = 16;
  o.admission.queue_timeout_ms = 2000;
  o.watchdog.period_ms = 20;
  o.watchdog.grace_ms = kChaosGraceMs;
  return o;
}

// The same tier with every protection off: no retry, no breakers, and the
// client never honours retry-after hints.
service::ServiceOptions UnprotectedOptions() {
  service::ServiceOptions o = BaseOptions();
  o.gov.retry.max_attempts = 0;
  o.breaker.enabled = false;
  return o;
}

double PercentileMs(std::vector<double> ms, double q) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(ms.size() - 1));
  return ms[idx];
}

// Protected clients honour admission retry-after hints: a bounded number of
// re-submissions, each waiting out (a capped slice of) the hint.
Result<core::ApproxResult> ExecuteWithClientRetry(
    service::QueryService& svc, std::shared_ptr<service::Session> session,
    const service::Submission& sub) {
  for (int attempt = 0;; ++attempt) {
    Result<core::ApproxResult> r = svc.Execute(session, sub);
    if (r.ok() || attempt >= 3 ||
        r.status().code() != StatusCode::kResourceExhausted) {
      return r;
    }
    int64_t hint = service::RetryAfterMsFromStatus(r.status());
    if (hint <= 0) return r;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<int64_t>(hint, 50)));
  }
}

struct PhaseOutcome {
  uint64_t ok = 0;
  uint64_t rung0 = 0;     // Undegraded answers: the goodput numerator.
  uint64_t retried = 0;   // Rung-0 answers that needed at least one retry.
  uint64_t degraded = 0;  // Answered, but from a lower rung.
  uint64_t rejected = 0;  // ResourceExhausted (overload / ladder exhausted).
  uint64_t failed = 0;    // Any other failure.
  double p99_ms = 0.0;
  double goodput(int queries) const {
    return queries == 0 ? 0.0
                        : static_cast<double>(rung0) /
                              static_cast<double>(queries);
  }
};

PhaseOutcome RunGoodputPhase(service::QueryService& svc, int queries,
                             bool client_retry) {
  auto session = svc.OpenSession();
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(queries));
  PhaseOutcome out;
  for (int q = 0; q < queries; ++q) {
    service::Submission sub{ChaosSql(q)};
    bench::WallTimer timer;
    Result<core::ApproxResult> r =
        client_retry ? ExecuteWithClientRetry(svc, session, sub)
                     : svc.Execute(session, sub);
    latencies.push_back(timer.Millis());
    if (r.ok()) {
      ++out.ok;
      const obs::ExecutionProfile& p = r.value().profile;
      if (p.degradation_rung == 0) {
        ++out.rung0;
        if (p.retry_count > 0) ++out.retried;
      } else {
        ++out.degraded;
      }
    } else if (r.status().code() == StatusCode::kResourceExhausted) {
      ++out.rejected;
    } else {
      ++out.failed;
    }
  }
  out.p99_ms = PercentileMs(latencies, 0.99);
  return out;
}

void AddGoodputRow(bench::TablePrinter& out, const char* phase, int queries,
                   const PhaseOutcome& r) {
  out.AddRow({phase, std::to_string(queries), std::to_string(r.ok),
              std::to_string(r.rung0), std::to_string(r.retried),
              std::to_string(r.degraded), std::to_string(r.rejected),
              std::to_string(r.failed), bench::FmtPct(r.goodput(queries)),
              bench::Fmt(r.p99_ms, 2)});
}

/// Polls `pred` every 5 ms until it holds or `timeout_ms` passes.
template <typename Pred>
bool WaitFor(Pred pred, int64_t timeout_ms) {
  auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

void Run() {
  const size_t rows = TableRows();
  const int queries = QueriesPerPhase();
  bench::Banner(
      "E18: self-healing service under chaos (watchdog + retry + breakers)",
      "Protected goodput must hold >= 90% of fault-free under 5% faults "
      "while the unprotected tier collapses; a hung query's slot must be "
      "reclaimed within deadline + grace with nothing leaked.");
  std::printf("table rows: %zu, queries/phase: %d, hardware threads: %zu\n",
              rows, queries, HardwareThreads());

  Catalog cat = MakeCatalog(rows);
  // The hung phase parks one query on a pool worker for 1.5 s; later
  // submissions need workers of their own.
  ThreadPool::Shared().EnsureAtLeast(8);

  // --- Phases A/B/C: goodput under chaos, unprotected vs protected. -------
  bench::TablePrinter goodput_out({"phase", "queries", "ok", "rung0",
                                   "retried", "degraded", "rejected",
                                   "failed", "goodput", "p99 ms"});

  PhaseOutcome base;
  {
    gov::ScopedFaultInjection quiet;  // Fault-free baseline.
    service::QueryService svc(&cat, BaseOptions());
    base = RunGoodputPhase(svc, queries, /*client_retry=*/true);
  }
  AddGoodputRow(goodput_out, "fault-free", queries, base);

  PhaseOutcome unprotected;
  {
    gov::ScopedFaultInjection arm(kChaosSeed, kChaosP);
    service::QueryService svc(&cat, UnprotectedOptions());
    unprotected = RunGoodputPhase(svc, queries, /*client_retry=*/false);
  }
  AddGoodputRow(goodput_out, "faults-unprotected", queries, unprotected);

  PhaseOutcome protected_run;
  {
    // Same seed, fresh schedule (the scoped arm resets counters): the
    // protections face the same adversary the unprotected tier faced.
    gov::ScopedFaultInjection arm(kChaosSeed, kChaosP);
    service::QueryService svc(&cat, BaseOptions());
    protected_run = RunGoodputPhase(svc, queries, /*client_retry=*/true);
  }
  AddGoodputRow(goodput_out, "faults-protected", queries, protected_run);
  goodput_out.Print();

  AQP_CHECK(base.goodput(queries) >= 0.95)
      << "fault-free baseline goodput only "
      << base.goodput(queries) * 100.0 << "%";
  AQP_CHECK(unprotected.goodput(queries) < 0.9 * base.goodput(queries))
      << "unprotected goodput " << unprotected.goodput(queries) * 100.0
      << "% did not collapse vs baseline "
      << base.goodput(queries) * 100.0 << "%";
  AQP_CHECK(protected_run.goodput(queries) >= 0.9 * base.goodput(queries))
      << "protected goodput " << protected_run.goodput(queries) * 100.0
      << "% below 90% of baseline " << base.goodput(queries) * 100.0 << "%";
  // Tail latency stays inside the contract: deadline + watchdog grace, plus
  // scheduling slack for loaded CI machines.
  AQP_CHECK(protected_run.p99_ms <=
            static_cast<double>(kChaosDeadlineMs + kChaosGraceMs) + 1000.0)
      << "protected p99 " << protected_run.p99_ms << "ms broke the bound";

  // --- Phase D: hung-query reclaim. ---------------------------------------
  // First column is a stable label: bench_compare keys rows on it, and the
  // wall-clock declare time would make the row key differ every run.
  bench::TablePrinter hung_out({"case", "declare ms", "bound ms", "hung",
                                "reclaimed", "completed late",
                                "inflight after", "leaked slots"});
  {
    gov::ScopedFaultInjection quiet;
    service::ServiceOptions o = BaseOptions();
    o.admission.max_inflight = 1;  // One slot: a leak would be total outage.
    o.admission.max_queue = 4;
    o.admission.queue_timeout_ms = 4000;
    o.watchdog.grace_ms = kHungGraceMs;
    service::QueryService svc(&cat, o);
    auto session = svc.OpenSession();

    gov::FaultInjector::Global().ArmHang("engine.scan", kHangMs, /*count=*/1);
    bench::WallTimer hang_timer;
    service::Submission hung{ChaosSql(7)};
    hung.deadline_ms = kHungDeadlineMs;
    std::future<Result<core::ApproxResult>> hung_future =
        svc.Submit(session, hung);

    // The watchdog must declare the query hung and reclaim its slot while
    // the morsel is still stalled — well before the hang's own end.
    AQP_CHECK(WaitFor([&] { return svc.watchdog().stats().hung >= 1; },
                      kHangMs - 200))
        << "watchdog never declared the stalled query hung";
    const double declare_ms = hang_timer.Millis();
    const double bound_ms =
        static_cast<double>(kHungDeadlineMs + kHungGraceMs) + 500.0;
    AQP_CHECK(declare_ms <= bound_ms)
        << "hung declaration took " << declare_ms << "ms, bound " << bound_ms;
    AQP_CHECK(svc.watchdog().stats().reclaimed_slots == 1)
        << "slot not reclaimed";

    // The reclaimed slot is immediately usable: with max_inflight = 1 this
    // query can only be admitted because the watchdog freed the hung one's.
    service::Submission follow_up{ChaosSql(8)};
    follow_up.deadline_ms = 5000;
    auto r = svc.Execute(session, follow_up);
    AQP_CHECK(r.ok()) << "follow-up on reclaimed slot failed: "
                      << r.status().ToString();

    AQP_CHECK(hung_future.wait_for(std::chrono::seconds(10)) ==
              std::future_status::ready)
        << "hung query never returned";
    (void)hung_future.get();  // Outcome (degraded/failed) is not the point.

    service::ServiceStatsSnapshot snap = svc.StatsSnapshot();
    AQP_CHECK(snap.watchdog.completed_late == 1);
    AQP_CHECK(snap.admission.inflight == 0)
        << snap.admission.inflight << " admission slots leaked";
    AQP_CHECK(snap.outstanding == 0);
    AQP_CHECK(snap.admission.admitted == 2);
    hung_out.AddRow({"hung scan, 1 slot", bench::Fmt(declare_ms, 1),
                     bench::Fmt(bound_ms, 0),
                     std::to_string(snap.watchdog.hung),
                     std::to_string(snap.watchdog.reclaimed_slots),
                     std::to_string(snap.watchdog.completed_late),
                     std::to_string(snap.admission.inflight),
                     std::to_string(snap.outstanding)});
  }
  std::printf("\n");
  hung_out.Print();

  // --- Phase E: breaker trip under a persistent fault. --------------------
  bench::TablePrinter breaker_out({"queries", "failed", "trips", "denials",
                                   "open circuits", "fast-fail hint s"});
  {
    gov::ScopedFaultInjection arm(52, 1.0, {"engine.scan"});
    service::ServiceOptions o = BaseOptions();
    o.gov.retry.max_attempts = 0;  // Retry cannot save a persistent fault.
    o.breaker.window = 8;
    o.breaker.min_samples = 4;
    const int64_t open_ms = 60000;
    o.breaker.open_ms = open_ms;  // Stays open for the whole phase.
    service::QueryService svc(&cat, o);
    auto session = svc.OpenSession();
    uint64_t failed = 0;
    for (int q = 0; q < 12; ++q) {
      if (!svc.Execute(session, {ChaosSql(q)}).ok()) ++failed;
    }
    service::BreakerStats b = svc.circuit_breaker().stats();
    AQP_CHECK(b.trips >= 1) << "no circuit tripped under a 100% fault";
    AQP_CHECK(b.denials >= 1) << "open circuit never denied a rung";
    AQP_CHECK(b.open_circuits >= 1);

    // With every scanning rung's circuit open, the tier fast-fails with a
    // parseable retry-after hint instead of burning the deadline. The hint
    // is the cooldown's remainder in milliseconds, so the table prints its
    // whole-second ceiling, which does not move as milliseconds pass.
    auto last = svc.Execute(session, {ChaosSql(60)});
    AQP_CHECK(!last.ok());
    int64_t hint = service::RetryAfterMsFromStatus(last.status());
    AQP_CHECK(hint > 0 && hint <= open_ms)
        << "fast-fail hint outside (0, open_ms]: "
        << last.status().ToString();
    breaker_out.AddRow({"12", std::to_string(failed), std::to_string(b.trips),
                        std::to_string(b.denials),
                        std::to_string(b.open_circuits),
                        std::to_string((hint + 999) / 1000)});
  }
  std::printf("\n");
  breaker_out.Print();

  // --- Phase F: every NEW chaos site provably fires. ----------------------
  bench::TablePrinter sites_out({"site", "evaluated", "injected", "effect"});
  auto site_counters = [](const char* site) {
    return gov::FaultInjector::Global().SiteCountersSnapshot()[site];
  };
  auto coverage_options = [] {
    service::ServiceOptions o = BaseOptions();
    o.gov.retry.max_attempts = 0;  // Targeted p=1.0: retry would only stall.
    o.synopsis_min_table_rows = 1000;  // CI-sized tables still build.
    return o;
  };

  {
    gov::ScopedFaultInjection arm(71, 1.0, {"service.admit"});
    service::QueryService svc(&cat, coverage_options());
    auto session = svc.OpenSession();
    auto r = svc.Execute(session, {ChaosSql(0)});
    AQP_CHECK(!r.ok() &&
              r.status().code() == StatusCode::kResourceExhausted)
        << "admit fault did not reject as overload";
    AQP_CHECK(service::RetryAfterMsFromStatus(r.status()) > 0);
    gov::FaultSiteCounters c = site_counters("service.admit");
    AQP_CHECK(c.injected >= 1);
    sites_out.AddRow({"service.admit", std::to_string(c.evaluated),
                      std::to_string(c.injected),
                      "rejected as overload with retry-after hint"});
  }
  {
    gov::ScopedFaultInjection arm(72, 1.0, {"synopsis.build"});
    service::QueryService svc(&cat, coverage_options());
    auto session = svc.OpenSession();
    auto r = svc.Execute(session, {ChaosSql(1)});
    AQP_CHECK(r.ok()) << "rung 0 must survive a synopsis build fault: "
                      << r.status().ToString();
    AQP_CHECK(r.value().profile.degradation_rung == 0);
    gov::FaultSiteCounters c = site_counters("synopsis.build");
    AQP_CHECK(c.injected >= 1) << "synopsis.build never evaluated";
    sites_out.AddRow({"synopsis.build", std::to_string(c.evaluated),
                      std::to_string(c.injected),
                      "build failed; rung 0 answered anyway"});
  }
  {
    gov::ScopedFaultInjection arm(73, 1.0, {"result_cache.insert"});
    service::QueryService svc(&cat, coverage_options());
    auto session = svc.OpenSession();
    auto r = svc.Execute(session, {ChaosSql(2)});
    AQP_CHECK(r.ok());
    AQP_CHECK(svc.result_cache_stats().insert_faults >= 1)
        << "insert fault not counted";
    gov::FaultSiteCounters c = site_counters("result_cache.insert");
    AQP_CHECK(c.injected >= 1);
    sites_out.AddRow({"result_cache.insert", std::to_string(c.evaluated),
                      std::to_string(c.injected),
                      "insert skipped; answer still served"});
  }
  {
    gov::ScopedFaultInjection arm(74, 1.0, {"drift.sweep"});
    service::ServiceOptions o = coverage_options();
    o.drift.enabled = true;
    o.drift.period_ms = 0;  // Manual sweeps only.
    service::QueryService svc(&cat, o);
    auto session = svc.OpenSession();
    // The query builds the synopsis (and its drift baseline)...
    AQP_CHECK(svc.Execute(session, {ChaosSql(3)}).ok());
    // ...which the sweep then fails to rescan.
    svc.drift_monitor().CheckNow();
    gov::FaultSiteCounters c = site_counters("drift.sweep");
    AQP_CHECK(c.injected >= 1) << "drift.sweep never evaluated";
    AQP_CHECK(svc.StatsSnapshot().drift.failed >= 1)
        << "failed rescan not counted";
    sites_out.AddRow({"drift.sweep", std::to_string(c.evaluated),
                      std::to_string(c.injected),
                      "rescan abandoned; counted, retried next sweep"});
  }
  {
    gov::ScopedFaultInjection arm(75, 1.0, {"audit.reexec"});
    service::ServiceOptions o = coverage_options();
    o.audit.fraction = 1.0;  // Audit every answer.
    service::QueryService svc(&cat, o);
    auto session = svc.OpenSession();
    // A broad predicate (98% selectivity) keeps the required sample rate
    // well under max_rate, so the answer is genuinely approximate — only
    // approximate answers (with CIs) are eligible for auditing.
    auto probe = svc.Execute(session, {ChaosSql(97)});
    AQP_CHECK(probe.ok());
    AQP_CHECK(probe.value().approximated)
        << "audit probe must run an approximate query";
    svc.auditor().Drain();
    gov::FaultSiteCounters c = site_counters("audit.reexec");
    AQP_CHECK(c.injected >= 1) << "audit.reexec never evaluated";
    AQP_CHECK(svc.StatsSnapshot().audit.failed >= 1)
        << "failed audit not counted";
    sites_out.AddRow({"audit.reexec", std::to_string(c.evaluated),
                      std::to_string(c.injected),
                      "ground-truth run abandoned; counted"});
  }
  std::printf("\n");
  sites_out.Print();

  bench::BenchJson json("e18_resilience");
  json.SetSize("rows", rows);
  json.SetSize("queries", static_cast<uint64_t>(queries));
  json.AddTable("goodput", goodput_out);
  json.AddTable("hung", hung_out);
  json.AddTable("breaker", breaker_out);
  json.AddTable("sites", sites_out);
  json.Write();

  std::printf(
      "\nShape check: goodput fault-free %.1f%%, unprotected %.1f%%, "
      "protected %.1f%% (floor %.1f%%); protected p99 %.1fms <= %lldms.\n",
      base.goodput(queries) * 100.0, unprotected.goodput(queries) * 100.0,
      protected_run.goodput(queries) * 100.0,
      0.9 * base.goodput(queries) * 100.0, protected_run.p99_ms,
      static_cast<long long>(kChaosDeadlineMs + kChaosGraceMs) + 1000ll);
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
