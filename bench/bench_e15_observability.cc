// E15 — accuracy observability: what does watching the system cost, and is
// the system's central promise (CI coverage) empirically honest in serving?
//
// Claim (survey §error guarantees + §adoption): an AQP serving tier is only
// trustworthy if (a) its observability layer — submit-scoped trace, always-on
// structured query log — costs almost nothing on the hot path, (b) a
// background auditor that re-executes sampled answers exactly observes
// empirical CI coverage near nominal, and (c) that auditor never steals
// foreground capacity.
//
// Asserted here: query log + tracing overhead <= 5% on the warm (result
// cache) E14-style p50; empirical coverage over >= 200 audited single-
// aggregate 95% CIs lands in [90%, 99%]; and the E14 overload refusal bound
// holds unchanged with auditing enabled at 10% sampling.
//
// Env: AQP_E15_ROWS overrides the table size (CI smoke uses a small table).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

constexpr size_t kOverheadSessions = 4;
constexpr int kQueriesPerSession = 8;
constexpr int kWarmRounds = 6;  // Warm-phase repetitions per window.
constexpr int kOverheadWindows = 5;  // Alternating off/on windows per mode.

size_t TableRows() {
  return bench::EnvSize("AQP_E15_ROWS", 400000);
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

service::ServiceOptions Options() {
  service::ServiceOptions o;
  o.gov.aqp.pilot_rate = 0.02;
  o.gov.aqp.min_table_rows = 1000;
  o.gov.aqp.max_rate = 0.8;
  o.synopsis_min_table_rows = 10000;
  o.synopsis_rows = 5000;
  o.admission.max_inflight = 8;
  o.admission.max_queue = 64;
  o.admission.queue_timeout_ms = 30000;
  return o;
}

std::string QuerySql(size_t session, int query) {
  return "SELECT SUM(x) AS s, COUNT(*) AS n FROM t WHERE k < " +
         std::to_string(10 + session * kQueriesPerSession + query) +
         " WITH ERROR 5% CONFIDENCE 95%";
}

double PercentileMs(std::vector<double> ms, double q) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(ms.size() - 1));
  return ms[idx];
}

// One E14-style phase: `sessions` threads each submit their queries back to
// back; per-query latencies are returned flat.
std::vector<double> RunPhase(service::QueryService& svc, size_t sessions) {
  std::vector<std::vector<double>> latencies(sessions);
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = svc.OpenSession();
      for (int q = 0; q < kQueriesPerSession; ++q) {
        bench::WallTimer timer;
        auto r = svc.Execute(session, {QuerySql(s, q)});
        latencies[s].push_back(timer.Millis());
        AQP_CHECK(r.ok()) << r.status().ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const auto& per_session : latencies) {
    all.insert(all.end(), per_session.begin(), per_session.end());
  }
  return all;
}

// Warm p50 over kWarmRounds phases (the cache is fully warm after the first
// cold phase, so every measured query is a result-cache hit).
double WarmP50(service::QueryService& svc) {
  std::vector<double> warm;
  for (int round = 0; round < kWarmRounds; ++round) {
    std::vector<double> phase = RunPhase(svc, kOverheadSessions);
    warm.insert(warm.end(), phase.begin(), phase.end());
  }
  return PercentileMs(std::move(warm), 0.50);
}

void Run() {
  const size_t rows = TableRows();
  bench::Banner(
      "E15: accuracy observability (trace + query log + background auditor)",
      "Observability must cost <= 5% on the warm serving path; audited CI "
      "coverage must be empirically near nominal; the auditor must never "
      "block foreground admission.");
  std::printf("table rows: %zu, hardware threads: %zu\n\n", rows,
              HardwareThreads());

  Catalog cat = MakeCatalog(rows);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const bool obs_was_enabled = reg.enabled();

  // ---- Phase 1: observability overhead on the warm E14 path --------------
  // Baseline: observability off — no submit trace, no spans, the query log
  // ring only. Loaded: observability on AND the query log writing JSONL to
  // a file sink. Each mode keeps its own service, warmed alike, so the only
  // difference is the instrumentation itself.
  service::ServiceOptions base_opts = Options();
  service::QueryService svc(&cat, base_opts);
  reg.set_enabled(false);
  (void)RunPhase(svc, kOverheadSessions);  // Cold fill, not measured.

  service::ServiceOptions loaded_opts = Options();
  loaded_opts.query_log.sink_path = "e15_query_log.jsonl";
  std::remove(loaded_opts.query_log.sink_path.c_str());
  service::QueryService traced_svc(&cat, loaded_opts);
  reg.set_enabled(true);
  (void)RunPhase(traced_svc, kOverheadSessions);  // Cold fill, not measured.

  // Alternating off/on windows, so a slow stretch of the host lands on both
  // modes rather than on one; each mode's p50 is the median of its windows.
  std::vector<double> off_windows;
  std::vector<double> on_windows;
  for (int w = 0; w < kOverheadWindows; ++w) {
    reg.set_enabled(false);
    off_windows.push_back(WarmP50(svc));
    reg.set_enabled(true);
    on_windows.push_back(WarmP50(traced_svc));
  }
  double p50_off = PercentileMs(off_windows, 0.50);
  double p50_on = PercentileMs(on_windows, 0.50);

  double overhead = p50_off > 0.0 ? (p50_on - p50_off) / p50_off : 0.0;
  bench::TablePrinter overhead_out(
      {"mode", "warm p50 ms", "overhead"});
  overhead_out.AddRow({"obs off, ring log", bench::Fmt(p50_off, 4), "-"});
  overhead_out.AddRow({"obs on, JSONL log", bench::Fmt(p50_on, 4),
                       bench::FmtPct(overhead)});
  overhead_out.Print();

  // <= 5% relative, with a 20us absolute floor: a warm cache hit completes
  // in single-digit microseconds, where one span-tree allocation is already
  // a double-digit percentage. The floor is the absolute budget the whole
  // instrumentation stack (trace + ring append + sink enqueue) must fit in;
  // on a realistically-loaded path the relative bound is the binding one.
  AQP_CHECK(p50_on <= p50_off * 1.05 + 0.02)
      << "observability overhead too high: " << p50_off << "ms -> " << p50_on
      << "ms";

  // ---- Phase 2: audited empirical CI coverage ----------------------------
  // Single-aggregate queries so the Boole allocation leaves each cell at
  // exactly the nominal 95% (multi-estimate queries run their cells at
  // HIGHER per-cell confidence, which would bias coverage upward). Every
  // answer is audited (fraction 1); 20 independent seeds x 12 distinct
  // queries = 240 audited cells. [90%, 99%] is the +-3-sigma band of
  // tests/stats/coverage_test.cc.
  const char* kCoverageAggs[] = {"SUM(x)", "AVG(x)", "COUNT(*)"};
  const int kCoveragePreds[] = {25, 50, 75, 100};
  uint64_t audited = 0, cells = 0, covered = 0, audit_failed = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    service::ServiceOptions aopts = Options();
    aopts.gov.aqp.seed = seed * 977;
    aopts.use_result_cache = false;  // Every submission really executes.
    aopts.audit.fraction = 1.0;
    service::QueryService audit_svc(&cat, aopts);
    auto session = audit_svc.OpenSession();
    for (const char* agg : kCoverageAggs) {
      for (int pred : kCoveragePreds) {
        std::string sql = std::string("SELECT ") + agg +
                          " AS v FROM t WHERE k < " + std::to_string(pred) +
                          " WITH ERROR 5% CONFIDENCE 95%";
        auto r = audit_svc.Execute(session, {sql});
        AQP_CHECK(r.ok()) << r.status().ToString();
      }
    }
    audit_svc.auditor().Drain();
    service::AuditorStats st = audit_svc.auditor().stats();
    audited += st.audited;
    cells += st.cells;
    covered += st.covered;
    audit_failed += st.failed;
  }
  double coverage = cells > 0 ? static_cast<double>(covered) / cells : 0.0;
  bench::TablePrinter coverage_out(
      {"audited queries", "audit failures", "CI cells", "covered",
       "empirical coverage", "nominal"});
  coverage_out.AddRow({std::to_string(audited), std::to_string(audit_failed),
                       std::to_string(cells), std::to_string(covered),
                       bench::FmtPct(coverage), "95.00%"});
  std::printf("\n");
  coverage_out.Print();

  AQP_CHECK(audited >= 200) << "only " << audited << " audited queries";
  AQP_CHECK(coverage >= 0.90 && coverage <= 0.99)
      << "empirical coverage " << coverage << " outside [0.90, 0.99]";

  // ---- Phase 3: the auditor never blocks foreground ----------------------
  // E14's overload subtest, with auditing on at 10%: a saturated 1-slot
  // service must still refuse within the admission timeout plus scheduling
  // slack. The auditor's ground-truth re-executions (single-threaded, own
  // thread) must not change that bound.
  service::ServiceOptions tight = Options();
  tight.admission.max_inflight = 1;
  tight.admission.max_queue = 1;
  tight.admission.queue_timeout_ms = 50;
  tight.use_result_cache = false;
  tight.audit.fraction = 0.10;
  service::QueryService overloaded(&cat, tight);

  constexpr size_t kOverloadThreads = 8;
  constexpr int kOverloadPerThread = 8;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<double> reject_ms_by_thread[kOverloadThreads];
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kOverloadThreads; ++t) {
      threads.emplace_back([&, t] {
        auto session = overloaded.OpenSession();
        for (int i = 0; i < kOverloadPerThread; ++i) {
          bench::WallTimer timer;
          auto r = overloaded.Execute(session, {QuerySql(t, i)});
          double ms = timer.Millis();
          if (r.ok()) {
            accepted.fetch_add(1);
          } else {
            AQP_CHECK(r.status().code() == StatusCode::kResourceExhausted)
                << r.status().ToString();
            rejected.fetch_add(1);
            reject_ms_by_thread[t].push_back(ms);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  double max_reject_ms = 0.0;
  for (const auto& per_thread : reject_ms_by_thread) {
    for (double ms : per_thread) max_reject_ms = std::max(max_reject_ms, ms);
  }
  service::AuditorStats audit_under_load = overloaded.auditor().stats();
  bench::TablePrinter overload_out(
      {"submitted", "accepted", "rejected", "max reject ms",
       "audits sampled", "audits dropped"});
  overload_out.AddRow(
      {std::to_string(kOverloadThreads * kOverloadPerThread),
       std::to_string(accepted.load()), std::to_string(rejected.load()),
       bench::Fmt(max_reject_ms, 2),
       std::to_string(audit_under_load.sampled),
       std::to_string(audit_under_load.dropped)});
  std::printf("\n");
  overload_out.Print();

  AQP_CHECK(accepted.load() + rejected.load() ==
            kOverloadThreads * kOverloadPerThread);
  AQP_CHECK(rejected.load() > 0)
      << "a 1-slot service hammered by 8 threads must refuse someone";
  AQP_CHECK(max_reject_ms <
            static_cast<double>(tight.admission.queue_timeout_ms) + 1500.0)
      << "rejection took " << max_reject_ms
      << "ms with auditing enabled — the auditor is blocking foreground";

  reg.set_enabled(obs_was_enabled);

  bench::BenchJson json("e15_observability");
  json.SetSize("rows", rows);
  json.AddTable("overhead", overhead_out);
  json.AddTable("coverage", coverage_out);
  json.AddTable("overload_with_audit", overload_out);
  json.Write();

  std::printf(
      "\nShape check: warm p50 %.4fms -> %.4fms (%.2f%% overhead); coverage "
      "%llu/%llu = %.2f%% over %llu audits; slowest refusal %.1fms with 10%% "
      "auditing.\n",
      p50_off, p50_on, overhead * 100.0,
      static_cast<unsigned long long>(covered),
      static_cast<unsigned long long>(cells), coverage * 100.0,
      static_cast<unsigned long long>(audited), max_reject_ms);
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
