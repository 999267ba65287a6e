// E14 — concurrent query service: admission control + cross-query caches
// under multi-session load.
//
// Claim (survey §interactivity + §precomputation economics): a serving tier
// in front of the governed executor must (a) keep answering under
// concurrency, (b) amortize work across queries — a warm result cache
// answers identical submissions orders of magnitude faster than cold
// execution — and (c) refuse overload FAST (bounded admission) instead of
// queueing without bound.
//
// Asserted here: at the highest session count the warm-cache p50 beats the
// cold p50, every submission completes (answer or refusal), and overload
// rejections return within the admission timeout plus scheduling slack.
//
// Env: AQP_E14_ROWS overrides the table size (CI's TSan smoke uses a small
// table; the default is sized for a laptop-class run).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "service/query_service.h"
#include "sql/binder.h"
#include "support/row_reference.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

constexpr int kQueriesPerSession = 8;
const size_t kSessions[] = {1, 2, 4, 8};

size_t TableRows() {
  return bench::EnvSize("AQP_E14_ROWS", 400000);
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

// Distinct predicate per (session, query): the cold phase is honestly cold —
// no submission repeats another's fingerprint within a phase.
std::string QuerySql(size_t session, int query) {
  return "SELECT SUM(x) AS s, COUNT(*) AS n FROM t WHERE k < " +
         std::to_string(10 + session * kQueriesPerSession + query) +
         " WITH ERROR 5% CONFIDENCE 95%";
}

// The engine-path subtest carries no error contract: it binds these to
// exact plans and times them directly — a compound filter over every row
// plus aggregates over the survivors, the work the batch kernels
// accelerate.
std::string EnginePathSql(size_t session, int query) {
  return "SELECT SUM(x) AS s, COUNT(*) AS n, AVG(x) AS a FROM t "
         "WHERE x BETWEEN 2.5 AND 7.5 AND k < " +
         std::to_string(25 + session * kQueriesPerSession + query);
}

double PercentileMs(std::vector<double> ms, double q) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(ms.size() - 1));
  return ms[idx];
}

struct PhaseResult {
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

// Runs `sessions` threads, each submitting its kQueriesPerSession queries
// back to back through one shared service.
PhaseResult RunPhase(service::QueryService& svc, size_t sessions,
                     std::string (*sql)(size_t, int) = QuerySql) {
  std::vector<std::vector<double>> latencies(sessions);
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> failed{0};
  bench::WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = svc.OpenSession();
      for (int q = 0; q < kQueriesPerSession; ++q) {
        bench::WallTimer timer;
        auto r = svc.Execute(session, {sql(s, q)});
        latencies[s].push_back(timer.Millis());
        if (r.ok()) {
          ok.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  result.wall_ms = wall.Millis();
  std::vector<double> all;
  for (const auto& per_session : latencies) {
    all.insert(all.end(), per_session.begin(), per_session.end());
  }
  result.p50_ms = PercentileMs(all, 0.50);
  result.p99_ms = PercentileMs(all, 0.99);
  result.ok = ok.load();
  result.failed = failed.load();
  return result;
}

void Run() {
  const size_t rows = TableRows();
  bench::Banner(
      "E14: concurrent query service (admission + cross-query caches)",
      "Warm result-cache p50 must beat cold p50 at max concurrency; "
      "overload must be refused within the admission timeout.");
  std::printf("table rows: %zu, hardware threads: %zu\n\n", rows,
              HardwareThreads());

  Catalog cat = MakeCatalog(rows);

  bench::TablePrinter out({"phase", "sessions", "queries", "wall ms", "qps",
                           "p50 ms", "p99 ms", "result cache hits",
                           "synopsis builds"});
  double cold_p50_at_max = 0.0;
  double warm_p50_at_max = 0.0;

  for (size_t sessions : kSessions) {
    // Fresh service per session count: each scale's cold phase is cold.
    service::QueryService svc(&cat, Options());

    PhaseResult cold = RunPhase(svc, sessions);
    uint64_t cold_hits = svc.result_cache_stats().hits;
    uint64_t builds = svc.synopsis_cache_stats().builds;
    AQP_CHECK(cold.failed == 0) << cold.failed << " cold queries failed";
    double n = static_cast<double>(cold.ok);
    out.AddRow({"cold", std::to_string(sessions),
                std::to_string(cold.ok), bench::Fmt(cold.wall_ms, 1),
                bench::Fmt(n / (cold.wall_ms / 1000.0), 1),
                bench::Fmt(cold.p50_ms, 2), bench::Fmt(cold.p99_ms, 2),
                std::to_string(cold_hits), std::to_string(builds)});

    // Warm: the same submissions again — every one is a result-cache hit.
    PhaseResult warm = RunPhase(svc, sessions);
    uint64_t warm_hits = svc.result_cache_stats().hits - cold_hits;
    AQP_CHECK(warm.failed == 0) << warm.failed << " warm queries failed";
    AQP_CHECK(warm_hits == warm.ok)
        << "warm phase expected all hits, got " << warm_hits << "/" << warm.ok;
    out.AddRow({"warm", std::to_string(sessions),
                std::to_string(warm.ok), bench::Fmt(warm.wall_ms, 1),
                bench::Fmt(static_cast<double>(warm.ok) /
                               (warm.wall_ms / 1000.0),
                           1),
                bench::Fmt(warm.p50_ms, 2), bench::Fmt(warm.p99_ms, 2),
                std::to_string(warm_hits),
                std::to_string(svc.synopsis_cache_stats().builds)});

    if (sessions == kSessions[std::size(kSessions) - 1]) {
      cold_p50_at_max = cold.p50_ms;
      warm_p50_at_max = warm.p50_ms;
    }
  }

  // --- Cold-path engine subtest: row-at-a-time oracle vs the engine. ---
  // The plans the engine-path queries bind to run through the row-at-a-time
  // oracle the differential suites use and through Execute, in kSpeedPasses
  // alternating passes; nothing is cached. Each side's speed is the median
  // of its passes' p50s, so one noisy window on a small host decides
  // nothing. At full table size the engine must hold a >= 5x cold p50
  // advantage — the constant-factor claim E16 measures per operator,
  // asserted here on whole queries. Tiny CI tables are dominated by fixed
  // costs, so the factor is only asserted at >= 200k rows.
  std::vector<PlanPtr> plans;
  for (int q = 0; q < kQueriesPerSession; ++q) {
    Result<sql::BoundQuery> bound = sql::BindSql(EnginePathSql(0, q), cat);
    AQP_CHECK(bound.ok()) << bound.status().ToString();
    plans.push_back(bound.value().plan);
  }
  auto time_plans = [&](auto&& run) {
    PhaseResult r;
    std::vector<double> ms;
    bench::WallTimer wall;
    for (const PlanPtr& plan : plans) {
      bench::WallTimer timer;
      const bool ok = run(plan).ok();
      ms.push_back(timer.Millis());
      ++(ok ? r.ok : r.failed);
    }
    r.wall_ms = wall.Millis();
    r.p50_ms = PercentileMs(ms, 0.50);
    r.p99_ms = PercentileMs(ms, 0.99);
    AQP_CHECK(r.failed == 0) << r.failed << " engine-path queries failed";
    return r;
  };
  constexpr int kSpeedPasses = 5;
  std::vector<PhaseResult> oracle_passes, engine_passes;
  for (int pass = 0; pass < kSpeedPasses; ++pass) {
    oracle_passes.push_back(time_plans([&](const PlanPtr& plan) {
      return testutil::ExecuteRowReference(plan, cat);
    }));
    engine_passes.push_back(time_plans(
        [&](const PlanPtr& plan) { return Execute(plan, cat); }));
  }
  // One table row per side: its median pass by p50.
  auto median_pass = [&](const char* phase,
                         std::vector<PhaseResult> passes) {
    std::sort(passes.begin(), passes.end(),
              [](const PhaseResult& a, const PhaseResult& b) {
                return a.p50_ms < b.p50_ms;
              });
    const PhaseResult& r = passes[passes.size() / 2];
    out.AddRow({phase, "1", std::to_string(r.ok), bench::Fmt(r.wall_ms, 1),
                bench::Fmt(static_cast<double>(r.ok) / (r.wall_ms / 1000.0),
                           1),
                bench::Fmt(r.p50_ms, 2), bench::Fmt(r.p99_ms, 2), "0", "-"});
    return r.p50_ms;
  };
  const double oracle_cold_p50 = median_pass("cold-row-oracle", oracle_passes);
  const double engine_cold_p50 = median_pass("cold-engine", engine_passes);
  out.Print();

  // The acceptance claim: at max concurrency, warm beats cold.
  AQP_CHECK(warm_p50_at_max < cold_p50_at_max)
      << "warm p50 " << warm_p50_at_max << "ms !< cold p50 "
      << cold_p50_at_max << "ms";

  std::printf(
      "\nengine cold p50, median of %d alternating passes: row oracle "
      "%.2fms, engine %.2fms (%.1fx)\n",
      kSpeedPasses, oracle_cold_p50, engine_cold_p50,
      engine_cold_p50 > 0.0 ? oracle_cold_p50 / engine_cold_p50 : 0.0);
  if (rows >= 200000) {
    AQP_CHECK(engine_cold_p50 * 5.0 <= oracle_cold_p50)
        << "engine cold p50 " << engine_cold_p50
        << "ms is not >=5x faster than the row oracle " << oracle_cold_p50
        << "ms";
  } else {
    AQP_CHECK(engine_cold_p50 <= oracle_cold_p50 * 1.5)
        << "engine cold p50 " << engine_cold_p50
        << "ms regressed vs the row oracle " << oracle_cold_p50 << "ms";
  }

  // --- Overload subtest: saturate a 1-slot service and demand fast "no". --
  service::ServiceOptions tight = Options();
  tight.admission.max_inflight = 1;
  tight.admission.max_queue = 1;
  tight.admission.queue_timeout_ms = 50;
  tight.use_result_cache = false;  // Keep every query genuinely slow.
  service::QueryService overloaded(&cat, tight);

  constexpr size_t kOverloadThreads = 8;
  constexpr int kOverloadPerThread = 4;
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
  auto stats = overloaded.admission_stats();
  bench::TablePrinter overload_out(
      {"submitted", "accepted", "rejected", "rejected queue-full",
       "rejected timeout", "max reject ms"});
  overload_out.AddRow(
      {std::to_string(kOverloadThreads * kOverloadPerThread),
       std::to_string(accepted.load()), std::to_string(rejected.load()),
       std::to_string(stats.rejected_queue_full),
       std::to_string(stats.rejected_timeout),
       bench::Fmt(max_reject_ms, 2)});
  std::printf("\n");
  overload_out.Print();

  AQP_CHECK(accepted.load() + rejected.load() ==
            kOverloadThreads * kOverloadPerThread);
  AQP_CHECK(rejected.load() > 0)
      << "a 1-slot service hammered by 8 threads must refuse someone";
  // Refusals must be bounded by the queue timeout plus generous scheduling
  // slack — an unbounded queue would blow far past this.
  AQP_CHECK(max_reject_ms <
            static_cast<double>(tight.admission.queue_timeout_ms) + 1500.0)
      << "rejection took " << max_reject_ms << "ms";

  bench::BenchJson json("e14_concurrent_service");
  json.SetSize("rows", rows);
  json.AddTable("main", out);
  json.AddTable("overload", overload_out);
  json.Write();

  std::printf(
      "\nShape check: warm p50 %.2fms < cold p50 %.2fms at %zu sessions; "
      "%llu overload rejections, slowest refusal %.1fms (timeout %lldms).\n",
      warm_p50_at_max, cold_p50_at_max, kSessions[std::size(kSessions) - 1],
      static_cast<unsigned long long>(rejected.load()), max_reject_ms,
      static_cast<long long>(tight.admission.queue_timeout_ms));
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
