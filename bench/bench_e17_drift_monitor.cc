// E17 — synopsis drift & staleness: does the background DriftMonitor close
// the silent-staleness hole, and what does watching for drift cost?
//
// Claim (survey §pre-computed samples + §error guarantees): cached offline
// synopses are version-keyed, so a table mutated IN PLACE (through a
// retained mutable handle — no catalog version bump) silently invalidates
// every cached sample while the cache keeps serving it. A serving tier that
// answers rung-1 queries from such a synopsis emits confidently-wrong CIs
// forever. The drift loop (baseline column statistics at build → background
// rescan → score → flag/invalidate) must restore honesty without operator
// action.
//
// Asserted here: with the monitor OFF, post-drift empirical CI coverage of
// rung-1 answers against CURRENT ground truth collapses below 90% (in
// practice near zero); with the monitor ON (one sweep between the drift and
// the query wave) coverage returns to the [90%, 99%] band of
// tests/stats/coverage_test.cc; the monitor's background sweeps cost <= 5%
// on the warm serving p50; and the drift verdict is visible end to end in
// both the JSON and the Prometheus metric exports.
//
// Env: AQP_E17_ROWS overrides the base table size (CI smoke uses a small
// table).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

constexpr uint64_t kCoverageSeeds = 20;
constexpr size_t kOverheadSessions = 4;
constexpr int kQueriesPerSession = 8;
constexpr int kWarmRounds = 6;
constexpr double kShift = 500.0;  // Appended measure offset: unmistakable.

const char* kAggs[] = {"SUM(x)", "AVG(x)", "COUNT(*)"};
const int kPreds[] = {2, 5, 8, 11};  // k is uniform over 0..11.

size_t TableRows() {
  return bench::EnvSize("AQP_E17_ROWS", 40000);
}

/// Base table: k uniform int over 0..11 (the predicate column), x
/// exponential (the measure). Returned as a MUTABLE handle so the bench can
/// append through it after registration — the catalog version never moves,
/// which is exactly the blind spot under test.
std::shared_ptr<Table> MakeHandle(size_t rows, uint64_t seed) {
  std::vector<workload::ColumnSpec> cols;
  workload::ColumnSpec key;
  key.name = "k";
  key.dist = workload::ColumnSpec::Dist::kUniformInt;
  key.min_value = 0;
  key.max_value = 11;
  cols.push_back(key);
  workload::ColumnSpec measure;
  measure.name = "x";
  measure.dist = workload::ColumnSpec::Dist::kExponential;
  cols.push_back(measure);
  Table t = workload::GenerateTable(cols, rows, seed).value();
  return std::make_shared<Table>(std::move(t));
}

/// In-place append of `n` rows whose measure sits `kShift` away from the
/// base distribution — silent drift, no version bump.
void AppendShifted(Table& table, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    AQP_CHECK(table
                  .AppendRow({Value(static_cast<int64_t>(i % 12)),
                              Value(kShift + static_cast<double>(i) * 0.001)})
                  .ok());
  }
}

/// Exact aggregate over the table's CURRENT rows — the truth a trustworthy
/// CI must cover no matter what snapshot the synopsis was built from.
double Truth(const Table& t, const std::string& agg, int pred) {
  const size_t ki = t.ColumnIndex("k").value();
  const size_t xi = t.ColumnIndex("x").value();
  double sum = 0.0;
  uint64_t n = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.column(ki).GetValue(r).AsDouble() >= pred) continue;
    ++n;
    if (!t.column(xi).IsNull(r)) sum += t.column(xi).GetValue(r).AsDouble();
  }
  if (agg == "SUM(x)") return sum;
  if (agg == "AVG(x)") return n > 0 ? sum / static_cast<double>(n) : 0.0;
  return static_cast<double>(n);  // COUNT(*)
}

std::string CoverageSql(const char* agg, int pred) {
  return std::string("SELECT ") + agg + " AS v FROM t WHERE k < " +
         std::to_string(pred) + " WITH ERROR 5% CONFIDENCE 95%";
}

/// Service options of the drift phases: every submission really executes
/// (no result cache), rung-1 CIs at nominal width (no blanket degraded
/// inflation — honesty must come from the drift loop, not padding), auditor
/// off so the only background actor is the one under test.
service::ServiceOptions DriftPhaseOptions(bool monitor_on, uint64_t seed) {
  service::ServiceOptions o;
  o.gov.aqp.seed = seed * 977;
  o.gov.degraded_ci_inflation = 1.0;
  o.synopsis_min_table_rows = 1000;
  o.synopsis_rows = 5000;
  o.use_result_cache = false;
  o.audit.fraction = 0.0;
  o.drift.enabled = monitor_on;
  o.drift.period_ms = 0;  // No thread: sweeps only via CheckNow (determinism).
  return o;
}

struct CoverageCounts {
  uint64_t cells = 0;
  uint64_t covered = 0;
  uint64_t rung1 = 0;
  double coverage() const {
    return cells > 0 ? static_cast<double>(covered) / cells : 0.0;
  }
};

/// One independent trial of the drift story: build the synopsis while the
/// data is fresh, drift the table in place, (optionally) let the monitor
/// sweep, then judge every rung-1 answer's CI against current truth.
CoverageCounts RunDriftTrial(bool monitor_on, uint64_t seed, size_t rows) {
  Catalog cat;
  std::shared_ptr<Table> handle = MakeHandle(rows, seed);
  AQP_CHECK(cat.Register("t", handle).ok());
  service::QueryService svc(&cat, DriftPhaseOptions(monitor_on, seed));
  auto session = svc.OpenSession();

  // Deadline 0 forces the degradation ladder: rung 0 is already expired, so
  // every answer comes from the cached synopsis (rung 1) — the serving mode
  // whose honesty is at stake.
  service::Submission warm(CoverageSql("SUM(x)", 11));
  warm.deadline_ms = 0;
  auto warm_r = svc.Execute(session, warm);
  AQP_CHECK(warm_r.ok()) << warm_r.status().ToString();
  AQP_CHECK(svc.synopsis_cache_stats().builds >= 1)
      << "warm query did not build a synopsis";

  // Silent drift: triple the table with a shifted measure, version untouched.
  AppendShifted(*handle, 2 * rows);

  if (monitor_on) {
    svc.drift_monitor().CheckNow();
    service::DriftMonitorStats ds = svc.drift_monitor().stats();
    AQP_CHECK(ds.invalidated >= 1)
        << "a 3x in-place shift by " << kShift
        << " must be a hard-drift verdict (score "
        << svc.drift_monitor().TableScore("t") << ")";
  }

  CoverageCounts counts;
  for (const char* agg : kAggs) {
    for (int pred : kPreds) {
      service::Submission sub(CoverageSql(agg, pred));
      sub.deadline_ms = 0;
      auto r = svc.Execute(session, sub);
      AQP_CHECK(r.ok()) << r.status().ToString();
      AQP_CHECK(r.value().profile.degradation_rung == 1)
          << "expected a rung-1 (offline synopsis) answer, got rung "
          << r.value().profile.degradation_rung;
      if (r.value().profile.degradation_rung == 1) ++counts.rung1;
      AQP_CHECK(!r.value().cis.empty() && !r.value().cis[0].empty());
      ++counts.cells;
      if (r.value().cis[0][0].Covers(Truth(*handle, agg, pred))) {
        ++counts.covered;
      }
    }
  }
  if (!monitor_on) {
    AQP_CHECK(svc.drift_monitor().stats().sweeps == 0);
  }
  return counts;
}

std::string WarmSql(size_t session, int query) {
  return "SELECT SUM(x) AS s, COUNT(*) AS n FROM t WHERE k < " +
         std::to_string(1 + static_cast<int>(
                                (session * kQueriesPerSession + query) % 11)) +
         " WITH ERROR 5% CONFIDENCE 95%";
}

double PercentileMs(std::vector<double> ms, double q) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(ms.size() - 1));
  return ms[idx];
}

std::vector<double> RunPhase(service::QueryService& svc, size_t sessions) {
  std::vector<std::vector<double>> latencies(sessions);
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = svc.OpenSession();
      for (int q = 0; q < kQueriesPerSession; ++q) {
        bench::WallTimer timer;
        auto r = svc.Execute(session, {WarmSql(s, q)});
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
      "E17: synopsis drift & staleness (baselines + background DriftMonitor)",
      "In-place mutation bypasses version-keyed caches; without the monitor "
      "rung-1 CI coverage of current truth must collapse, with it coverage "
      "must return to the nominal band, background sweeps must cost <= 5% on "
      "the warm p50, and the verdict must surface in both metric exports.");
  std::printf("base table rows: %zu (x3 after drift), hardware threads: %zu\n\n",
              rows, HardwareThreads());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const bool obs_was_enabled = reg.enabled();
  reg.set_enabled(false);  // Coverage phases measure statistics, not obs.

  // ---- Phase 1: coverage collapse (monitor off) vs restoration (on) ------
  // Same trial shape, kCoverageSeeds independent seeds each: single-
  // aggregate 95% CIs judged against the CURRENT table contents after a 3x
  // in-place append shifted by +500. Monitor-off answers keep coming from
  // the snapshot of the original rows; monitor-on runs one sweep whose
  // hard-drift verdict drops the table's synopses, so the query wave
  // rebuilds from current data and answers honestly.
  CoverageCounts off_counts, on_counts;
  for (uint64_t seed = 1; seed <= kCoverageSeeds; ++seed) {
    CoverageCounts off = RunDriftTrial(/*monitor_on=*/false, seed, rows);
    CoverageCounts on = RunDriftTrial(/*monitor_on=*/true, seed, rows);
    off_counts.cells += off.cells;
    off_counts.covered += off.covered;
    off_counts.rung1 += off.rung1;
    on_counts.cells += on.cells;
    on_counts.covered += on.covered;
    on_counts.rung1 += on.rung1;
  }
  bench::TablePrinter coverage_out({"mode", "rung-1 answers", "CI cells",
                                    "covered", "empirical coverage",
                                    "nominal"});
  coverage_out.AddRow({"monitor off (stale synopsis)",
                       std::to_string(off_counts.rung1),
                       std::to_string(off_counts.cells),
                       std::to_string(off_counts.covered),
                       bench::FmtPct(off_counts.coverage()), "95.00%"});
  coverage_out.AddRow({"monitor on (1 sweep)", std::to_string(on_counts.rung1),
                       std::to_string(on_counts.cells),
                       std::to_string(on_counts.covered),
                       bench::FmtPct(on_counts.coverage()), "95.00%"});
  coverage_out.Print();

  AQP_CHECK(off_counts.cells >= 200 && on_counts.cells >= 200);
  AQP_CHECK(off_counts.coverage() < 0.90)
      << "stale-synopsis coverage " << off_counts.coverage()
      << " — the staleness hole this experiment demonstrates did not open";
  AQP_CHECK(on_counts.coverage() >= 0.90 && on_counts.coverage() <= 0.99)
      << "monitored coverage " << on_counts.coverage()
      << " outside [0.90, 0.99]";

  // ---- Phase 2: background sweep overhead on the warm serving path -------
  // Identical services and workload except the monitor: off vs sweeping
  // every 20ms (rescans bounded by its own governed budget). The warm path
  // is result-cache hits, the most overhead-sensitive mode the service has.
  reg.set_enabled(true);
  Catalog overhead_cat;
  AQP_CHECK(overhead_cat.Register("t", MakeHandle(rows, 99)).ok());

  service::ServiceOptions off_opts;
  off_opts.synopsis_min_table_rows = 1000;
  off_opts.synopsis_rows = 5000;
  off_opts.audit.fraction = 0.0;
  service::QueryService off_svc(&overhead_cat, off_opts);
  (void)RunPhase(off_svc, kOverheadSessions);  // Cold fill, not measured.
  double p50_off = WarmP50(off_svc);

  service::ServiceOptions on_opts = off_opts;
  on_opts.drift.enabled = true;
  // A realistic duty cycle: each sweep rescans up to max_rows, so the period
  // must dwarf the rescan cost or the monitor degenerates into a second
  // foreground workload (on a 1-core box a 20ms period with ~10ms rescans
  // visibly doubles the warm p50 — that is saturation, not overhead).
  on_opts.drift.period_ms = 250;
  on_opts.drift.max_rows = 20000;  // Governed sweep cost on big tables.
  service::QueryService on_svc(&overhead_cat, on_opts);
  (void)RunPhase(on_svc, kOverheadSessions);  // Cold fill builds baselines.
  double p50_on = WarmP50(on_svc);
  // A warm phase can finish inside one 20ms period on a fast box; nudge the
  // worker (the same wake the service uses on version activity) and drain so
  // the sweep counters below describe a worker that demonstrably ran.
  on_svc.drift_monitor().NotifyVersionActivity();
  on_svc.drift_monitor().Drain();
  service::DriftMonitorStats sweep_stats = on_svc.drift_monitor().stats();

  double overhead = p50_off > 0.0 ? (p50_on - p50_off) / p50_off : 0.0;
  bench::TablePrinter overhead_out(
      {"mode", "warm p50 ms", "overhead", "sweeps", "checks"});
  overhead_out.AddRow(
      {"monitor off", bench::Fmt(p50_off, 4), "-", "0", "0"});
  overhead_out.AddRow({"monitor on, 250ms sweeps", bench::Fmt(p50_on, 4),
                       bench::FmtPct(overhead),
                       std::to_string(sweep_stats.sweeps),
                       std::to_string(sweep_stats.checks)});
  std::printf("\n");
  overhead_out.Print();

  AQP_CHECK(sweep_stats.sweeps >= 1)
      << "the background worker never swept — the overhead row is vacuous";
  // <= 5% relative with the same 20us absolute floor as E15: a warm
  // result-cache hit completes in microseconds, where any fixed cost is a
  // large percentage; the floor is the absolute budget the monitor's
  // foreground footprint (shared-catalog reads, stats mirroring) must fit in.
  AQP_CHECK(p50_on <= p50_off * 1.05 + 0.02)
      << "drift monitoring overhead too high: " << p50_off << "ms -> "
      << p50_on << "ms";

  // ---- Phase 3: the verdict is visible end to end ------------------------
  // One more rig, observability on: after a hard-drift sweep the per-table
  // gauges must appear in BOTH exports and the service mirror must carry
  // the monitor counters. This is the operator-facing contract: drift is
  // not an internal whisper, it is on the dashboard.
  Catalog export_cat;
  std::shared_ptr<Table> export_handle = MakeHandle(rows, 7);
  AQP_CHECK(export_cat.Register("t", export_handle).ok());
  service::QueryService export_svc(&export_cat,
                                   DriftPhaseOptions(/*monitor_on=*/true, 7));
  auto export_session = export_svc.OpenSession();
  service::Submission export_warm(CoverageSql("SUM(x)", 11));
  export_warm.deadline_ms = 0;
  AQP_CHECK(export_svc.Execute(export_session, export_warm).ok());
  AppendShifted(*export_handle, 2 * rows);
  export_svc.drift_monitor().CheckNow();
  export_svc.PublishStats();

  std::string json = obs::ExportJson(reg);
  std::string prom = obs::ExportPrometheus(reg);
  bench::TablePrinter export_out({"surface", "drift gauge present"});
  auto present = [](bool b) { return std::string(b ? "yes" : "no"); };
  const bool json_score =
      json.find("synopsis.drift.score_ratio{table=") != std::string::npos;
  const bool json_staleness =
      json.find("synopsis.staleness_seconds{table=") != std::string::npos;
  const bool prom_score =
      prom.find("synopsis_drift_score_ratio{table=\"t\"}") !=
      std::string::npos;
  const bool prom_type =
      prom.find("# TYPE synopsis_drift_score_ratio gauge") !=
      std::string::npos;
  const bool prom_mirror =
      prom.find("service_drift_invalidated") != std::string::npos;
  export_out.AddRow({"ExportJson score gauge", present(json_score)});
  export_out.AddRow({"ExportJson staleness gauge", present(json_staleness)});
  export_out.AddRow({"ExportPrometheus labeled sample", present(prom_score)});
  export_out.AddRow({"ExportPrometheus TYPE line", present(prom_type)});
  export_out.AddRow({"ExportPrometheus service mirror", present(prom_mirror)});
  std::printf("\n");
  export_out.Print();

  AQP_CHECK(json_score && json_staleness)
      << "drift gauges missing from the JSON export";
  AQP_CHECK(prom_score && prom_type)
      << "drift gauges missing from the Prometheus export";
  AQP_CHECK(prom_mirror)
      << "service-level drift counters missing from the Prometheus export";

  reg.set_enabled(obs_was_enabled);

  bench::BenchJson out("e17_drift_monitor");
  out.SetSize("rows", rows);
  out.AddTable("coverage", coverage_out);
  out.AddTable("overhead", overhead_out);
  out.AddTable("exports", export_out);
  out.Write();

  std::printf(
      "\nShape check: stale coverage %.2f%% -> monitored %.2f%% over %llu "
      "cells each; warm p50 %.4fms -> %.4fms (%.2f%%) with %llu background "
      "sweeps; drift gauges present in both exports.\n",
      off_counts.coverage() * 100.0, on_counts.coverage() * 100.0,
      static_cast<unsigned long long>(on_counts.cells), p50_off, p50_on,
      overhead * 100.0, static_cast<unsigned long long>(sweep_stats.sweeps));
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
