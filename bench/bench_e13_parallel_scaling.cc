// E13 — morsel-driven parallel scaling: speedup vs thread count for the
// three scan flavors AQP cares about (exact full scan, uniform Bernoulli
// sample, stratified sample). The determinism contract means every thread
// count returns bit-identical answers, so the only thing allowed to change
// down a column is the latency.
//
// Claim (survey §interactive latency + PR 2 acceptance): query-time sampling
// competes with pre-computed synopses only when the scan itself is cheap;
// with 4 threads the exact full-scan and sampled aggregate paths should run
// >= 2.5x faster than num_threads=1.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/estimate.h"
#include "engine/executor.h"
#include "sampling/stratified.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

// SUM(x), estimated through the Sample entry with no group keys.
const std::vector<AggSpec> kSumX = {{AggKind::kSum, Col("x"), "s"}};

constexpr size_t kRows = 2000000;
constexpr int kReps = 3;
const size_t kThreads[] = {1, 2, 4, 8};

ExecOptions Opt(size_t threads) {
  ExecOptions opt;
  opt.num_threads = threads;
  return opt;
}

// Minimum-of-reps wall time plus the run's parallel counters and a result
// fingerprint (first aggregate cell) so drift across thread counts is loud.
struct PathTiming {
  double ms = 0.0;
  double fingerprint = 0.0;
  uint64_t morsels = 0;
  uint64_t steals = 0;
};

template <typename Fn>
PathTiming TimePath(Fn&& run) {
  PathTiming best;
  for (int rep = 0; rep < kReps; ++rep) {
    bench::WallTimer timer;
    PathTiming cur = run();
    cur.ms = timer.Millis();
    if (rep == 0 || cur.ms < best.ms) best = cur;
  }
  return best;
}

void Run() {
  bench::Banner(
      "E13: parallel scaling (exact scan, uniform sample, stratified sample)",
      "Latency should drop with threads while answers stay bit-identical; "
      "target >= 2.5x at 4 threads for exact-scan and sampled-agg paths.");

  // e1/e6-style dataset: group key + several exponential measures. The extra
  // measure columns are what real fact tables look like and let the
  // column-parallel gather spread across workers.
  Catalog cat;
  {
    std::vector<workload::ColumnSpec> cols;
    workload::ColumnSpec key;
    key.name = "k";
    key.dist = workload::ColumnSpec::Dist::kUniformInt;
    key.min_value = 0;
    key.max_value = 99;
    cols.push_back(key);
    for (int m = 0; m < 5; ++m) {
      workload::ColumnSpec measure;
      measure.name = m == 0 ? "x" : "y" + std::to_string(m);
      measure.dist = workload::ColumnSpec::Dist::kExponential;
      cols.push_back(measure);
    }
    Table t = workload::GenerateTable(cols, kRows, 5).value();
    AQP_CHECK(cat.Register("t", std::make_shared<Table>(std::move(t))).ok());
  }

  bench::TablePrinter out(
      {"path", "threads", "latency ms", "speedup", "morsels", "steals"});
  double exact_speedup4 = 0.0;
  double sampled_speedup4 = 0.0;

  auto add_path = [&](const char* name, auto&& run_at, double* speedup4) {
    double base_ms = 0.0;
    double base_fp = 0.0;
    for (size_t threads : kThreads) {
      PathTiming t = TimePath([&] { return run_at(threads); });
      if (threads == 1) {
        base_ms = t.ms;
        base_fp = t.fingerprint;
      } else {
        AQP_CHECK(t.fingerprint == base_fp)
            << name << " drifted at " << threads << " threads";
      }
      double speedup = base_ms / t.ms;
      if (threads == 4 && speedup4 != nullptr) *speedup4 = speedup;
      out.AddRow({name, std::to_string(threads), bench::Fmt(t.ms, 2),
                  bench::Fmt(speedup, 2) + "x", std::to_string(t.morsels),
                  std::to_string(t.steals)});
    }
  };

  // Exact full scan: pure morsel fold over every row.
  PlanPtr exact_plan = PlanNode::Aggregate(
      PlanNode::Scan("t"), {}, {},
      {{AggKind::kSum, Col("x"), "s"},
       {AggKind::kAvg, Col("x"), "a"},
       {AggKind::kVar, Col("x"), "v"},
       {AggKind::kCountStar, nullptr, "n"}});
  add_path(
      "exact full scan",
      [&](size_t threads) {
        ExecStats stats;
        Table r = Execute(exact_plan, cat, &stats, nullptr, Opt(threads))
                      .value();
        return PathTiming{0.0, r.column(0).DoubleAt(0),
                          stats.parallel.morsels, stats.parallel.steals};
      },
      &exact_speedup4);

  // Exact filtered scan: parallel predicate eval + gather + fold.
  PlanPtr filter_plan = PlanNode::Aggregate(
      PlanNode::Filter(PlanNode::Scan("t"),
                       Lt(Col("k"), Lit(int64_t{50}))),
      {}, {}, {{AggKind::kSum, Col("x"), "s"}});
  add_path(
      "exact filtered scan",
      [&](size_t threads) {
        ExecStats stats;
        Table r = Execute(filter_plan, cat, &stats, nullptr, Opt(threads))
                      .value();
        return PathTiming{0.0, r.column(0).DoubleAt(0),
                          stats.parallel.morsels, stats.parallel.steals};
      },
      nullptr);

  // Uniform-sample aggregate: per-morsel Bernoulli draws, parallel gather,
  // parallel fold — the query-time AQP hot path.
  SampleSpec spec{SampleSpec::Method::kBernoulliRow, 0.3, 7, 4096};
  PlanPtr sampled_plan = PlanNode::Aggregate(
      PlanNode::Scan("t", spec), {}, {},
      {{AggKind::kSum, Col("x"), "s"}, {AggKind::kCountStar, nullptr, "n"}});
  add_path(
      "uniform sample agg (30%)",
      [&](size_t threads) {
        ExecStats stats;
        Table r = Execute(sampled_plan, cat, &stats, nullptr, Opt(threads))
                      .value();
        return PathTiming{0.0, r.column(0).DoubleAt(0),
                          stats.parallel.morsels, stats.parallel.steals};
      },
      &sampled_speedup4);

  // Stratified sample build + HT estimate: stratification itself is serial
  // by design (identical drawn set for every thread count); the gather and
  // downstream estimate still benefit.
  add_path(
      "stratified sample (200k)",
      [&](size_t threads) {
        ParallelRunStats rs;
        StratifiedSampleResult s =
            StratifiedSample(*ReadTable(cat, "t").value(), "k", 200000,
                             Allocation::kProportional, 11, Opt(threads), &rs)
                .value();
        core::PointEstimate est =
            core::EstimateGroupedAggregates(s.sample, {}, kSumX)
                .value()
                .estimates[0][0];
        return PathTiming{0.0, est.estimate, rs.morsels, rs.steals};
      },
      nullptr);

  out.Print();
  bench::WriteBenchJson("e13_parallel_scaling", out);
  std::printf(
      "\nShape check: answers identical down every column (asserted); "
      "4-thread speedup exact=%.2fx sampled=%.2fx (target >= 2.5x, "
      "needs >= 4 physical cores; this machine reports %zu).\n",
      exact_speedup4, sampled_speedup4, HardwareThreads());
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
