// A1 (ablation) — pilot-rate sensitivity of the two-stage executor.
//
// Design choice probed: the pilot sampling rate trades pilot cost against
// planning quality. Too small a pilot gives noisy variance estimates (the
// safety factor then over-samples or the plan misses); too large a pilot
// costs as much as the final query. Speedup should be non-monotonic in the
// pilot rate, echoing the sensitivity analyses online-AQP papers report.

#include <cmath>

#include "bench_util.h"
#include "core/approx_executor.h"
#include "sql/binder.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

void Run() {
  bench::Banner("A1: pilot-rate sensitivity (SUM over 1M rows, 5% contract)",
                "End-to-end latency should be worst at the extremes: noisy "
                "planning at tiny pilots, pilot-dominated cost at huge "
                "ones.");
  workload::StarSchemaSpec spec;
  spec.fact_rows = 1000000;
  spec.dim_sizes = {20};
  Catalog cat = workload::GenerateStarSchema(spec, 3).value();
  const std::string kQuery = "SELECT SUM(measure_0) AS s FROM fact";
  Table exact = sql::ExecuteSql(kQuery, cat).value();
  double truth = exact.column(0).DoubleAt(0);
  bench::WallTimer exact_timer;
  (void)sql::ExecuteSql(kQuery, cat).value();
  double exact_ms = exact_timer.Millis();

  bench::TablePrinter out({"pilot rate", "total ms", "pilot ms", "final ms",
                           "final rate", "rel err", "speedup vs exact"});
  for (double pilot : {0.002, 0.005, 0.01, 0.05, 0.1, 0.3}) {
    core::AqpOptions opt;
    opt.pilot_rate = pilot;
    opt.block_size = 512;
    opt.min_table_rows = 1000;
    opt.max_rate = 0.8;
    // Keep the unit floor from masking the tiny-pilot regime.
    opt.min_units = 8;
    core::ApproxExecutor exec(&cat, opt);
    const int kTrials = 5;
    double total_ms = 0.0;
    double pilot_ms = 0.0;
    double final_ms = 0.0;
    double rate = 0.0;
    double rel = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      bench::WallTimer timer;
      core::ApproxResult r =
          exec.Execute(kQuery + " WITH ERROR 5% CONFIDENCE 95%").value();
      total_ms += timer.Millis() / kTrials;
      pilot_ms += r.profile.pilot_seconds * 1000.0 / kTrials;
      final_ms += r.profile.final_seconds * 1000.0 / kTrials;
      rate += (r.approximated ? r.profile.sampled_fraction : 1.0) / kTrials;
      double est = r.approximated ? r.table.column(0).DoubleAt(0) : truth;
      rel += std::fabs(est - truth) / truth / kTrials;
    }
    out.AddRow({bench::FmtPct(pilot, 1), bench::Fmt(total_ms, 1),
                bench::Fmt(pilot_ms, 1), bench::Fmt(final_ms, 1),
                bench::FmtPct(rate, 1), bench::FmtPct(rel, 2),
                bench::Fmt(exact_ms / total_ms, 1) + "x"});
  }
  out.Print();
  bench::WriteBenchJson("a1", out);
  std::printf(
      "\nShape check: pilot ms grows linearly with the pilot rate and "
      "dominates total latency at the top of the sweep; the middle of the "
      "sweep gives the best speedup.\n");
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
