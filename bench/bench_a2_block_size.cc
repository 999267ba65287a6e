// A2 (ablation) — block size: the system/statistics dial of block sampling.
//
// Design choice probed: bigger blocks amortize I/O better (fewer, larger
// reads) but each sampled unit carries less statistical information, so the
// planner must sample a larger fraction to honor the same contract. The
// sweet spot depends on the layout — the "no silver bullet" message at the
// level of one tuning knob.

#include <cmath>

#include "bench_util.h"
#include "core/approx_executor.h"
#include "sql/binder.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

void Run() {
  bench::Banner("A2: block-size ablation (SUM over 1M rows, 5% contract)",
                "Larger blocks -> fewer sampled units -> the planner raises "
                "the sampled fraction (or falls back); tiny blocks behave "
                "like row sampling.");
  workload::StarSchemaSpec spec;
  spec.fact_rows = 1000000;
  spec.dim_sizes = {20};
  Catalog cat = workload::GenerateStarSchema(spec, 3).value();
  const std::string kQuery = "SELECT SUM(measure_0) AS s FROM fact";
  Table exact = sql::ExecuteSql(kQuery, cat).value();
  double truth = exact.column(0).DoubleAt(0);

  bench::TablePrinter out({"block size", "population blocks", "final rate",
                           "rows touched", "blocks touched", "rel err",
                           "approximated"});
  for (uint32_t block : {16u, 128u, 1024u, 8192u, 65536u}) {
    core::AqpOptions opt;
    opt.pilot_rate = 0.01;
    opt.block_size = block;
    opt.min_table_rows = 1000;
    opt.max_rate = 0.8;
    core::ApproxExecutor exec(&cat, opt);
    core::ApproxResult r =
        exec.Execute(kQuery + " WITH ERROR 5% CONFIDENCE 95%").value();
    double est = r.approximated ? r.table.column(0).DoubleAt(0) : truth;
    out.AddRow({std::to_string(block),
                std::to_string(1000000 / block + (1000000 % block ? 1 : 0)),
                r.approximated ? bench::FmtPct(r.profile.sampled_fraction, 2)
                               : "-",
                std::to_string(r.profile.rows_scanned),
                std::to_string(r.profile.blocks_read),
                bench::FmtPct(std::fabs(est - truth) / truth, 2),
                r.approximated ? "yes" : "no (fallback)"});
  }
  out.Print();
  bench::WriteBenchJson("a2", out);
  std::printf(
      "\nShape check: the sampled fraction (and rows touched) grows with "
      "block size because the 30-unit floor and per-unit information both "
      "bind; at the largest blocks the planner may decline entirely.\n");
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
