// E9 — online aggregation: the confidence interval shrinks as ~1/sqrt(rate)
// over nested rounds and collapses to zero at a full scan.
//
// Claim (survey §online aggregation): progressive processing gives the user
// a usable answer almost immediately and refines it continuously — the
// interactivity argument for OLA-style AQP. Each round re-runs the query's
// sampled stage at a higher rate with the same seed, so it reads a superset
// of the previous round's blocks. The rounds sample SYSTEM blocks of 128
// rows: a round reads only the blocks it keeps (a BERNOULLI round would
// draw per row and read the whole table every round), and the first round
// still draws about 78 blocks.

#include <cmath>
#include <memory>
#include <string>

#include "bench_util.h"
#include "core/online_aggregation.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

void Run() {
  bench::Banner("E9: online aggregation convergence (2M rows)",
                "CI half-width should shrink ~1/sqrt(fraction) and hit zero "
                "at 100%; the running estimate should track the truth "
                "throughout.");
  const size_t kRows = 2000000;
  workload::ColumnSpec measure;
  measure.name = "x";
  measure.dist = workload::ColumnSpec::Dist::kExponential;
  workload::ColumnSpec key;
  key.name = "k";
  key.dist = workload::ColumnSpec::Dist::kUniformInt;
  key.min_value = 0;
  key.max_value = 9;
  Table t = workload::GenerateTable({measure, key}, kRows, 3).value();
  double truth = 0.0;
  size_t xcol = t.ColumnIndex("x").value();
  size_t kcol = t.ColumnIndex("k").value();
  for (size_t i = 0; i < kRows; ++i) {
    if (t.column(kcol).Int64At(i) < 7) truth += t.column(xcol).DoubleAt(i);
  }

  Catalog catalog;
  catalog.RegisterOrReplace("t", std::make_shared<Table>(std::move(t)));
  core::AqpOptions opt;
  opt.method = SampleSpec::Method::kSystemBlock;
  opt.block_size = 128;
  opt.seed = 11;
  core::OnlineAggregator ola =
      core::OnlineAggregator::Create(catalog,
                                     "SELECT SUM(x) AS s FROM t WHERE k < 7",
                                     opt)
          .value();
  bench::TablePrinter out({"fraction", "rows read", "blocks read",
                           "SUM estimate", "rel half-width", "rel err",
                           "covers truth", "hw*sqrt(frac)"});
  uint64_t rows_all_rounds = 0;
  for (double rate : {0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    core::OlaRound r = ola.Round(rate, 0.95).value();
    rows_all_rounds += r.stats.rows_scanned;
    const double estimate = r.table.column(0).DoubleAt(0);
    const stats::ConfidenceInterval& ci = r.cis[0][0];
    double rel_hw = ci.half_width() / truth;
    out.AddRow({bench::FmtPct(r.rate, 1), std::to_string(r.stats.rows_scanned),
                std::to_string(r.stats.blocks_read), bench::Fmt(estimate, 0),
                bench::FmtPct(rel_hw, 3),
                bench::FmtPct(std::fabs(estimate - truth) / truth, 3),
                r.complete ? "exact" : (ci.Covers(truth) ? "yes" : "no"),
                bench::Fmt(rel_hw * std::sqrt(r.rate) * 100.0, 3)});
  }
  out.Print();
  bench::WriteBenchJson("e9", out);
  std::printf(
      "\nShape check: 'hw*sqrt(frac)' roughly constant until the finite-"
      "population correction bends it toward zero near 100%%.\n"
      "All rounds together read %llu rows, %.2fx the table (the exact "
      "round counts the plan's 1024-row blocks).\n",
      static_cast<unsigned long long>(rows_all_rounds),
      static_cast<double>(rows_all_rounds) / kRows);
  // The rates below the last sum to less than it, and a SYSTEM round reads
  // only the rows of its blocks: all rounds read under twice the table.
  AQP_CHECK(rows_all_rounds <= 2 * kRows);
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
