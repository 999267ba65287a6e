// E1 — CLT validity and 1/sqrt(n) error decay for uniform sampling.
//
// Claim (survey §sampling): for linear aggregates, uniform row sampling
// yields unbiased estimates whose relative error shrinks as 1/sqrt(sample
// size), and CLT confidence intervals achieve near-nominal coverage.

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/estimate.h"
#include "sampling/bernoulli.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

// SUM(x), estimated through the Sample entry with no group keys.
const std::vector<AggSpec> kSumX = {{AggKind::kSum, Col("x"), "s"}};

void Run() {
  bench::Banner("E1: sampling rate vs error (uniform row sampling)",
                "Expect relative error ~ 1/sqrt(n), ~95% CI coverage, and "
                "unbiased estimates at every rate.");
  workload::ColumnSpec spec;
  spec.name = "x";
  spec.dist = workload::ColumnSpec::Dist::kExponential;
  Table t = workload::GenerateTable({spec}, 2000000, 7).value();
  double truth = 0.0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    truth += t.column(0).DoubleAt(i);
  }

  bench::TablePrinter out({"rate", "E[n]", "mean rel err", "rmse rel",
                           "mean CI half-width (rel)", "CI coverage",
                           "err*sqrt(n)"});
  const int kTrials = 30;
  for (double rate : {0.0001, 0.001, 0.005, 0.01, 0.05, 0.1}) {
    double sum_rel = 0.0;
    double sum_rel2 = 0.0;
    double sum_ciw = 0.0;
    int covered = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Sample s = BernoulliRowSample(t, rate, 100 + trial).value();
      core::PointEstimate est =
          core::EstimateGroupedAggregates(s, {}, kSumX)
              .value()
              .estimates[0][0];
      double rel = std::fabs(est.estimate - truth) / truth;
      sum_rel += rel;
      sum_rel2 += rel * rel;
      stats::ConfidenceInterval ci = est.Ci(0.95);
      sum_ciw += ci.half_width() / truth;
      if (ci.Covers(truth)) ++covered;
    }
    double n = rate * static_cast<double>(t.num_rows());
    double mean_rel = sum_rel / kTrials;
    out.AddRow({bench::FmtPct(rate, 2), bench::Fmt(n, 0),
                bench::FmtPct(mean_rel, 3),
                bench::FmtPct(std::sqrt(sum_rel2 / kTrials), 3),
                bench::FmtPct(sum_ciw / kTrials, 3),
                bench::FmtPct(static_cast<double>(covered) / kTrials, 0),
                bench::Fmt(mean_rel * std::sqrt(n), 2)});
  }
  out.Print();
  bench::WriteBenchJson("e1", out);
  std::printf(
      "\nShape check: the last column (err * sqrt(n)) should be roughly "
      "constant across rates — the 1/sqrt(n) law.\n");
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
