// E12 — data skew inflates the sample size uniform sampling needs;
// measure-biased (PPS) sampling and the outlier index absorb the tail.
//
// Claim (survey §skew): the heavier the tail of the aggregated measure, the
// worse uniform sampling performs at a fixed budget, because a handful of
// giant rows dominate the SUM; sampling proportional to the measure (or
// storing outliers exactly) restores accuracy.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/estimate.h"
#include "core/outlier_index.h"
#include "sampling/bernoulli.h"
#include "sampling/weighted.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

// SUM(x), estimated through the Sample entry with no group keys.
const std::vector<AggSpec> kSumX = {{AggKind::kSum, Col("x"), "s"}};

void Run() {
  bench::Banner("E12: measure skew vs estimator error (1M rows, 10k budget)",
                "Uniform error should explode as the Pareto tail heavies "
                "(alpha down); measure-biased and outlier-index errors "
                "should stay low.");
  const size_t kRows = 1000000;
  const uint64_t kBudget = 10000;
  const double kRate = static_cast<double>(kBudget) / kRows;

  bench::TablePrinter out({"pareto alpha", "tail weight", "uniform rmse",
                           "measure-biased rmse", "outlier-index rmse"});
  const int kTrials = 12;
  for (double alpha : {3.0, 2.0, 1.5, 1.2}) {
    workload::ColumnSpec measure;
    measure.name = "x";
    measure.dist = workload::ColumnSpec::Dist::kPareto;
    measure.pareto_alpha = alpha;
    Table t = workload::GenerateTable({measure}, kRows, 17).value();
    double truth = 0.0;
    std::vector<double> values(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      values[i] = t.column(0).DoubleAt(i);
      truth += values[i];
    }
    // Share of the total held by the top 0.1% of rows (tail weight).
    std::vector<double> sorted = values;
    std::sort(sorted.rbegin(), sorted.rend());
    double top = 0.0;
    for (size_t i = 0; i < kRows / 1000; ++i) top += sorted[i];

    core::OutlierIndex index =
        core::OutlierIndex::Build(t, "x", 0.002).value();
    double mse_uni = 0.0;
    double mse_pps = 0.0;
    double mse_out = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Sample uni = BernoulliRowSample(t, kRate, 100 + trial).value();
      double e1 = core::EstimateGroupedAggregates(uni, {}, kSumX)
                      .value()
                      .estimates[0][0]
                      .estimate;
      mse_uni += (e1 - truth) * (e1 - truth) / kTrials;

      Sample pps = MeasureBiasedSample(t, "x", kBudget, 200 + trial).value();
      double e2 = core::EstimateGroupedAggregates(pps, {}, kSumX)
                      .value()
                      .estimates[0][0]
                      .estimate;
      mse_pps += (e2 - truth) * (e2 - truth) / kTrials;

      double e3 = index.EstimateSum(kRate, 300 + trial).value().estimate;
      mse_out += (e3 - truth) * (e3 - truth) / kTrials;
    }
    out.AddRow({bench::Fmt(alpha, 1), bench::FmtPct(top / truth, 1),
                bench::FmtPct(std::sqrt(mse_uni) / truth, 2),
                bench::FmtPct(std::sqrt(mse_pps) / truth, 2),
                bench::FmtPct(std::sqrt(mse_out) / truth, 2)});
  }
  out.Print();
  bench::WriteBenchJson("e12", out);
  std::printf(
      "\nShape check: as alpha drops (heavier tail, larger top-0.1%% "
      "share), uniform rmse degrades by orders of magnitude while PPS and "
      "outlier-index stay in the low percents.\n");
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
