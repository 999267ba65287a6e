// E4 — "the join of two samples is not a sample of the join".
//
// Claim (survey §joins): independently sampling both sides of a join at rate
// r leaves only ~r^2 of the join result and inflates estimator variance by
// orders of magnitude; a join synopsis (sample one side of an FK join, join
// it fully) keeps a true rate-r sample of the join.

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/estimate.h"
#include "common/random.h"
#include "sampling/join_synopsis.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

void Run() {
  bench::Banner("E4: join of samples vs join synopsis (fact 1M x dim 10k)",
                "Join-of-samples should keep ~rate^2 of the join rows and "
                "have far higher error than the synopsis at every rate.");
  const size_t kFactRows = 1000000;
  const int64_t kDimRows = 10000;

  // fact(fk, amount), dim(pk, factor).
  Table fact(Schema({{"fk", DataType::kInt64}, {"amount", DataType::kDouble}}));
  Table dim(Schema({{"pk", DataType::kInt64}, {"factor", DataType::kDouble}}));
  {
    Pcg32 rng(3);
    for (int64_t k = 0; k < kDimRows; ++k) {
      AQP_CHECK(dim.AppendRow({Value(k),
                               Value(1.0 + static_cast<double>(k % 9))})
                    .ok());
    }
    ZipfGenerator zipf(kDimRows, 0.5);
    for (size_t i = 0; i < kFactRows; ++i) {
      AQP_CHECK(fact.AppendRow({Value(static_cast<int64_t>(zipf.Next(rng))),
                                Value(rng.Exponential(1.0))})
                    .ok());
    }
  }
  // Exact SUM(amount * factor) over the join.
  std::vector<double> factor_by_pk(kDimRows);
  for (size_t j = 0; j < dim.num_rows(); ++j) {
    factor_by_pk[dim.column(0).Int64At(j)] = dim.column(1).DoubleAt(j);
  }
  double truth = 0.0;
  for (size_t i = 0; i < fact.num_rows(); ++i) {
    truth += fact.column(1).DoubleAt(i) *
             factor_by_pk[fact.column(0).Int64At(i)];
  }

  bench::TablePrinter out({"rate", "synopsis rows", "both-sides rows",
                           "synopsis rel err", "both-sides rel err",
                           "error ratio"});
  const std::vector<AggSpec> sum_joined = {
      {AggKind::kSum, Mul(Col("amount"), Col("factor")), "s"}};
  const int kTrials = 12;
  for (double rate : {0.002, 0.01, 0.05}) {
    double syn_rows = 0.0;
    double both_rows = 0.0;
    double syn_mse = 0.0;
    double both_mse = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Sample syn =
          BuildJoinSynopsis(fact, "fk", dim, "pk", rate, 100 + trial).value();
      syn_rows += static_cast<double>(syn.num_rows()) / kTrials;
      core::PointEstimate es =
          core::EstimateGroupedAggregates(syn, {}, sum_joined)
              .value()
              .estimates[0][0];
      syn_mse += (es.estimate - truth) * (es.estimate - truth) / kTrials;

      Sample both =
          JoinOfSamples(fact, "fk", dim, "pk", rate, 200 + trial).value();
      both_rows += static_cast<double>(both.num_rows()) / kTrials;
      double est = 0.0;
      if (both.num_rows() > 0) {
        core::PointEstimate eb =
            core::EstimateGroupedAggregates(both, {}, sum_joined)
                .value()
                .estimates[0][0];
        est = eb.estimate;
      }
      both_mse += (est - truth) * (est - truth) / kTrials;
    }
    double syn_rel = std::sqrt(syn_mse) / truth;
    double both_rel = std::sqrt(both_mse) / truth;
    out.AddRow({bench::FmtPct(rate, 1), bench::Fmt(syn_rows, 0),
                bench::Fmt(both_rows, 0), bench::FmtPct(syn_rel, 2),
                bench::FmtPct(both_rel, 2),
                bench::Fmt(both_rel / std::max(syn_rel, 1e-12), 1) + "x"});
  }
  out.Print();
  bench::WriteBenchJson("e4", out);
  std::printf(
      "\nShape check: both-sides rows ~ rate * synopsis rows (a rate^2 "
      "collapse), and its error stays several times larger.\n");
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
