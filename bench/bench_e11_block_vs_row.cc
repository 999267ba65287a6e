// E11 — block sampling buys system efficiency (blocks skipped) and pays a
// statistical-efficiency tax exactly when the layout is clustered.
//
// Claim (survey §sampling mechanics): TABLESAMPLE SYSTEM touches ~rate of
// the blocks while BERNOULLI touches all of them; on a shuffled layout both
// have similar error, on a value-clustered layout block sampling's error
// inflates because whole blocks are statistically redundant.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/estimate.h"
#include "common/random.h"
#include "engine/executor.h"
#include "sampling/bernoulli.h"
#include "sampling/block.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

// SUM(x), estimated through the Sample entry with no group keys.
const std::vector<AggSpec> kSumX = {{AggKind::kSum, Col("x"), "s"}};

void Run() {
  bench::Banner("E11: block vs row sampling (2M rows, 1024-row blocks)",
                "blocks read: SYSTEM ~ rate * total, BERNOULLI = total. "
                "Error: comparable on shuffled data; SYSTEM worse on "
                "clustered data.");
  const size_t kRows = 2000000;
  const uint32_t kBlock = 1024;
  // Clustered layout: values sorted (each block internally homogeneous).
  Table clustered(Schema({{"x", DataType::kDouble}}));
  {
    Pcg32 rng(3);
    std::vector<double> values(kRows);
    for (double& v : values) v = rng.Exponential(1.0);
    std::sort(values.begin(), values.end());
    Column col = Column::FromDouble(std::move(values));
    clustered = Table::Make(Schema({{"x", DataType::kDouble}}), {col}).value();
  }
  Table shuffled = ShuffleRows(clustered, 7);
  double truth = 0.0;
  for (size_t i = 0; i < kRows; ++i) truth += clustered.column(0).DoubleAt(i);

  Catalog cat;
  AQP_CHECK(
      cat.Register("clustered", std::make_shared<Table>(clustered)).ok());
  AQP_CHECK(cat.Register("shuffled", std::make_shared<Table>(shuffled)).ok());

  bench::TablePrinter out({"rate", "method", "layout", "blocks read",
                           "scan ms", "rmse rel err"});
  const int kTrials = 10;
  for (double rate : {0.001, 0.01, 0.1}) {
    for (const char* layout : {"shuffled", "clustered"}) {
      const Table& data =
          std::string(layout) == "shuffled" ? shuffled : clustered;
      for (const char* method : {"BERNOULLI", "SYSTEM"}) {
        bool block_method = std::string(method) == "SYSTEM";
        // System efficiency via the engine scan (blocks_read stat + time).
        SampleSpec spec;
        spec.method = block_method ? SampleSpec::Method::kSystemBlock
                                   : SampleSpec::Method::kBernoulliRow;
        spec.rate = rate;
        spec.seed = 5;
        spec.block_size = kBlock;
        ExecStats stats;
        bench::WallTimer timer;
        Table scanned =
            Execute(PlanNode::Scan(layout, spec), cat, &stats).value();
        double ms = timer.Millis();

        // Statistical efficiency: rmse of the SUM estimate across seeds.
        double mse = 0.0;
        for (int trial = 0; trial < kTrials; ++trial) {
          Sample s =
              block_method
                  ? BlockSample(data, rate, kBlock, 100 + trial).value()
                  : BernoulliRowSample(data, rate, 100 + trial).value();
          core::PointEstimate est =
              core::EstimateGroupedAggregates(s, {}, kSumX)
                  .value()
                  .estimates[0][0];
          mse += (est.estimate - truth) * (est.estimate - truth) / kTrials;
        }
        out.AddRow({bench::FmtPct(rate, 1), method, layout,
                    std::to_string(stats.blocks_read), bench::Fmt(ms, 2),
                    bench::FmtPct(std::sqrt(mse) / truth, 3)});
      }
    }
  }
  out.Print();
  bench::WriteBenchJson("e11", out);
  std::printf(
      "\nShape check: SYSTEM reads ~rate of ~%zu blocks and scans faster; "
      "BERNOULLI reads all of them. On the clustered layout SYSTEM's error "
      "is clearly worse at equal rate; on the shuffled layout they are "
      "close.\n",
      kRows / kBlock);
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
