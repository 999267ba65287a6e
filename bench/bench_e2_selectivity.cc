// E2 — selective predicates break uniform sampling; stratification on the
// predicate dimension and outlier indexing repair it.
//
// Claim (survey §limitations): at a fixed budget, the relative error of a
// uniform-sample COUNT/SUM explodes as the predicate gets more selective
// (few qualifying rows survive into the sample), while a sample stratified
// on the predicate column keeps qualifying rows represented by design.

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/estimate.h"
#include "expr/expr.h"
#include "sampling/bernoulli.h"
#include "sampling/stratified.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

// SUM(x), estimated through the Sample entry with no group keys.
const std::vector<AggSpec> kSumX = {{AggKind::kSum, Col("x"), "s"}};

void Run() {
  bench::Banner("E2: selectivity vs error at a fixed 20k-row budget",
                "Uniform error should blow up as selectivity drops; the "
                "predicate-stratified sample should stay usable far longer.");
  const size_t kRows = 2000000;
  const uint64_t kBudget = 20000;
  // sel_key in [0, 1M): predicate sel_key < K gives selectivity K / 1M.
  // measure ~ Exp(1).
  workload::ColumnSpec key;
  key.name = "sel_key";
  key.dist = workload::ColumnSpec::Dist::kUniformInt;
  key.min_value = 0;
  key.max_value = 999999;
  workload::ColumnSpec measure;
  measure.name = "x";
  measure.dist = workload::ColumnSpec::Dist::kExponential;
  Table t = workload::GenerateTable({key, measure}, kRows, 11).value();

  // Stratification: log-scale buckets of sel_key (BlinkDB-style: the rare
  // low-key ranges that selective predicates hit become their own small
  // strata, which equal allocation then covers exhaustively).
  Table with_bucket = t;
  {
    Column bucket(DataType::kInt64);
    bucket.Reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      int64_t key = t.column(0).Int64At(i);
      int64_t b = 0;
      while (key >= 10) {
        key /= 10;
        ++b;
      }
      bucket.AppendInt64(b);
    }
    Schema schema = t.schema();
    schema.AddField({"bucket", DataType::kInt64});
    std::vector<Column> cols = {t.column(0), t.column(1), std::move(bucket)};
    with_bucket = Table::Make(schema, std::move(cols)).value();
  }

  bench::TablePrinter out({"selectivity", "qualifying", "uniform rel err",
                           "stratified rel err", "uniform: qual rows in "
                           "sample"});
  const int kTrials = 15;
  for (int64_t qualify_below :
       {100, 1000, 10000, 100000, 500000}) {
    ExprPtr pred = Lt(Col("sel_key"), Lit(qualify_below));
    // Exact answer.
    double truth = 0.0;
    size_t qualifying = 0;
    for (size_t i = 0; i < kRows; ++i) {
      if (t.column(0).Int64At(i) < qualify_below) {
        truth += t.column(1).DoubleAt(i);
        ++qualifying;
      }
    }
    double uni_rel = 0.0;
    double strat_rel = 0.0;
    double qual_in_sample = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      double rate = static_cast<double>(kBudget) / kRows;
      Sample uni = BernoulliRowSample(t, rate, 50 + trial).value();
      Sample uni_kept = core::FilterSample(uni, pred).value();
      double est = core::EstimateGroupedAggregates(uni_kept, {}, kSumX)
                       .value()
                       .estimates[0][0]
                       .estimate;
      uni_rel += std::fabs(est - truth) / truth / kTrials;
      size_t q = 0;
      for (size_t i = 0; i < uni.num_rows(); ++i) {
        if (uni.table.column(0).Int64At(i) < qualify_below) ++q;
      }
      qual_in_sample += static_cast<double>(q) / kTrials;

      auto strat = StratifiedSample(with_bucket, "bucket", kBudget,
                                    Allocation::kEqual, 70 + trial)
                       .value();
      Sample strat_kept = core::FilterSample(strat.sample, pred).value();
      double sest = core::EstimateGroupedAggregates(strat_kept, {}, kSumX)
                        .value()
                        .estimates[0][0]
                        .estimate;
      strat_rel += std::fabs(sest - truth) / truth / kTrials;
    }
    out.AddRow({bench::FmtSci(static_cast<double>(qualify_below) / 1e6),
                std::to_string(qualifying), bench::FmtPct(uni_rel, 2),
                bench::FmtPct(strat_rel, 2), bench::Fmt(qual_in_sample, 1)});
  }
  out.Print();
  bench::WriteBenchJson("e2", out);
  std::printf(
      "\nShape check: uniform error should degrade sharply below ~1e-3 "
      "selectivity while stratified error grows much more slowly.\n");
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
