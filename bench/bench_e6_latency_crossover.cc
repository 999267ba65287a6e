// E6 — the latency structure of the design space: pre-computed synopses are
// fastest at query time, query-time sampling sits in between, exact scans
// pay the most; the gap widens with data size (and inverts for small data).
//
// Claim (survey §taxonomy): no method dominates — offline wins query
// latency but pays maintenance (E7) and drift (E8); online is maintenance-
// free but still touches the data; exact is always correct and always slow.

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/approx_executor.h"
#include "core/estimate.h"
#include "core/offline_catalog.h"
#include "sql/binder.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

// SUM(x), estimated through the Sample entry with no group keys.
const std::vector<AggSpec> kSumX = {{AggKind::kSum, Col("x"), "s"}};

void Run() {
  bench::Banner("E6: latency crossover (exact vs online AQP vs offline sample)",
                "Offline lookup time should be flat; exact should grow "
                "linearly with data; online in between. Errors: exact 0, "
                "others small.");
  bench::TablePrinter out({"rows", "method", "latency ms", "rel err",
                           "rows touched at query time"});
  for (size_t rows : {100000ul, 400000ul, 1600000ul}) {
    Catalog cat;
    {
      workload::ColumnSpec key;
      key.name = "k";
      key.dist = workload::ColumnSpec::Dist::kUniformInt;
      key.min_value = 0;
      key.max_value = 99;
      workload::ColumnSpec measure;
      measure.name = "x";
      measure.dist = workload::ColumnSpec::Dist::kExponential;
      Table t = workload::GenerateTable({key, measure}, rows, 5).value();
      AQP_CHECK(cat.Register("t", std::make_shared<Table>(std::move(t))).ok());
    }
    const std::string kQuery = "SELECT SUM(x) AS s FROM t WHERE k < 50";

    // Exact.
    double truth;
    double exact_ms;
    uint64_t exact_rows;
    {
      bench::WallTimer timer;
      ExecStats stats;
      Table r = sql::ExecuteSql(kQuery, cat, &stats).value();
      exact_ms = timer.Millis();
      truth = r.column(0).DoubleAt(0);
      exact_rows = stats.rows_scanned;
    }
    out.AddRow({std::to_string(rows), "exact", bench::Fmt(exact_ms, 2),
                "0.00%", std::to_string(exact_rows)});

    // Online AQP (two-stage block sampling with contract).
    {
      core::AqpOptions opt;
      opt.pilot_rate = 0.01;
      opt.block_size = 128;
      opt.min_table_rows = 1000;
      opt.max_rate = 0.8;
      core::ApproxExecutor exec(&cat, opt);
      bench::WallTimer timer;
      core::ApproxResult r =
          exec.Execute(kQuery + " WITH ERROR 5% CONFIDENCE 95%").value();
      double ms = timer.Millis();
      double est = r.approximated ? r.table.column(0).DoubleAt(0) : truth;
      out.AddRow({std::to_string(rows),
                  r.approximated ? "online AQP (5%)" : "online AQP (fallback)",
                  bench::Fmt(ms, 2),
                  bench::FmtPct(std::fabs(est - truth) / truth, 2),
                  std::to_string(r.profile.rows_scanned)});
    }

    // Offline pre-computed sample (build cost excluded here; that is E7).
    {
      core::SampleCatalog samples;
      AQP_CHECK(samples.BuildUniform(cat, "t", 20000, 9).ok());
      const core::StoredSample* stored = samples.Find("t").value();
      bench::WallTimer timer;
      Sample kept = core::FilterSample(stored->sample,
                                       Lt(Col("k"), Lit(int64_t{50})))
                        .value();
      core::PointEstimate est =
          core::EstimateGroupedAggregates(kept, {}, kSumX)
              .value()
              .estimates[0][0];
      double ms = timer.Millis();
      out.AddRow({std::to_string(rows), "offline sample (20k)",
                  bench::Fmt(ms, 2),
                  bench::FmtPct(std::fabs(est.estimate - truth) / truth, 2),
                  std::to_string(stored->sample.table.num_rows())});
    }
  }
  out.Print();
  bench::WriteBenchJson("e6", out);
  std::printf(
      "\nShape check: exact latency grows ~16x across rows; offline stays "
      "flat; online grows but stays below exact at scale.\n");
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
