// E7 — offline synopses carry maintenance cost under updates; the policy
// choice trades refresh cost against accuracy.
//
// Claim (survey §maintenance / P2): every append forces the sample catalog
// to spend work — a full rebuild re-scans the table each batch, incremental
// reservoir maintenance touches only the delta, and online AQP pays nothing
// until query time. Stale samples (never refreshed) answer with bias.

#include <cmath>

#include "bench_util.h"
#include "core/estimate.h"
#include "core/offline_catalog.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

Table MakeBatch(size_t rows, double mean_shift, uint64_t seed) {
  // Appends drift upward in value so stale samples become biased.
  Pcg32 rng(seed);
  Table t(Schema({{"x", DataType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    AQP_CHECK(t.AppendRow({Value(mean_shift + rng.Exponential(1.0))}).ok());
  }
  return t;
}

void Run() {
  bench::Banner("E7: maintenance cost of offline samples under appends",
                "Rebuild cost should dwarf incremental cost; the stale "
                "(never-refreshed) sample should show growing bias; all "
                "refreshed policies stay accurate.");
  const size_t kInitialRows = 500000;
  const size_t kBatch = 50000;
  const int kBatches = 10;
  const uint64_t kBudget = 10000;

  struct Policy {
    const char* name;
    core::SampleCatalog::MaintenancePolicy policy;
    bool refresh;
  };
  Policy policies[] = {
      {"rebuild", core::SampleCatalog::MaintenancePolicy::kRebuild, true},
      {"incremental", core::SampleCatalog::MaintenancePolicy::kIncremental,
       true},
      {"stale (never refresh)",
       core::SampleCatalog::MaintenancePolicy::kRebuild, false},
  };

  bench::TablePrinter out({"policy", "maintenance rows scanned",
                           "final rel err of AVG", "storage rows"});
  for (const Policy& p : policies) {
    Catalog cat;
    Table base = MakeBatch(kInitialRows, 0.0, 3);
    AQP_CHECK(cat.Register("t", std::make_shared<Table>(base)).ok());
    core::SampleCatalog samples(p.policy);
    AQP_CHECK(samples.BuildUniform(cat, "t", kBudget, 7).ok());
    uint64_t build_cost = samples.maintenance_rows_scanned();

    Table full = base;
    for (int b = 0; b < kBatches; ++b) {
      Table batch = MakeBatch(kBatch, 0.5 * (b + 1), 100 + b);
      AQP_CHECK(full.Append(batch).ok());
      cat.RegisterOrReplace("t", std::make_shared<Table>(full));
      if (p.refresh) {
        AQP_CHECK(samples.OnAppend(cat, "t", batch, 200 + b).ok());
      }
    }
    // Exact AVG over the final table.
    double truth = 0.0;
    for (size_t i = 0; i < full.num_rows(); ++i) {
      truth += full.column(0).DoubleAt(i);
    }
    truth /= static_cast<double>(full.num_rows());

    const core::StoredSample* stored = samples.Find("t").value();
    core::PointEstimate est =
        core::EstimateGroupedAggregates(stored->sample, {},
                                        {{AggKind::kAvg, Col("x"), "a"}})
            .value()
            .estimates[0][0];
    double rel = std::fabs(est.estimate - truth) / truth;
    out.AddRow({p.name,
                std::to_string(samples.maintenance_rows_scanned() -
                               build_cost),
                bench::FmtPct(rel, 2),
                std::to_string(samples.storage_rows())});
  }
  out.Print();
  bench::WriteBenchJson("e7", out);
  std::printf(
      "\nShape check: rebuild scans ~%d full tables (millions of rows); "
      "incremental scans only the %d appended batches (%zu rows); the "
      "stale sample's error is large because appends drifted upward.\n",
      kBatches, kBatches, static_cast<size_t>(kBatches) * kBatch);
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
