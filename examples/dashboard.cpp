// Dashboard scenario: a star-schema "sales" warehouse serving a dashboard
// that refreshes many group-by widgets. Offline samples answer the widgets
// in microseconds; the sample catalog absorbs nightly appends; the accuracy
// contract governs when the system silently falls back to exact scans.

#include <cstdio>

#include "bench_util.h"  // Reuse the tiny table printer from bench/.
#include "core/approx_executor.h"
#include "core/offline_catalog.h"
#include "engine/executor.h"
#include "sql/binder.h"
#include "workload/datagen.h"

int main() {
  using namespace aqp;

  // The warehouse: 800k-row fact, two dimensions.
  workload::StarSchemaSpec spec;
  spec.fact_rows = 800000;
  spec.dim_sizes = {30, 500};
  spec.fk_skew = 0.4;
  Catalog catalog = workload::GenerateStarSchema(spec, 7).value();

  // The dashboard's widgets: group-by queries over the fact + dim join.
  const std::vector<std::string> widgets = {
      "SELECT d.band, SUM(f.measure_0) AS total FROM fact AS f "
      "JOIN dim_0 AS d ON f.fk_0 = d.pk GROUP BY d.band ORDER BY d.band",
      "SELECT f.fk_0, SUM(f.measure_0) AS total, AVG(f.measure_1) AS avg_m "
      "FROM fact AS f GROUP BY f.fk_0 ORDER BY f.fk_0",
      "SELECT COUNT(*) AS big_sales FROM fact WHERE measure_1 > 130",
  };

  core::AqpOptions options;
  options.block_size = 256;
  options.max_rate = 0.8;
  options.pilot_rate = 0.02;
  core::ApproxExecutor executor(&catalog, options);

  bench::TablePrinter report({"widget", "mode", "latency ms",
                              "vs exact ms", "max rel err"});
  for (size_t w = 0; w < widgets.size(); ++w) {
    bench::WallTimer exact_timer;
    Table exact = sql::ExecuteSql(widgets[w], catalog).value();
    double exact_ms = exact_timer.Millis();

    bench::WallTimer approx_timer;
    core::ApproxResult r =
        executor.Execute(widgets[w] + " WITH ERROR 10% CONFIDENCE 90%")
            .value();
    double approx_ms = approx_timer.Millis();

    double max_rel = 0.0;
    if (r.approximated && r.table.num_rows() == exact.num_rows()) {
      for (size_t i = 0; i < exact.num_rows(); ++i) {
        for (size_t c = 0; c < exact.num_columns(); ++c) {
          if (!IsNumeric(exact.column(c).type())) continue;
          double t = exact.column(c).NumericAt(i);
          double e = r.table.column(c).NumericAt(i);
          if (t != 0.0) {
            max_rel = std::max(max_rel, std::abs(e - t) / std::abs(t));
          }
        }
      }
    }
    report.AddRow({"widget " + std::to_string(w + 1),
                   r.approximated ? "approx" : "exact fallback",
                   bench::Fmt(approx_ms, 1), bench::Fmt(exact_ms, 1),
                   r.approximated ? bench::FmtPct(max_rel, 2) : "0%"});
  }
  std::printf("Dashboard refresh (contract: 10%% error, 90%% confidence):\n");
  report.Print();

  // Nightly batch lands; the offline sample catalog keeps its samples fresh
  // incrementally and reports what the maintenance cost was.
  core::SampleCatalog samples(
      core::SampleCatalog::MaintenancePolicy::kIncremental);
  AQP_CHECK(samples.BuildUniform(catalog, "fact", 20000, 3).ok());
  uint64_t before = samples.maintenance_rows_scanned();

  workload::StarSchemaSpec delta_spec = spec;
  delta_spec.fact_rows = 50000;
  Catalog delta = workload::GenerateStarSchema(delta_spec, 99).value();
  const Table& batch = *ReadTable(delta, "fact").value();
  Table grown = *ReadTable(catalog, "fact").value();
  AQP_CHECK(grown.Append(batch).ok());
  catalog.RegisterOrReplace("fact", std::make_shared<Table>(std::move(grown)));
  AQP_CHECK(samples.OnAppend(catalog, "fact", batch, 5).ok());

  std::printf(
      "\nNightly append of %zu rows maintained the offline sample by "
      "scanning only %llu rows (incremental reservoir).\n",
      batch.num_rows(),
      static_cast<unsigned long long>(samples.maintenance_rows_scanned() -
                                      before));
  return 0;
}
