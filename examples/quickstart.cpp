// Quickstart: load data, ask an approximate SQL question with an error
// contract, compare against the exact answer.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/approx_executor.h"
#include "sql/binder.h"
#include "workload/datagen.h"

int main() {
  using namespace aqp;

  // 1. Generate a TPC-H-flavoured pair of tables (in a real deployment you
  //    would load CSVs via storage/csv.h or build tables programmatically).
  Catalog catalog = workload::GenerateLineitemLike(500000, 42).value();
  std::printf("Loaded %llu lineitem rows and %llu orders.\n\n",
              static_cast<unsigned long long>(
                  catalog.Cardinality("lineitem").value()),
              static_cast<unsigned long long>(
                  catalog.Cardinality("orders").value()));

  const std::string query =
      "SELECT shipmode, SUM(extendedprice) AS revenue, COUNT(*) AS n "
      "FROM lineitem GROUP BY shipmode ORDER BY revenue DESC";

  // 2. Exact answer (plain SQL — the engine is a complete little DBMS).
  Table exact = sql::ExecuteSql(query, catalog).value();
  std::printf("Exact answer:\n%s\n", exact.ToString().c_str());

  // 3. Approximate answer with an a-priori contract: every aggregate within
  //    5%% relative error, with 95%% confidence, or the executor falls back
  //    to exact execution.
  core::AqpOptions options;
  options.block_size = 256;
  options.max_rate = 0.8;
  core::ApproxExecutor executor(&catalog, options);
  core::ApproxResult approx =
      executor.Execute(query + " WITH ERROR 5% CONFIDENCE 95%").value();

  // The profile is the record of what the executor did: why it declined,
  // what it sampled, and how long each stage took.
  const obs::ExecutionProfile& profile = approx.profile;
  if (!approx.approximated) {
    std::printf("Executor declined to sample (%s); answer is exact.\n",
                profile.fallback_reason.c_str());
    return 0;
  }
  std::printf(
      "Approximate answer (sampled %.1f%% of '%s', pilot %.1fms + plan "
      "%.1fms + final %.1fms):\n%s\n",
      profile.sampled_fraction * 100.0, profile.sampled_table.c_str(),
      profile.pilot_seconds * 1000.0, profile.planning_seconds * 1000.0,
      profile.final_seconds * 1000.0, approx.table.ToString().c_str());

  // 4. Per-cell confidence intervals.
  std::printf("Revenue confidence intervals (95%% joint):\n");
  for (size_t row = 0; row < approx.table.num_rows(); ++row) {
    const stats::ConfidenceInterval& ci = approx.cis[row][1];
    std::printf("  %-6s [%12.1f, %12.1f]\n",
                approx.table.column(0).StringAt(row).c_str(), ci.low,
                ci.high);
  }
  return 0;
}
