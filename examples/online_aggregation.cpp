// Online aggregation scenario: an analyst fires a long-running aggregate
// and watches the answer refine live, stopping as soon as the interval is
// tight enough — the interactivity mode of AQP. Each round reruns the query
// at twice the previous sampling rate with the same seed, so it reads a
// superset of the previous round's blocks, and all rounds together read
// under twice the last one. The rounds sample SYSTEM blocks of 64 rows, so
// even the first round (1/1024 of the table) draws about 46 blocks; a
// BERNOULLI round would draw per row and read the whole table every round.

#include <cstdio>
#include <memory>

#include "core/online_aggregation.h"
#include "workload/datagen.h"

int main() {
  using namespace aqp;

  // 3M-row events table.
  workload::ColumnSpec amount;
  amount.name = "amount";
  amount.dist = workload::ColumnSpec::Dist::kPareto;
  amount.pareto_alpha = 2.2;
  workload::ColumnSpec region;
  region.name = "region";
  region.dist = workload::ColumnSpec::Dist::kUniformInt;
  region.min_value = 0;
  region.max_value = 19;
  Catalog catalog;
  catalog.RegisterOrReplace(
      "events", std::make_shared<Table>(
                    workload::GenerateTable({amount, region}, 3000000, 77)
                        .value()));

  const char* sql = "SELECT SUM(amount) AS s FROM events WHERE region < 5";
  core::AqpOptions options;
  options.method = SampleSpec::Method::kSystemBlock;
  options.block_size = 64;
  options.seed = 9;
  core::OnlineAggregator ola =
      core::OnlineAggregator::Create(catalog, sql, options).value();

  std::printf("%8s  %10s  %14s  %24s  %10s\n", "rate", "rows", "SUM estimate",
              "95% interval", "rel width");
  for (double rate = 1.0 / 1024; ; rate *= 2) {
    core::OlaRound r = ola.Round(rate, 0.95).value();
    const stats::ConfidenceInterval& ci = r.cis[0][0];
    std::printf("%7.3f%%  %10llu  %14.0f  [%10.0f, %10.0f]  %9.2f%%\n",
                100.0 * r.rate,
                static_cast<unsigned long long>(r.stats.rows_scanned),
                ci.estimate, ci.low, ci.high,
                100.0 * ci.relative_half_width());
    if (ci.relative_half_width() < 0.01) {
      std::printf(
          "\nInterval tighter than 1%% at a %.1f%% sample — the analyst "
          "stops here.\n",
          100.0 * r.rate);
      break;
    }
  }

  // For comparison: the same target via the one-call driver, another seed.
  options.seed = 10;
  core::OnlineAggregator again =
      core::OnlineAggregator::Create(catalog, sql, options).value();
  core::OlaRound last = again.RunToTarget(0.01, 0.95, 1.0 / 1024).value();
  std::printf(
      "RunToTarget(1%%): stopped at a %.1f%% sample (%llu rows), "
      "estimate %.0f.\n",
      100.0 * last.rate,
      static_cast<unsigned long long>(last.stats.rows_scanned),
      last.cis[0][0].estimate);
  return 0;
}
