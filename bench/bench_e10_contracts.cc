// E10 — accuracy contracts: promise the error bound up front or decline.
//
// Claim (survey §accuracy contracts): an AQP system is usable only if the
// user-facing guarantee is honored — every approximated answer must land
// within the requested error, and queries the system cannot guarantee must
// fall back to exact execution rather than return a bad answer.
//
// Second table: GROUP BY contracts over three layouts of the group key
// (uniform, Zipf 1.0, and uniform plus one small group clustered into a few
// blocks). Column statistics size each pilot and price each contract; the
// clustered group carries block sampling's statistical tax on clustered
// data, so it raises the pilot and prices the contract out.

#include <cmath>
#include <map>

#include "bench_util.h"
#include "common/random.h"
#include "core/approx_executor.h"
#include "sql/binder.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

enum class Layout { kUniform, kZipf, kClustered };

// t(g, sel, m): 400k rows; g over 10 values laid out per `layout` (the
// clustered layout adds group 10: 3200 rows filling blocks 1000..1024), sel
// uniform over 0..999, m a positive measure.
Catalog LayoutCatalog(Layout layout) {
  constexpr size_t kRows = 400000;
  Pcg32 rng(29);
  std::vector<double> zipf_cdf;
  double acc = 0.0;
  for (int v = 0; v < 10; ++v) zipf_cdf.push_back(acc += 1.0 / (v + 1));
  std::vector<int64_t> g(kRows), sel(kRows);
  std::vector<double> m(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    if (layout == Layout::kZipf) {
      const double u = rng.NextDouble() * acc;
      g[i] = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
             zipf_cdf.begin();
    } else {
      g[i] = rng.UniformUint32(10);
    }
    if (layout == Layout::kClustered && i >= 128000 && i < 131200) g[i] = 10;
    sel[i] = rng.UniformUint32(1000);
    m[i] = 1.0 + rng.Exponential(0.1);
  }
  Table t = Table::Make(Schema({{"g", DataType::kInt64},
                                {"sel", DataType::kInt64},
                                {"m", DataType::kDouble}}),
                        {Column::FromInt64(std::move(g)),
                         Column::FromInt64(std::move(sel)),
                         Column::FromDouble(std::move(m))})
                .value();
  Catalog cat;
  AQP_CHECK(cat.Register("t", std::make_shared<Table>(std::move(t))).ok());
  return cat;
}

// GROUP BY contracts at the served defaults (max_rate 0.1, safety factor 2)
// with 128-row blocks, over each layout: the pilot rate the statistics set,
// how many contracts were priced out before the pilot or declined after it,
// the groups missing from the approximate answers, and the share of
// approximate cells whose interval covers the truth.
bench::TablePrinter GroupByLayouts() {
  bench::Banner("E10b: GROUP BY contracts by key layout",
                "Uniform keys should get the floor pilot and approximate; "
                "Zipf's small groups need higher rates; a small group "
                "clustered into 25 blocks needs a ~12x pilot and prices the "
                "contract out before any sampling.");
  bench::TablePrinter out({"layout", "runs", "pilot rate", "pilot basis",
                           "priced out", "declined after pilot",
                           "approximated", "groups missing", "coverage"});
  const std::vector<std::pair<Layout, std::string>> kLayouts = {
      {Layout::kUniform, "uniform"},
      {Layout::kZipf, "zipf 1.0"},
      {Layout::kClustered, "clustered small group"}};
  const int kSeeds = 8;
  for (const auto& [layout, name] : kLayouts) {
    Catalog cat = LayoutCatalog(layout);
    int runs = 0, priced_out = 0, declined = 0, approx = 0;
    uint64_t missing = 0, cells = 0, covered = 0;
    double pilot_rate = 0.0;
    std::string basis;
    for (int k : {500, 750, 1000}) {
      const std::string sql =
          "SELECT g, SUM(m) AS s, COUNT(*) AS n FROM t WHERE sel < " +
          std::to_string(k) + " GROUP BY g";
      Table exact = sql::ExecuteSql(sql, cat).value();
      std::map<int64_t, std::vector<double>> truth;
      for (size_t r = 0; r < exact.num_rows(); ++r) {
        truth[exact.column(0).Int64At(r)] = {exact.column(1).NumericAt(r),
                                             exact.column(2).NumericAt(r)};
      }
      const std::string contract = sql + " WITH ERROR 15% CONFIDENCE 95%";
      for (int seed = 0; seed < kSeeds; ++seed) {
        core::AqpOptions opt;
        opt.block_size = 128;
        opt.seed = 500 + seed * 13;
        core::ApproxExecutor exec(&cat, opt);
        sql::PreparedQuery q = sql::Prepare(contract, cat).value();
        core::StageTarget target =
            core::PickStageTarget(cat, q.bound, opt).value();
        core::ContractPrice price =
            core::PriceContract(cat, q, target, opt, nullptr).value();
        pilot_rate += price.pilot_rate;
        basis = price.pilot_basis;
        core::ApproxResult r = exec.Execute(q).value();
        ++runs;
        if (!r.approximated) {
          const bool before_pilot =
              r.profile.fallback_reason.rfind("priced out", 0) == 0;
          ++(before_pilot ? priced_out : declined);
          continue;
        }
        ++approx;
        std::map<int64_t, size_t> row_of;
        for (size_t row = 0; row < r.table.num_rows(); ++row) {
          row_of[r.table.column(0).Int64At(row)] = row;
        }
        for (const auto& [key, values] : truth) {
          auto it = row_of.find(key);
          if (it == row_of.end()) {
            ++missing;
            continue;
          }
          for (size_t item = 0; item < values.size(); ++item) {
            const stats::ConfidenceInterval& ci = r.cis[it->second][item + 1];
            ++cells;
            covered += ci.low <= values[item] && values[item] <= ci.high;
          }
        }
      }
    }
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.4f", pilot_rate / runs);
    out.AddRow({name, std::to_string(runs), rate, basis,
                std::to_string(priced_out), std::to_string(declined),
                std::to_string(approx), std::to_string(missing),
                cells > 0 ? bench::FmtPct(
                                static_cast<double>(covered) / cells, 1)
                          : "-"});
  }
  out.Print();
  std::printf(
      "\nShape check: the uniform row pilots at the floor (min_units "
      "blocks) and approximates with no missing group; the clustered row's "
      "pilot is an order of magnitude larger and its contracts are priced "
      "out, paying exact execution instead of a pilot plus exact.\n");
  return out;
}

void Run() {
  bench::Banner("E10: a-priori error contracts (sweep 1% - 10%)",
                "For every target, achieved error of approximated answers "
                "should stay at or below the target (contracts honored); "
                "tight targets should raise sampled fractions or force "
                "fallbacks.");
  workload::StarSchemaSpec spec;
  spec.fact_rows = 400000;
  spec.dim_sizes = {20};
  spec.fk_skew = 0.3;
  Catalog cat = workload::GenerateStarSchema(spec, 3).value();

  const std::vector<std::string> kQueries = {
      "SELECT SUM(measure_0) AS v FROM fact",
      "SELECT AVG(measure_1) AS v FROM fact",
      "SELECT COUNT(*) AS v FROM fact WHERE measure_1 > 110",
      "SELECT SUM(measure_0) AS v FROM fact WHERE measure_1 > 90",
  };
  // Exact answers.
  std::vector<double> truth;
  for (const std::string& q : kQueries) {
    Table r = sql::ExecuteSql(q, cat).value();
    truth.push_back(r.column(0).NumericAt(0));
  }

  bench::TablePrinter out({"target err", "runs", "approximated", "fallbacks",
                           "max achieved err", "mean achieved err",
                           "mean sampled fraction", "contract held"});
  const int kSeeds = 8;
  for (double target : {0.01, 0.02, 0.05, 0.10}) {
    int runs = 0;
    int approx = 0;
    int fallback = 0;
    double max_err = 0.0;
    double sum_err = 0.0;
    double sum_rate = 0.0;
    int violations = 0;
    char clause[64];
    std::snprintf(clause, sizeof(clause),
                  " WITH ERROR %.4f CONFIDENCE 0.95", target);
    for (int seed = 0; seed < kSeeds; ++seed) {
      core::AqpOptions opt;
      opt.pilot_rate = 0.01;
      opt.block_size = 128;
      opt.min_table_rows = 1000;
      opt.max_rate = 0.8;
      opt.seed = 1000 + seed * 7;
      core::ApproxExecutor exec(&cat, opt);
      for (size_t q = 0; q < kQueries.size(); ++q) {
        ++runs;
        core::ApproxResult r = exec.Execute(kQueries[q] + clause).value();
        if (!r.approximated) {
          ++fallback;
          continue;
        }
        ++approx;
        double est = r.table.column(0).NumericAt(0);
        double rel = std::fabs(est - truth[q]) / std::fabs(truth[q]);
        max_err = std::max(max_err, rel);
        sum_err += rel;
        sum_rate += r.profile.sampled_fraction;
        if (rel > target) ++violations;
      }
    }
    out.AddRow({bench::FmtPct(target, 0), std::to_string(runs),
                std::to_string(approx), std::to_string(fallback),
                bench::FmtPct(max_err, 2),
                bench::FmtPct(approx > 0 ? sum_err / approx : 0.0, 2),
                bench::FmtPct(approx > 0 ? sum_rate / approx : 0.0, 1),
                violations == 0
                    ? "yes"
                    : std::to_string(violations) + " violation(s)"});
  }
  out.Print();
  std::printf(
      "\nShape check: max achieved error <= target on approximated runs "
      "(the 95%% confidence leaves room for rare excursions); sampled "
      "fraction rises as the target tightens; fallbacks appear when "
      "sampling cannot win.\n");

  bench::TablePrinter layouts = GroupByLayouts();
  bench::BenchJson json("e10");
  json.AddTable("main", out);
  json.AddTable("groupby_layouts", layouts);
  json.Write();
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
