// E3 — rare groups are silently missed by uniform samples; congressional /
// stratified allocation covers them at the same budget.
//
// Claim (survey §group-by): under skew, a uniform sample misses the tail
// groups entirely (their aggregates simply vanish from the answer), while
// congressional samples guarantee representation of every group.

#include <cmath>
#include <set>

#include "bench_util.h"
#include "core/estimate.h"
#include "sampling/bernoulli.h"
#include "sampling/congressional.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

// Groups present in a table's column "g".
std::set<int64_t> GroupsIn(const Table& t) {
  std::set<int64_t> groups;
  size_t g = t.ColumnIndex("g").value();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    groups.insert(t.column(g).Int64At(i));
  }
  return groups;
}

void Run() {
  bench::Banner("E3: group coverage under skew (budget 10k of 1M rows)",
                "Uniform sampling should miss more and more tail groups as "
                "skew rises; congressional sampling should miss none.");
  const size_t kRows = 1000000;
  const uint64_t kBudget = 10000;
  const uint64_t kGroups = 1000;

  bench::TablePrinter out(
      {"zipf s", "non-empty groups", "uniform missed", "congress missed",
       "uniform mean rel err", "congress mean rel err"});
  for (double s : {0.0, 0.5, 1.0, 1.5}) {
    workload::ColumnSpec group;
    group.name = "g";
    group.dist = workload::ColumnSpec::Dist::kZipfInt;
    group.cardinality = kGroups;
    group.zipf_s = s;
    workload::ColumnSpec measure;
    measure.name = "x";
    measure.dist = workload::ColumnSpec::Dist::kExponential;
    Table t = workload::GenerateTable({group, measure}, kRows, 13).value();

    // Exact per-group sums.
    std::vector<double> truth(kGroups, 0.0);
    for (size_t i = 0; i < kRows; ++i) {
      truth[static_cast<size_t>(t.column(0).Int64At(i))] +=
          t.column(1).DoubleAt(i);
    }
    std::set<int64_t> population_groups = GroupsIn(t);

    auto evaluate = [&](const Sample& sample, size_t* missed,
                        double* mean_rel) {
      core::GroupedEstimates est =
          core::EstimateGroupedAggregates(sample, {Col("g")},
                                          {{AggKind::kSum, Col("x"), "s"}})
              .value();
      std::set<int64_t> seen;
      double rel_sum = 0.0;
      size_t rel_n = 0;
      for (size_t g = 0; g < est.num_groups; ++g) {
        int64_t key = est.group_keys.column(0).Int64At(g);
        seen.insert(key);
        double tg = truth[static_cast<size_t>(key)];
        if (tg > 0.0) {
          rel_sum += std::fabs(est.estimates[0][g].estimate - tg) / tg;
          ++rel_n;
        }
      }
      *missed = population_groups.size() - seen.size();
      *mean_rel = rel_n > 0 ? rel_sum / static_cast<double>(rel_n) : 0.0;
    };

    size_t uni_missed = 0;
    double uni_rel = 0.0;
    Sample uni = BernoulliRowSample(
                     t, static_cast<double>(kBudget) / kRows, 31)
                     .value();
    evaluate(uni, &uni_missed, &uni_rel);

    size_t con_missed = 0;
    double con_rel = 0.0;
    auto congress = CongressionalSample(t, "g", kBudget, 33).value();
    evaluate(congress.sample, &con_missed, &con_rel);

    out.AddRow({bench::Fmt(s, 1), std::to_string(population_groups.size()),
                std::to_string(uni_missed), std::to_string(con_missed),
                bench::FmtPct(uni_rel, 1), bench::FmtPct(con_rel, 1)});
  }
  out.Print();
  bench::WriteBenchJson("e3", out);
  std::printf(
      "\nShape check: 'uniform missed' should rise with skew; "
      "'congress missed' should stay at 0.\n");
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
