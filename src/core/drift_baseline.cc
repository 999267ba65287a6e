#include "core/drift_baseline.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "storage/value.h"

namespace aqp {
namespace core {

namespace {

// A value holding at least this share of a column's non-NULL rows is a
// heavy hitter.
constexpr double kHeavyShare = 1.0 / 33.0;

double Clamp01(double v) {
  if (!(v > 0.0)) return 0.0;  // Also maps NaN to 0.
  return v > 1.0 ? 1.0 : v;
}

bool Less(const Value* a, const Value& b) {
  return *TryCompareValues(*a, b) < 0;
}

// A column's non-NULL values as the scorer reads them: the distinct values
// ascending, each with its rows (exact) or its draws in the sample.
struct Distribution {
  std::vector<const Value*> values;
  std::vector<uint64_t> counts;
  uint64_t total = 0;

  explicit Distribution(const ColumnStats& s) {
    const std::vector<Value>& list = s.exact ? s.values : s.sample;
    for (size_t i = 0; i < list.size(); ++i) {
      const uint64_t n = s.exact ? s.spreads[i].rows : 1;
      total += n;
      if (!values.empty() && *TryCompareValues(*values.back(), list[i]) == 0) {
        counts.back() += n;
      } else {
        values.push_back(&list[i]);
        counts.push_back(n);
      }
    }
  }

  // Share of the rows (or draws) holding `v`.
  double Share(const Value& v) const {
    const auto it = std::lower_bound(values.begin(), values.end(), v, Less);
    if (it == values.end() || *TryCompareValues(**it, v) != 0) return 0.0;
    return static_cast<double>(counts[it - values.begin()]) /
           static_cast<double>(total);
  }
};

// KS statistic of two distributions: the largest gap between their CDFs,
// walked over the union of their values.
double KsStatistic(const Distribution& a, const Distribution& b) {
  if (a.total == 0 || b.total == 0) return a.total == b.total ? 0.0 : 1.0;
  size_t i = 0;
  size_t j = 0;
  uint64_t below_a = 0;
  uint64_t below_b = 0;
  double sup = 0.0;
  while (i < a.values.size() || j < b.values.size()) {
    const int order =
        i == a.values.size()   ? 1
        : j == b.values.size() ? -1
                               : *TryCompareValues(*a.values[i], *b.values[j]);
    if (order <= 0) below_a += a.counts[i++];
    if (order >= 0) below_b += b.counts[j++];
    sup = std::max(sup, std::fabs(static_cast<double>(below_a) / a.total -
                                  static_cast<double>(below_b) / b.total));
  }
  return Clamp01(sup);
}

// Lost share of the baseline's heavy hitters: for each value holding at
// least kHeavyShare of the baseline, compare its share then and now and sum
// the shrinkage. 0 = every hitter kept its share, 1 = all of them vanished.
double HeavyHitterTurnover(const Distribution& baseline,
                           const Distribution& current) {
  if (baseline.total == 0) return 0.0;
  if (current.total == 0) return 1.0;
  double share_b_sum = 0.0;
  double lost = 0.0;
  for (size_t i = 0; i < baseline.values.size(); ++i) {
    const double share_b = static_cast<double>(baseline.counts[i]) /
                           static_cast<double>(baseline.total);
    if (share_b < kHeavyShare) continue;
    share_b_sum += share_b;
    lost += std::max(0.0, share_b - current.Share(*baseline.values[i]));
  }
  if (share_b_sum <= 0.0) return 0.0;
  return Clamp01(lost / share_b_sum);
}

ColumnDriftScore TotalDrift() {
  ColumnDriftScore out;
  out.ks = out.domain_churn = out.hh_turnover = out.moment_shift = 1.0;
  out.score = 1.0;
  return out;
}

}  // namespace

uint64_t TableDriftBaseline::ApproxBytes() const {
  uint64_t bytes = sizeof(*this) + table.size();
  for (const auto& [name, stats] : columns) {
    bytes += name.size() + stats.ApproxBytes();
  }
  return bytes;
}

Result<TableDriftBaseline> BuildDriftBaseline(
    const Table& table, const std::string& name, uint64_t catalog_version,
    MemoryTracker* memory, const CancellationToken* cancel) {
  TableDriftBaseline out;
  out.table = name;
  out.catalog_version = catalog_version;
  out.built_unix_seconds = obs::NowUnixSeconds();
  out.rows = table.num_rows();
  out.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    AQP_ASSIGN_OR_RETURN(
        ColumnStats stats,
        BuildColumnStats(table.column(c), /*unit_rows=*/1, memory, cancel));
    out.columns.emplace_back(table.schema().field(c).name, std::move(stats));
  }
  return out;
}

ColumnDriftScore ScoreColumnDrift(const ColumnStats& baseline,
                                  const ColumnStats& current) {
  ColumnDriftScore out;
  const uint64_t nb = baseline.rows - baseline.nulls.rows;
  const uint64_t nc = current.rows - current.nulls.rows;
  if (nb == 0 && nc == 0) return out;
  if (nb == 0 || nc == 0) return TotalDrift();
  const Distribution base(baseline);
  const Distribution cur(current);
  if (!base.values.empty() && !cur.values.empty() &&
      !TryCompareValues(*base.values[0], *cur.values[0]).has_value()) {
    return TotalDrift();
  }

  const Moments& mb = baseline.moments;
  const Moments& mc = current.moments;
  if (mb.count > 0 || mc.count > 0) out.ks = KsStatistic(base, cur);

  // Domain churn: the share of the baseline's distinct domain no longer
  // present. Under a pure append it is exactly 0 (the domain legitimately
  // grew, which Jaccard would read as churn); replacement and deletion
  // raise it.
  out.domain_churn = Clamp01(1.0 - sketch::KmvSketch::EstimateContainment(
                                       baseline.distinct, current.distinct));

  out.hh_turnover = HeavyHitterTurnover(base, cur);

  // Moment shift: max of four normalized deltas. Size matters because a
  // stored sample scales totals by the population count frozen at build
  // time — doubling the table halves every SUM's effective coverage even
  // if the distribution is unchanged.
  double shift = 0.0;
  if (mb.count > 0 && mc.count > 0) {
    const double sd_b = std::sqrt(mb.variance());
    const double sd_c = std::sqrt(mc.variance());
    const double mean_denom =
        sd_b > 0.0 ? sd_b
                   : (std::fabs(mb.mean) > 0.0 ? std::fabs(mb.mean) : 1.0);
    shift = std::max(shift, Clamp01(std::fabs(mc.mean - mb.mean) / mean_denom));
    if (sd_b > 0.0) {
      shift = std::max(shift, Clamp01(std::fabs(sd_c - sd_b) / sd_b));
    } else if (sd_c > 0.0) {
      shift = 1.0;
    }
  }
  const double size_shift =
      Clamp01(std::fabs(static_cast<double>(nc) - static_cast<double>(nb)) /
              static_cast<double>(nb));
  shift = std::max(shift, size_shift);
  const double null_b = static_cast<double>(baseline.nulls.rows) /
                        static_cast<double>(baseline.rows);
  const double null_c = static_cast<double>(current.nulls.rows) /
                        static_cast<double>(current.rows);
  shift = std::max(shift, Clamp01(std::fabs(null_c - null_b)));
  out.moment_shift = shift;

  out.score = std::max({out.ks, out.domain_churn, out.hh_turnover,
                        out.moment_shift});
  return out;
}

TableDriftReport ScoreDrift(const TableDriftBaseline& baseline,
                            const TableDriftBaseline& current) {
  TableDriftReport report;
  report.table = baseline.table;
  auto find = [](const TableDriftBaseline& b,
                 const std::string& name) -> const ColumnStats* {
    for (const auto& [column, stats] : b.columns) {
      if (column == name) return &stats;
    }
    return nullptr;
  };
  auto add = [&report](const std::string& column, ColumnDriftScore score) {
    report.ks = std::max(report.ks, score.ks);
    report.domain_churn = std::max(report.domain_churn, score.domain_churn);
    report.hh_turnover = std::max(report.hh_turnover, score.hh_turnover);
    report.moment_shift = std::max(report.moment_shift, score.moment_shift);
    if (score.score > report.score || report.worst_column.empty()) {
      report.score = std::max(report.score, score.score);
      report.worst_column = column;
    }
    report.columns.push_back({column, score});
  };
  // A column on one side only (vanished or added) is schema drift: total.
  for (const auto& [name, stats] : baseline.columns) {
    const ColumnStats* cur = find(current, name);
    add(name, cur == nullptr ? TotalDrift() : ScoreColumnDrift(stats, *cur));
  }
  for (const auto& [name, stats] : current.columns) {
    if (find(baseline, name) == nullptr) add(name, TotalDrift());
  }
  return report;
}

}  // namespace core
}  // namespace aqp
