#include "core/estimate.h"

#include <cmath>

#include "common/check.h"
#include "common/hash.h"
#include "common/hash_id_table.h"
#include "expr/eval.h"

namespace aqp {
namespace core {
namespace {

// Accumulated totals of one (group, unit) cell for one aggregate.
struct Cell {
  double y = 0.0;  // Sum of the measure over the cell's rows.
  double c = 0.0;  // Count of non-null qualifying rows (COUNT semantics).
  double w = 0.0;  // The unit's HT weight (constant within a unit).
};

uint64_t CellKey(uint32_t group, uint32_t unit) {
  return (static_cast<uint64_t>(group) << 32) | unit;
}

}  // namespace

Result<GroupedEstimates> EstimateGroupedAggregates(
    const Sample& sample, const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs) {
  for (const AggSpec& spec : aggs) {
    if (!IsLinearAgg(spec.kind)) {
      return Status::InvalidArgument(
          std::string("non-linear aggregate not estimable from samples: ") +
          std::string(AggKindName(spec.kind)));
    }
  }
  const Table& t = sample.table;
  const size_t n = t.num_rows();
  AQP_CHECK(sample.weights.size() == n);
  AQP_CHECK(sample.unit_ids.size() == n);

  AQP_ASSIGN_OR_RETURN(GroupIndex index, BuildGroupIndex(t, group_exprs));

  GroupedEstimates out;
  out.num_groups = group_exprs.empty() ? 1 : index.num_groups;
  // Materialize group keys table.
  {
    Schema key_schema;
    std::vector<Column> key_cols;
    for (size_t g = 0; g < group_exprs.size(); ++g) {
      key_schema.AddField({"key_" + std::to_string(g),
                           index.key_columns[g].type()});
      key_cols.push_back(index.key_columns[g]);
    }
    AQP_ASSIGN_OR_RETURN(out.group_keys,
                         Table::Make(std::move(key_schema),
                                     std::move(key_cols)));
  }

  // Evaluate aggregate arguments once.
  std::vector<Column> arg_cols;
  for (const AggSpec& spec : aggs) {
    if (spec.kind == AggKind::kCountStar || spec.arg == nullptr) {
      arg_cols.emplace_back(DataType::kDouble);  // Placeholder.
      continue;
    }
    AQP_ASSIGN_OR_RETURN(Column c, Eval(*spec.arg, t));
    if (!IsNumeric(c.type())) {
      return Status::InvalidArgument("aggregate argument must be numeric");
    }
    arg_cols.push_back(std::move(c));
  }

  // Accumulate (group, unit) cells. Every aggregate sees the same cell keys,
  // so one table assigns each key a dense cell id (first-insertion order)
  // and every aggregate keeps its cells in a plain vector indexed by it:
  // the per-group sums below run in a fixed order, whatever the hash layout.
  HashIdTable cell_ids(n / 4 + 8);
  std::vector<uint64_t> cell_keys;
  std::vector<std::vector<Cell>> cells(aggs.size());
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = CellKey(index.group_ids[i], sample.unit_ids[i]);
    bool inserted = false;
    const uint32_t id = cell_ids.FindOrInsert(
        Mix64(key), [&](uint32_t cand) { return cell_keys[cand] == key; },
        &inserted);
    if (inserted) {
      cell_keys.push_back(key);
      for (std::vector<Cell>& v : cells) v.emplace_back();
    }
    double w = sample.weights[i];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggSpec& spec = aggs[a];
      Cell& cell = cells[a][id];
      cell.w = w;
      if (spec.kind == AggKind::kCountStar) {
        cell.c += 1.0;
        continue;
      }
      const Column& arg = arg_cols[a];
      if (spec.kind == AggKind::kCount) {
        if (!arg.IsNull(i)) cell.c += 1.0;
        continue;
      }
      // SUM / AVG.
      if (!arg.IsNull(i)) {
        cell.y += arg.NumericAt(i);
        cell.c += 1.0;
      }
    }
  }

  // Equal-probability designs (Bernoulli row/block, reservoir) admit the
  // mean-expansion estimator T = M * mean_u(y_u), whose variance is driven
  // by per-unit DISPERSION rather than raw unit totals — dramatically
  // tighter than Horvitz–Thompson for SUM/COUNT because the random sample
  // size cancels. Unequal-weight designs fall back to the HT-Poisson law.
  bool equal_weights = true;
  for (size_t i = 1; i < n; ++i) {
    if (std::fabs(sample.weights[i] - sample.weights[0]) >
        1e-9 * std::fabs(sample.weights[0])) {
      equal_weights = false;
      break;
    }
  }
  const uint64_t m_units = sample.num_units_sampled;
  const double big_m = static_cast<double>(sample.num_units_population);
  const bool mean_expansion = equal_weights && m_units >= 2 &&
                              sample.num_units_population >= m_units &&
                              sample.num_units_population > 0;
  // Ratio-to-size refinement: when per-unit base sizes are known, totals are
  // estimated as N * (sum y / sum n) — exact for COUNT(*) and immune to
  // ragged block sizes.
  const bool ratio_to_size = mean_expansion &&
                             sample.unit_sizes.size() == m_units &&
                             sample.population_rows > 0;
  double sum_n = 0.0;
  double sum_n2 = 0.0;
  if (ratio_to_size) {
    for (double nu : sample.unit_sizes) {
      sum_n += nu;
      sum_n2 += nu * nu;
    }
  }

  out.estimates.assign(aggs.size(),
                       std::vector<PointEstimate>(out.num_groups));
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggSpec& spec = aggs[a];
    // Per-group sums over *present* cells; units absent from a group
    // contribute zero and are accounted for analytically.
    std::vector<double> sum_y(out.num_groups, 0.0);
    std::vector<double> sum_y2(out.num_groups, 0.0);
    std::vector<double> sum_c(out.num_groups, 0.0);
    std::vector<double> sum_c2(out.num_groups, 0.0);
    std::vector<double> t_y(out.num_groups, 0.0);   // HT totals.
    std::vector<double> t_c(out.num_groups, 0.0);
    std::vector<uint64_t> present(out.num_groups, 0);
    std::vector<double> ht_var(out.num_groups, 0.0);
    for (size_t id = 0; id < cell_keys.size(); ++id) {
      const uint64_t key = cell_keys[id];
      const Cell& cell = cells[a][id];
      uint32_t g = static_cast<uint32_t>(key >> 32);
      sum_y[g] += cell.y;
      sum_y2[g] += cell.y * cell.y;
      sum_c[g] += cell.c;
      sum_c2[g] += cell.c * cell.c;
      t_y[g] += cell.w * cell.y;
      t_c[g] += cell.w * cell.c;
      present[g]++;
    }
    // Residual sums for the AVG ratio (needs the ratio first, hence second
    // pass).
    std::vector<double> sum_d(out.num_groups, 0.0);
    std::vector<double> sum_d2(out.num_groups, 0.0);
    if (spec.kind == AggKind::kAvg) {
      for (size_t id = 0; id < cell_keys.size(); ++id) {
        const uint64_t key = cell_keys[id];
        const Cell& cell = cells[a][id];
        uint32_t g = static_cast<uint32_t>(key >> 32);
        double ratio = sum_c[g] != 0.0 ? sum_y[g] / sum_c[g] : 0.0;
        double d = cell.y - ratio * cell.c;
        sum_d[g] += d;
        sum_d2[g] += d * d;
      }
    }
    // Residual sums for ratio-to-size totals (present cells; absent cells'
    // contribution R^2 * n^2 is added analytically at reduce time).
    std::vector<double> res_y(out.num_groups, 0.0);
    std::vector<double> res_c(out.num_groups, 0.0);
    std::vector<double> n2_present(out.num_groups, 0.0);
    if (ratio_to_size) {
      for (size_t id = 0; id < cell_keys.size(); ++id) {
        const uint64_t key = cell_keys[id];
        const Cell& cell = cells[a][id];
        uint32_t g = static_cast<uint32_t>(key >> 32);
        uint32_t u = static_cast<uint32_t>(key & 0xffffffffu);
        double nu = sample.unit_sizes[u];
        double ry = sum_n > 0.0 ? sum_y[g] / sum_n : 0.0;
        double rc = sum_n > 0.0 ? sum_c[g] / sum_n : 0.0;
        double ey = cell.y - ry * nu;
        double ec = cell.c - rc * nu;
        res_y[g] += ey * ey;
        res_c[g] += ec * ec;
        n2_present[g] += nu * nu;
      }
    }
    if (!mean_expansion) {
      // HT-Poisson variance: sum of w(w-1) v^2 over present cells.
      bool is_avg = spec.kind == AggKind::kAvg;
      for (size_t id = 0; id < cell_keys.size(); ++id) {
        const uint64_t key = cell_keys[id];
        const Cell& cell = cells[a][id];
        uint32_t g = static_cast<uint32_t>(key >> 32);
        double v;
        if (is_avg) {
          double ratio = t_c[g] != 0.0 ? t_y[g] / t_c[g] : 0.0;
          double d = cell.y - ratio * cell.c;
          v = d * d;
        } else if (spec.kind == AggKind::kSum) {
          v = cell.y * cell.y;
        } else {
          v = cell.c * cell.c;
        }
        ht_var[g] += cell.w * std::max(cell.w - 1.0, 0.0) * v;
      }
    }

    for (size_t g = 0; g < out.num_groups; ++g) {
      PointEstimate& pe = out.estimates[a][g];
      if (mean_expansion) {
        const double m = static_cast<double>(m_units);
        const double fpc = 1.0 - m / big_m;
        pe.df = m_units - 1;
        // Sample variance over all m units, absent units counting as zero:
        // sum of squares over present cells already equals the full sum.
        auto unit_variance = [&](double sum, double sum_sq) {
          double mean = sum / m;
          double ss = sum_sq - m * mean * mean;
          return std::max(ss, 0.0) / (m - 1.0);
        };
        // Ratio-to-size total: N * (sum v / sum n) with residual variance
        // e_u = v_u - R n_u (mean of e is exactly zero).
        auto ratio_total = [&](double sum_v, double res_sq_present,
                               double n2_present, PointEstimate* est) {
          double ratio = sum_n > 0.0 ? sum_v / sum_n : 0.0;
          double big_nrows = static_cast<double>(sample.population_rows);
          est->estimate = big_nrows * ratio;
          double res_sq =
              res_sq_present + ratio * ratio * std::max(sum_n2 - n2_present,
                                                        0.0);
          double s_e2 = res_sq / (m - 1.0);
          double n_bar = sum_n / m;
          est->variance = n_bar > 0.0
                              ? big_nrows * big_nrows * fpc * s_e2 /
                                    (m * n_bar * n_bar)
                              : 0.0;
        };
        switch (spec.kind) {
          case AggKind::kSum: {
            if (ratio_to_size) {
              ratio_total(sum_y[g], res_y[g], n2_present[g], &pe);
              break;
            }
            double mean = sum_y[g] / m;
            pe.estimate = big_m * mean;
            pe.variance =
                big_m * big_m * fpc * unit_variance(sum_y[g], sum_y2[g]) / m;
            break;
          }
          case AggKind::kCount:
          case AggKind::kCountStar: {
            if (ratio_to_size) {
              ratio_total(sum_c[g], res_c[g], n2_present[g], &pe);
              break;
            }
            double mean = sum_c[g] / m;
            pe.estimate = big_m * mean;
            pe.variance =
                big_m * big_m * fpc * unit_variance(sum_c[g], sum_c2[g]) / m;
            break;
          }
          case AggKind::kAvg: {
            if (sum_c[g] == 0.0) {
              pe.estimate = 0.0;
              pe.variance = 0.0;
              break;
            }
            pe.estimate = sum_y[g] / sum_c[g];
            double c_bar = sum_c[g] / m;
            double s_d2 = unit_variance(sum_d[g], sum_d2[g]);
            pe.variance = fpc * s_d2 / (m * c_bar * c_bar);
            break;
          }
          default:
            return Status::Internal("unreachable agg kind");
        }
      } else {
        pe.df = present[g] > 0 ? present[g] - 1 : 0;
        switch (spec.kind) {
          case AggKind::kSum:
            pe.estimate = t_y[g];
            pe.variance = ht_var[g];
            break;
          case AggKind::kCount:
          case AggKind::kCountStar:
            pe.estimate = t_c[g];
            pe.variance = ht_var[g];
            break;
          case AggKind::kAvg:
            if (t_c[g] == 0.0) {
              pe.estimate = 0.0;
              pe.variance = 0.0;
            } else {
              pe.estimate = t_y[g] / t_c[g];
              pe.variance = ht_var[g] / (t_c[g] * t_c[g]);
            }
            break;
          default:
            return Status::Internal("unreachable agg kind");
        }
      }
    }
  }
  return out;
}

}  // namespace core
}  // namespace aqp
