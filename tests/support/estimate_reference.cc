#include "support/estimate_reference.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/hash.h"
#include "common/hash_id_table.h"
#include "expr/eval.h"

namespace aqp {
namespace testutil {
namespace {

using core::GroupedEstimates;
using core::PointEstimate;
using core::SampleDesign;

// Accumulated totals of one (group, unit) cell for one aggregate.
struct Cell {
  double y = 0.0;  // Sum of the measure over the cell's rows.
  double c = 0.0;  // Count of non-null qualifying rows (COUNT semantics).
  double w = 0.0;  // The unit's HT weight (constant within a unit).
};

uint64_t CellKey(uint32_t group, uint32_t unit) {
  return (static_cast<uint64_t>(group) << 32) | unit;
}

// A design as the estimator body reads it, beyond rows, units and weights:
// `equal_probability` when every unit was kept with the same probability;
// `sized` when every sampled unit's base rows are known; they sum to sum_n,
// their squares to sum_n2.
struct DesignFacts {
  uint64_t units_sampled, units_population, population_rows;
  bool equal_probability, sized;
  double sum_n, sum_n2;
};

// The estimator body both entries share. Row i of `t` belongs to unit
// `unit_of(i)` with HT weight `weight_of(i)`; unit u spans `size_of(u)`
// base rows (read only when `facts.sized`).
template <typename UnitOf, typename WeightOf, typename SizeOf>
Result<GroupedEstimates> Estimate(const Table& t, UnitOf unit_of,
                                  WeightOf weight_of, SizeOf size_of,
                                  const DesignFacts& facts,
                                  const std::vector<ExprPtr>& group_exprs,
                                  const std::vector<AggSpec>& aggs) {
  for (const AggSpec& spec : aggs) {
    if (!IsLinearAgg(spec.kind)) {
      return Status::InvalidArgument(
          std::string("non-linear aggregate not estimable from samples: ") +
          std::string(AggKindName(spec.kind)));
    }
  }
  const size_t n = t.num_rows();

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

  // Evaluate aggregate arguments once; bare column refs are borrowed.
  std::vector<EvaluatedColumn> arg_cols;
  for (const AggSpec& spec : aggs) {
    if (spec.kind == AggKind::kCountStar || spec.arg == nullptr) {
      arg_cols.emplace_back();  // Unused.
      continue;
    }
    AQP_ASSIGN_OR_RETURN(EvaluatedColumn c, EvalBorrowed(*spec.arg, t));
    if (!IsNumeric(c.column->type())) {
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
    const uint64_t key = CellKey(index.group_ids[i], unit_of(i));
    bool inserted = false;
    const uint32_t id = cell_ids.FindOrInsert(
        Mix64(key), [&](uint32_t cand) { return cell_keys[cand] == key; },
        &inserted);
    if (inserted) {
      cell_keys.push_back(key);
      for (std::vector<Cell>& v : cells) v.emplace_back();
    }
    const double w = weight_of(i);
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggSpec& spec = aggs[a];
      Cell& cell = cells[a][id];
      cell.w = w;
      if (spec.kind == AggKind::kCountStar) {
        cell.c += 1.0;
        continue;
      }
      const Column& arg = *arg_cols[a].column;
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

  out.num_cells = cell_keys.size();

  // Equal-probability designs (Bernoulli row/block, reservoir) admit the
  // mean-expansion estimator T = M * mean_u(y_u), whose variance is driven
  // by per-unit DISPERSION rather than raw unit totals — dramatically
  // tighter than Horvitz–Thompson for SUM/COUNT because the random sample
  // size cancels. Unequal-probability designs fall back to the HT-Poisson law.
  const uint64_t m_units = facts.units_sampled;
  const double big_m = static_cast<double>(facts.units_population);
  const bool mean_expansion = facts.equal_probability && m_units >= 2 &&
                              facts.units_population >= m_units &&
                              facts.units_population > 0;
  // Ratio-to-size refinement: when per-unit base sizes are known, totals are
  // estimated as N * (sum y / sum n) — exact for COUNT(*) and immune to
  // ragged block sizes.
  const bool ratio_to_size =
      mean_expansion && facts.sized && facts.population_rows > 0;
  const double sum_n = facts.sum_n;
  const double sum_n2 = facts.sum_n2;

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
        const double nu = size_of(u);
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
          double big_nrows = static_cast<double>(facts.population_rows);
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

}  // namespace

Result<GroupedEstimates> EstimateReference(
    const Sample& sample, const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs) {
  AQP_CHECK(sample.weights.size() == sample.num_rows());
  AQP_CHECK(sample.unit_ids.size() == sample.num_rows());
  double sum_n = 0.0;
  double sum_n2 = 0.0;
  for (double nu : sample.unit_sizes) {
    sum_n += nu;
    sum_n2 += nu * nu;
  }
  // Equal probability: every row weighs 1 / nominal_rate.
  bool equal_probability = true;
  for (size_t i = 0; i < sample.num_rows(); ++i) {
    if (std::fabs(sample.weights[i] * sample.nominal_rate - 1.0) > 1e-9) {
      equal_probability = false;
    }
  }
  const DesignFacts facts{sample.num_units_sampled,
                          sample.num_units_population, sample.population_rows,
                          equal_probability,
                          sample.unit_sizes.size() == sample.num_units_sampled,
                          sum_n, sum_n2};
  return Estimate(
      sample.table, [&](size_t i) { return sample.unit_ids[i]; },
      [&](size_t i) { return sample.weights[i]; },
      [&](uint32_t u) { return sample.unit_sizes[u]; }, facts, group_exprs,
      aggs);
}

Result<GroupedEstimates> EstimateReference(
    const Table& rows, const SampleDesign& design,
    const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs) {
  AQP_CHECK(design.rate > 0.0 && design.unit_rows > 0);
  AQP_ASSIGN_OR_RETURN(size_t unit_col, rows.ColumnIndex("__unit"));
  AQP_CHECK(rows.column(unit_col).type() == DataType::kInt64);
  const int64_t* units = rows.column(unit_col).int64_data();
  const uint64_t big_n = design.population_rows;
  const uint64_t k = design.unit_rows;
  const double weight = 1.0 / design.rate;
  const DesignFacts facts{design.drawn.units, (big_n + k - 1) / k, big_n,
                          true, true, static_cast<double>(design.drawn.rows),
                          static_cast<double>(design.drawn.rows_squared)};
  return Estimate(
      rows, [&](size_t i) { return static_cast<uint32_t>(units[i]); },
      [&](size_t) { return weight; },
      [&](uint32_t u) {
        return static_cast<double>(std::min(k, big_n - u * k));
      },
      facts, group_exprs, aggs);
}

}  // namespace testutil
}  // namespace aqp
