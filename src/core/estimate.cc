#include "core/estimate.h"

#include <algorithm>
#include <cmath>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "expr/eval.h"
#include "expr/vector_eval.h"

namespace aqp {
namespace core {
namespace {

// Totals of one (group, unit) cell for one aggregate.
struct Cell {
  double y = 0.0;  // Sum of the measure over the cell's rows.
  double c = 0.0;  // Count of non-null qualifying rows (COUNT semantics).
};

// The (group, unit) cells of a run of whole units, in first-appearance
// order. Cell k is group[k] within unit[k]; w[k] is the HT weight of its
// last row (constant within a unit for every design), sums[a][k] its totals
// for aggregate a, and first_row[k] its first input row (kept only when the
// rows were reordered by unit).
struct CellBlock {
  std::vector<uint32_t> group, unit, first_row;
  std::vector<double> w;
  std::vector<std::vector<Cell>> sums;

  size_t size() const { return group.size(); }
  // Bytes of one cell with its first row kept.
  static uint64_t CellBytes(size_t num_aggs) {
    return 3 * sizeof(uint32_t) + sizeof(double) + num_aggs * sizeof(Cell);
  }
  uint64_t ApproxBytes() const {
    uint64_t bytes = (group.capacity() + unit.capacity() +
                      first_row.capacity()) * sizeof(uint32_t) +
                     w.capacity() * sizeof(double);
    for (const std::vector<Cell>& s : sums) {
      bytes += s.capacity() * sizeof(Cell);
    }
    return bytes;
  }
};

// What the cell builder reads of one aggregate: its kind and, unless it is
// COUNT(*), its numeric argument.
struct AggInput {
  AggKind kind;
  const Column* arg;
};

// The per-group slots a cell builder reuses across units: slot g holds
// (stamp << 32 | cell) for group g's cell in the unit stamped `stamp`, so a
// new unit invalidates every slot by taking the next stamp (one builder
// never sees 2^32 units: a unit holds at least one of its input rows).
struct Slots {
  std::vector<uint64_t> slot;
  uint64_t stamp = 0;
};

// Builds the cells of input positions [begin, end), a run of whole units,
// into *out. Position p is input row rows[p] (p itself when `rows` is null).
// Each cell sums its rows in input order, so a cell's totals do not depend
// on where the chunk boundaries fall.
template <typename UnitOf, typename WeightOf>
void BuildCells(size_t begin, size_t end, const uint32_t* rows,
                const uint32_t* gids, UnitOf unit_of, WeightOf weight_of,
                const std::vector<AggInput>& aggs, Slots& slots,
                std::vector<uint32_t>& cell_of, CellBlock* out) {
  auto row = [rows](size_t p) {
    return rows != nullptr ? rows[p] : static_cast<uint32_t>(p);
  };
  cell_of.resize(end - begin);
  uint32_t unit = 0;
  for (size_t p = begin; p < end; ++p) {
    const uint32_t r = row(p);
    const uint32_t u = unit_of(r);
    if (p == begin || u != unit) {
      ++slots.stamp;
      unit = u;
    }
    const uint32_t g = gids[r];
    uint64_t& slot = slots.slot[g];
    if ((slot >> 32) != slots.stamp) {
      slot = slots.stamp << 32 | out->size();
      out->group.push_back(g);
      out->unit.push_back(u);
      out->w.push_back(0.0);
      if (rows != nullptr) out->first_row.push_back(r);
    }
    const uint32_t id = static_cast<uint32_t>(slot);
    out->w[id] = weight_of(r);
    cell_of[p - begin] = id;
  }
  out->sums.resize(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    std::vector<Cell>& sums = out->sums[a];
    sums.assign(out->size(), Cell{});
    const Column* arg = aggs[a].arg;
    if (aggs[a].kind == AggKind::kCountStar) {
      for (size_t p = begin; p < end; ++p) sums[cell_of[p - begin]].c += 1.0;
      continue;
    }
    const uint8_t* valid = arg->has_nulls() ? arg->validity() : nullptr;
    if (aggs[a].kind == AggKind::kCount) {
      for (size_t p = begin; p < end; ++p) {
        if (valid == nullptr || valid[row(p)] != 0) {
          sums[cell_of[p - begin]].c += 1.0;
        }
      }
      continue;
    }
    // SUM / AVG.
    auto accumulate = [&](auto value_at) {
      for (size_t p = begin; p < end; ++p) {
        const uint32_t r = row(p);
        if (valid != nullptr && valid[r] == 0) continue;
        Cell& cell = sums[cell_of[p - begin]];
        cell.y += value_at(r);
        cell.c += 1.0;
      }
    };
    if (arg->type() == DataType::kDouble) {
      const double* v = arg->double_data();
      accumulate([v](uint32_t r) { return v[r]; });
    } else {
      const int64_t* v = arg->int64_data();
      accumulate([v](uint32_t r) { return static_cast<double>(v[r]); });
    }
  }
}

// The `num_cells` cells of `blocks` as one block, in order of their first
// rows: the order a walk over the input rows meets them. Besides the block
// it returns, it allocates one (block, cell) pair per cell.
CellBlock InFirstRowOrder(const std::vector<CellBlock>& blocks,
                          size_t num_cells, size_t num_aggs) {
  std::vector<std::pair<uint32_t, uint32_t>> order;  // (block, cell).
  order.reserve(num_cells);
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t k = 0; k < blocks[b].size(); ++k) {
      order.emplace_back(static_cast<uint32_t>(b), static_cast<uint32_t>(k));
    }
  }
  std::sort(order.begin(), order.end(), [&](const auto& x, const auto& y) {
    return blocks[x.first].first_row[x.second] <
           blocks[y.first].first_row[y.second];
  });
  CellBlock out;
  out.group.reserve(num_cells);
  out.unit.reserve(num_cells);
  out.first_row.reserve(num_cells);
  out.w.reserve(num_cells);
  out.sums.resize(num_aggs);
  for (std::vector<Cell>& sums : out.sums) sums.reserve(num_cells);
  for (const auto& [b, k] : order) {
    const CellBlock& from = blocks[b];
    out.group.push_back(from.group[k]);
    out.unit.push_back(from.unit[k]);
    out.first_row.push_back(from.first_row[k]);
    out.w.push_back(from.w[k]);
    for (size_t a = 0; a < num_aggs; ++a) {
      out.sums[a].push_back(from.sums[a][k]);
    }
  }
  return out;
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

// True when every row of `sample` weighs 1 / nominal_rate: its design kept
// every unit with one probability. Equal weights alone do not show it: a
// filter can leave only the rows of one stratum of a stratified sample.
bool EqualProbability(const Sample& sample) {
  for (double w : sample.weights) {
    if (std::fabs(w * sample.nominal_rate - 1.0) > 1e-9) return false;
  }
  return true;
}

// The estimator body both entries share. Row i of `t` belongs to unit
// `unit_of(i)` with HT weight `weight_of(i)`; unit u spans `size_of(u)`
// base rows (read only when `facts.sized`).
//
// The (group, unit) cells are built unit by unit: no cell spans two units,
// so a unit's cells need only a slot per group, invalidated when the unit
// ends. The input splits into chunks of whole units that build their cells
// morsel-parallel; chunk order is input order, so the concatenated cells
// are in first-appearance order — the order a serial walk over the rows
// creates them — and every per-group sum below runs in that fixed order,
// for any thread count. Rows whose units do not come in ascending runs
// (the sampled table on a join's build side) are first ordered by a stable
// sort, and their cells put back in first-row order afterwards.
template <typename UnitOf, typename WeightOf, typename SizeOf>
Result<GroupedEstimates> Estimate(const Table& t, UnitOf unit_of,
                                  WeightOf weight_of, SizeOf size_of,
                                  const DesignFacts& facts,
                                  const std::vector<ExprPtr>& group_exprs,
                                  const std::vector<AggSpec>& aggs,
                                  const ExecOptions* exec) {
  for (const AggSpec& spec : aggs) {
    if (!IsLinearAgg(spec.kind)) {
      return Status::InvalidArgument(
          std::string("non-linear aggregate not estimable from samples: ") +
          std::string(AggKindName(spec.kind)));
    }
  }
  const size_t n = t.num_rows();
  MemoryTracker* memory = exec != nullptr ? exec->memory : nullptr;

  AQP_ASSIGN_OR_RETURN(GroupIndex index, BuildGroupIndex(t, group_exprs));
  uint64_t index_bytes = index.group_ids.capacity() * sizeof(uint32_t);
  for (const Column& k : index.key_columns) index_bytes += k.ApproxBytes();
  AQP_ASSIGN_OR_RETURN(
      ScopedMemoryCharge index_charge,
      ScopedMemoryCharge::Make(memory, index_bytes, "estimate state"));

  GroupedEstimates out;
  out.num_groups = group_exprs.empty() ? 1 : index.num_groups;
  // Materialize group keys table.
  {
    Schema key_schema;
    std::vector<Column> key_cols;
    for (size_t g = 0; g < group_exprs.size(); ++g) {
      key_schema.AddField({"key_" + std::to_string(g),
                           index.key_columns[g].type()});
      key_cols.push_back(std::move(index.key_columns[g]));
    }
    AQP_ASSIGN_OR_RETURN(out.group_keys,
                         Table::Make(std::move(key_schema),
                                     std::move(key_cols)));
  }

  // Evaluate aggregate arguments once; bare column refs are borrowed.
  std::vector<EvaluatedColumn> arg_cols;
  std::vector<AggInput> inputs;
  for (const AggSpec& spec : aggs) {
    if (spec.kind == AggKind::kCountStar) {
      inputs.push_back({spec.kind, nullptr});
      continue;
    }
    if (spec.arg == nullptr) {
      return Status::InvalidArgument("aggregate argument missing");
    }
    AQP_ASSIGN_OR_RETURN(EvaluatedColumn c, EvalBorrowed(*spec.arg, t));
    if (!IsNumeric(c.column->type())) {
      return Status::InvalidArgument("aggregate argument must be numeric");
    }
    inputs.push_back({spec.kind, c.column});
    arg_cols.push_back(std::move(c));
  }

  // Order the rows by unit, stably, unless units already come in ascending
  // runs, as every sampled scan and stored sample emits them.
  std::vector<uint32_t> order;
  for (size_t i = 1; i < n; ++i) {
    if (unit_of(i) < unit_of(i - 1)) {
      order.resize(n);
      for (size_t r = 0; r < n; ++r) order[r] = static_cast<uint32_t>(r);
      std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
        return unit_of(x) < unit_of(y);
      });
      break;
    }
  }
  const uint32_t* rows = order.empty() ? nullptr : order.data();
  auto unit_at = [&](size_t p) {
    return unit_of(rows != nullptr ? rows[p] : p);
  };

  // Chunks of about morsel_rows positions, each ending at a unit boundary.
  // The boundaries depend on the input alone, never on the thread count.
  const bool parallel = exec != nullptr && exec->UseMorsels(n);
  std::vector<size_t> bounds{0};
  if (parallel) {
    for (size_t b = exec->morsel_rows; b < n; b += exec->morsel_rows) {
      while (b < n && unit_at(b) == unit_at(b - 1)) ++b;
      if (b < n) bounds.push_back(b);
    }
  }
  if (n > 0) bounds.push_back(n);
  const size_t num_chunks = bounds.size() - 1;

  std::vector<CellBlock> blocks(num_chunks);
  struct Scratch {
    Slots slots;
    std::vector<uint32_t> cell_of;
  };
  const size_t num_threads = parallel ? exec->ResolvedThreads() : 1;
  // Every worker that builds a chunk holds a slot per group.
  AQP_ASSIGN_OR_RETURN(
      ScopedMemoryCharge slot_charge,
      ScopedMemoryCharge::Make(memory,
                               std::min(num_threads, num_chunks) *
                                   index.num_groups * sizeof(uint64_t),
                               "estimate state"));
  std::vector<Scratch> scratch(num_threads);
  auto build = [&](size_t worker, size_t c, size_t, size_t) {
    Scratch& s = scratch[worker];
    if (s.slots.slot.empty()) s.slots.slot.assign(index.num_groups, 0);
    BuildCells(bounds[c], bounds[c + 1], rows, index.group_ids.data(),
               unit_of, weight_of, inputs, s.slots, s.cell_of, &blocks[c]);
  };
  if (!parallel) {
    for (size_t c = 0; c < num_chunks; ++c) build(0, c, c, c + 1);
  } else {
    ThreadPool::Shared().ParallelFor(num_chunks, 1, num_threads,
                                     {exec->cancel}, build);
    AQP_RETURN_IF_ERROR(CheckCancelled(exec->cancel));
  }
  scratch.clear();
  slot_charge.Reset();
  uint64_t cell_bytes = order.capacity() * sizeof(uint32_t);
  for (const CellBlock& b : blocks) {
    cell_bytes += b.ApproxBytes();
    out.num_cells += b.size();
  }
  AQP_ASSIGN_OR_RETURN(
      ScopedMemoryCharge cell_charge,
      ScopedMemoryCharge::Make(memory, cell_bytes, "estimate state"));
  // The reordered copy lives beside the blocks it is made from; its charge
  // stays until the estimate returns.
  ScopedMemoryCharge merge_charge;
  if (rows != nullptr) {
    AQP_ASSIGN_OR_RETURN(
        merge_charge,
        ScopedMemoryCharge::Make(
            memory,
            out.num_cells * (CellBlock::CellBytes(aggs.size()) +
                             sizeof(std::pair<uint32_t, uint32_t>)),
            "estimate state"));
    CellBlock merged = InFirstRowOrder(blocks, out.num_cells, aggs.size());
    blocks.clear();
    blocks.push_back(std::move(merged));
  }
  // Visits every cell in first-appearance order with its totals for
  // aggregate a.
  auto for_each_cell = [&blocks](size_t a, auto fn) {
    for (const CellBlock& b : blocks) {
      const std::vector<Cell>& sums = b.sums[a];
      for (size_t k = 0; k < b.size(); ++k) {
        fn(b.group[k], b.unit[k], b.w[k], sums[k]);
      }
    }
  };

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
    for_each_cell(a, [&](uint32_t g, uint32_t, double w, const Cell& cell) {
      sum_y[g] += cell.y;
      sum_y2[g] += cell.y * cell.y;
      sum_c[g] += cell.c;
      sum_c2[g] += cell.c * cell.c;
      t_y[g] += w * cell.y;
      t_c[g] += w * cell.c;
      present[g]++;
    });
    // Residual sums for the AVG ratio (needs the ratio first, hence second
    // pass).
    std::vector<double> sum_d(out.num_groups, 0.0);
    std::vector<double> sum_d2(out.num_groups, 0.0);
    // Each pass divides once per group, not once per cell.
    std::vector<double> ratio(out.num_groups, 0.0);
    if (spec.kind == AggKind::kAvg) {
      for (size_t g = 0; g < out.num_groups; ++g) {
        ratio[g] = sum_c[g] != 0.0 ? sum_y[g] / sum_c[g] : 0.0;
      }
      for_each_cell(a, [&](uint32_t g, uint32_t, double, const Cell& cell) {
        double d = cell.y - ratio[g] * cell.c;
        sum_d[g] += d;
        sum_d2[g] += d * d;
      });
    }
    // Residual sums for ratio-to-size totals (present cells; absent cells'
    // contribution R^2 * n^2 is added analytically at reduce time).
    std::vector<double> res_y(out.num_groups, 0.0);
    std::vector<double> res_c(out.num_groups, 0.0);
    std::vector<double> n2_present(out.num_groups, 0.0);
    if (ratio_to_size) {
      std::vector<double> ratio_c(out.num_groups, 0.0);
      for (size_t g = 0; g < out.num_groups; ++g) {
        ratio[g] = sum_n > 0.0 ? sum_y[g] / sum_n : 0.0;
        ratio_c[g] = sum_n > 0.0 ? sum_c[g] / sum_n : 0.0;
      }
      for_each_cell(a, [&](uint32_t g, uint32_t u, double, const Cell& cell) {
        const double nu = size_of(u);
        double ey = cell.y - ratio[g] * nu;
        double ec = cell.c - ratio_c[g] * nu;
        res_y[g] += ey * ey;
        res_c[g] += ec * ec;
        n2_present[g] += nu * nu;
      });
    }
    if (!mean_expansion) {
      // HT-Poisson variance: sum of w(w-1) v^2 over present cells.
      bool is_avg = spec.kind == AggKind::kAvg;
      for (size_t g = 0; is_avg && g < out.num_groups; ++g) {
        ratio[g] = t_c[g] != 0.0 ? t_y[g] / t_c[g] : 0.0;
      }
      for_each_cell(a, [&](uint32_t g, uint32_t, double w, const Cell& cell) {
        double v;
        if (is_avg) {
          double d = cell.y - ratio[g] * cell.c;
          v = d * d;
        } else if (spec.kind == AggKind::kSum) {
          v = cell.y * cell.y;
        } else {
          v = cell.c * cell.c;
        }
        ht_var[g] += w * std::max(w - 1.0, 0.0) * v;
      });
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
          case AggKind::kSum:
          case AggKind::kCount:
          case AggKind::kCountStar: {
            const bool sum = spec.kind == AggKind::kSum;
            const double total = sum ? sum_y[g] : sum_c[g];
            if (ratio_to_size) {
              ratio_total(total, sum ? res_y[g] : res_c[g], n2_present[g],
                          &pe);
              break;
            }
            pe.estimate = big_m * (total / m);
            pe.variance = big_m * big_m * fpc *
                          unit_variance(total, sum ? sum_y2[g] : sum_c2[g]) /
                          m;
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
          case AggKind::kCount:
          case AggKind::kCountStar:
            pe.estimate = spec.kind == AggKind::kSum ? t_y[g] : t_c[g];
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

Result<GroupedEstimates> EstimateGroupedAggregates(
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
  const DesignFacts facts{sample.num_units_sampled,
                          sample.num_units_population, sample.population_rows,
                          EqualProbability(sample),
                          sample.unit_sizes.size() == sample.num_units_sampled,
                          sum_n, sum_n2};
  return Estimate(
      sample.table, [&](size_t i) { return sample.unit_ids[i]; },
      [&](size_t i) { return sample.weights[i]; },
      [&](uint32_t u) { return sample.unit_sizes[u]; }, facts, group_exprs,
      aggs, /*exec=*/nullptr);
}

Result<Sample> FilterSample(const Sample& sample, const ExprPtr& predicate,
                            const ExecOptions& exec,
                            ParallelRunStats* run_stats) {
  const bool use_morsels = exec.UseMorsels(sample.table.num_rows());
  const size_t threads = use_morsels ? exec.ResolvedThreads() : 1;
  AQP_ASSIGN_OR_RETURN(
      std::vector<uint32_t> selected,
      EvalPredicateBatch(*predicate, sample.table, exec.morsel_rows, threads,
                         run_stats, exec.cancel, exec.memory));
  AQP_RETURN_IF_ERROR(CheckCancelled(exec.cancel));
  Sample out;
  out.table = use_morsels ? sample.table.Take(selected, threads, run_stats)
                          : sample.table.Take(selected);
  out.weights.reserve(selected.size());
  out.unit_ids.reserve(selected.size());
  for (uint32_t i : selected) {
    out.weights.push_back(sample.weights[i]);
    out.unit_ids.push_back(sample.unit_ids[i]);
  }
  out.unit_sizes = sample.unit_sizes;
  out.num_units_sampled = sample.num_units_sampled;
  out.num_units_population = sample.num_units_population;
  out.nominal_rate = sample.nominal_rate;
  out.population_rows = sample.population_rows;
  return out;
}

Result<GroupedEstimates> EstimateGroupedAggregates(
    const Table& rows, const SampleDesign& design,
    const std::vector<ExprPtr>& group_exprs,
    const std::vector<AggSpec>& aggs, const ExecOptions* exec) {
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
      facts, group_exprs, aggs, exec);
}

}  // namespace core
}  // namespace aqp
