#include "support/row_reference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "engine/aggregate.h"
#include "engine/executor.h"
#include "expr/eval.h"
#include "storage/value.h"

namespace aqp {
namespace testutil {
namespace {

using TablePtr = std::shared_ptr<const Table>;

struct RowContext {
  const Catalog& catalog;
  const ExecOptions& options;
};

Result<TablePtr> Run(const PlanPtr& plan, const RowContext& ctx);

TablePtr Own(Table t) { return std::make_shared<const Table>(std::move(t)); }

// Copies `rows` of `t`, in order, one row at a time.
Table GatherRows(const Table& t, const std::vector<uint32_t>& rows) {
  Table out(t.schema());
  for (uint32_t r : rows) out.AppendRowFrom(t, r);
  return out;
}

Result<TablePtr> RunScan(const PlanPtr& plan, const RowContext& ctx) {
  if (!plan->sample().is_sampled()) {
    return ReadTable(ctx.catalog, plan->table_name(), nullptr, ctx.options);
  }
  AQP_ASSIGN_OR_RETURN(
      Table t, Execute(plan, ctx.catalog, nullptr, nullptr, ctx.options));
  return Own(std::move(t));
}

Result<TablePtr> RunFilter(const PlanNode& node, const Table& input) {
  AQP_ASSIGN_OR_RETURN(std::vector<uint32_t> selected,
                       EvalPredicate(*node.predicate(), input));
  return Own(GatherRows(input, selected));
}

Result<TablePtr> RunProject(const PlanNode& node, const Table& input) {
  Schema schema;
  std::vector<Column> columns;
  for (size_t i = 0; i < node.exprs().size(); ++i) {
    AQP_ASSIGN_OR_RETURN(Column c, Eval(*node.exprs()[i], input));
    schema.AddField({node.names()[i], c.type()});
    columns.push_back(std::move(c));
  }
  AQP_ASSIGN_OR_RETURN(Table out,
                       Table::Make(std::move(schema), std::move(columns)));
  return Own(std::move(out));
}

// Hash of the key columns `keys` at row `i`, or false when a key part is
// NULL (NULL keys never join).
bool JoinKeyHash(const Table& t, const std::vector<size_t>& keys, size_t i,
                 uint64_t* h) {
  *h = 0x2545f4914f6cdd1dULL;
  for (size_t k : keys) {
    if (t.column(k).IsNull(i)) return false;
    *h = HashCombine(*h, t.column(k).HashAt(i));
  }
  return true;
}

// Build side right; output is all left fields then all right fields, left
// rows in order, each with its matches in right-row order, unmatched LEFT
// rows NULL-extended.
Result<TablePtr> RunJoin(const PlanNode& node, const Table& left,
                         const Table& right) {
  std::vector<size_t> lkeys;
  std::vector<size_t> rkeys;
  for (const std::string& k : node.left_keys()) {
    AQP_ASSIGN_OR_RETURN(size_t idx, left.ColumnIndex(k));
    lkeys.push_back(idx);
  }
  for (const std::string& k : node.right_keys()) {
    AQP_ASSIGN_OR_RETURN(size_t idx, right.ColumnIndex(k));
    rkeys.push_back(idx);
  }
  for (size_t k = 0; k < lkeys.size(); ++k) {
    if (left.column(lkeys[k]).type() != right.column(rkeys[k]).type()) {
      return Status::InvalidArgument("join key type mismatch: " +
                                     node.left_keys()[k] + " vs " +
                                     node.right_keys()[k]);
    }
  }
  std::unordered_map<uint64_t, std::vector<uint32_t>> build;
  for (size_t j = 0; j < right.num_rows(); ++j) {
    uint64_t h;
    if (JoinKeyHash(right, rkeys, j, &h)) {
      build[h].push_back(static_cast<uint32_t>(j));
    }
  }
  Schema schema;
  for (const Field& f : left.schema().fields()) schema.AddField(f);
  for (const Field& f : right.schema().fields()) schema.AddField(f);
  std::vector<Column> out;
  for (const Field& f : schema.fields()) out.emplace_back(f.type);
  auto emit = [&](size_t li, const uint32_t* rj) {
    for (size_t c = 0; c < left.num_columns(); ++c) {
      out[c].AppendFrom(left.column(c), li);
    }
    for (size_t c = 0; c < right.num_columns(); ++c) {
      Column& dst = out[left.num_columns() + c];
      if (rj == nullptr) {
        dst.AppendNull();
      } else {
        dst.AppendFrom(right.column(c), *rj);
      }
    }
  };
  for (size_t i = 0; i < left.num_rows(); ++i) {
    bool matched = false;
    uint64_t h;
    if (JoinKeyHash(left, lkeys, i, &h)) {
      auto it = build.find(h);
      if (it != build.end()) {
        for (const uint32_t& j : it->second) {
          bool equal = true;
          for (size_t k = 0; k < lkeys.size() && equal; ++k) {
            equal = left.column(lkeys[k])
                        .SlotEquals(i, right.column(rkeys[k]), j);
          }
          if (equal) {
            emit(i, &j);
            matched = true;
          }
        }
      }
    }
    if (!matched && node.join_type() == JoinType::kLeftOuter) {
      emit(i, nullptr);
    }
  }
  AQP_ASSIGN_OR_RETURN(Table t, Table::Make(std::move(schema), std::move(out)));
  return Own(std::move(t));
}

// ---- Aggregates -------------------------------------------------------------
// The oracle's own accumulator, merge and finalization: every field any
// aggregate kind needs, folded one row at a time. None of it is shared with
// the engine it checks.

// Running state of one aggregate for one group.
struct AggAccumulator {
  double weighted_sum = 0.0;  // Sum of x over non-null args.
  double weight_total = 0.0;  // Non-null args (or all rows), as a double.
  uint64_t count = 0;         // The same count, as an integer.
  double mean = 0.0;          // Welford, for VAR/STDDEV.
  double m2 = 0.0;
  bool has_value = false;  // MIN/MAX: a non-NULL value was seen.
  Value min_v;
  Value max_v;
  std::unordered_set<uint64_t> distinct;  // Hashes for COUNT DISTINCT.

  // Folds `other` in: the sums add, MIN/MAX compare, the distinct sets
  // union, and the variance state combines with the Chan et al. (1979)
  // parallel-Welford formula.
  void Merge(const AggAccumulator& other);
};

int CompareValues(const Value& a, const Value& b) {
  return TryCompareValues(a, b).value_or(0);
}

// Folds row `i` of `arg` (null only for COUNT(*)) into `st`.
void AccumulateRow(AggAccumulator& st, AggKind kind, const Column* arg,
                   size_t i) {
  if (kind == AggKind::kCountStar) {
    st.weight_total += 1.0;
    ++st.count;
    return;
  }
  if (arg->IsNull(i)) return;
  switch (kind) {
    case AggKind::kCount:
      st.weight_total += 1.0;
      ++st.count;
      break;
    case AggKind::kSum:
    case AggKind::kAvg: {
      double x = arg->NumericAt(i);
      st.weighted_sum += x;
      st.weight_total += 1.0;
      ++st.count;
      break;
    }
    case AggKind::kVar:
    case AggKind::kStddev: {
      double x = arg->NumericAt(i);
      ++st.count;
      double delta = x - st.mean;
      st.mean += delta / static_cast<double>(st.count);
      st.m2 += delta * (x - st.mean);
      break;
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      Value v = arg->GetValue(i);
      if (!st.has_value) {
        st.min_v = v;
        st.max_v = v;
        st.has_value = true;
      } else {
        if (CompareValues(v, st.min_v) < 0) st.min_v = v;
        if (CompareValues(v, st.max_v) > 0) st.max_v = std::move(v);
      }
      break;
    }
    case AggKind::kCountDistinct:
      st.distinct.insert(arg->HashAt(i, /*seed=*/17));
      break;
    case AggKind::kCountStar:
      break;  // Handled above.
  }
}

void AggAccumulator::Merge(const AggAccumulator& other) {
  weighted_sum += other.weighted_sum;
  weight_total += other.weight_total;
  if (other.count > 0) {
    if (count == 0) {
      mean = other.mean;
      m2 = other.m2;
    } else {
      double na = static_cast<double>(count);
      double nb = static_cast<double>(other.count);
      double delta = other.mean - mean;
      double nn = na + nb;
      mean += delta * (nb / nn);
      m2 += other.m2 + delta * delta * (na * nb / nn);
    }
  }
  count += other.count;
  if (other.has_value) {
    if (!has_value) {
      min_v = other.min_v;
      max_v = other.max_v;
      has_value = true;
    } else {
      if (CompareValues(other.min_v, min_v) < 0) min_v = other.min_v;
      if (CompareValues(other.max_v, max_v) > 0) max_v = other.max_v;
    }
  }
  distinct.insert(other.distinct.begin(), other.distinct.end());
}

// NaN payloads and signs depend on the hardware and on operand order, so a
// NaN result is written as the one canonical quiet NaN.
double CanonicalNaN(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::quiet_NaN() : v;
}

// The final value of one aggregate from its accumulator.
Status AppendFinal(AggKind kind, const AggAccumulator& st, Column& col) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      col.AppendInt64(static_cast<int64_t>(std::llround(st.weight_total)));
      break;
    case AggKind::kSum:
      if (st.count == 0) {
        col.AppendNull();
      } else {
        col.AppendDouble(CanonicalNaN(st.weighted_sum));
      }
      break;
    case AggKind::kAvg:
      if (st.weight_total == 0.0) {
        col.AppendNull();
      } else {
        col.AppendDouble(CanonicalNaN(st.weighted_sum / st.weight_total));
      }
      break;
    case AggKind::kVar:
      if (st.count < 2) {
        col.AppendNull();
      } else {
        col.AppendDouble(
            CanonicalNaN(st.m2 / static_cast<double>(st.count - 1)));
      }
      break;
    case AggKind::kStddev:
      if (st.count < 2) {
        col.AppendNull();
      } else {
        col.AppendDouble(CanonicalNaN(
            std::sqrt(st.m2 / static_cast<double>(st.count - 1))));
      }
      break;
    case AggKind::kMin:
      if (!st.has_value) {
        col.AppendNull();
      } else {
        return col.AppendValue(st.min_v);
      }
      break;
    case AggKind::kMax:
      if (!st.has_value) {
        col.AppendNull();
      } else {
        return col.AppendValue(st.max_v);
      }
      break;
    case AggKind::kCountDistinct:
      col.AppendInt64(static_cast<int64_t>(st.distinct.size()));
      break;
  }
  return Status::OK();
}

// The aggregation output: the key columns (named `group_names`), then one
// column per aggregate, of type `out_types[a]`, finalized from
// `states[a][g]` for each of the `num_groups` groups.
Result<Table> FinalizeAggregates(
    std::vector<Column> key_columns,
    const std::vector<std::string>& group_names,
    const std::vector<AggSpec>& aggs, const std::vector<DataType>& out_types,
    const std::vector<std::vector<AggAccumulator>>& states, size_t num_groups) {
  Schema out_schema;
  std::vector<Column> out_columns;
  for (size_t c = 0; c < key_columns.size(); ++c) {
    out_schema.AddField({group_names[c], key_columns[c].type()});
    out_columns.push_back(std::move(key_columns[c]));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    out_schema.AddField({aggs[a].alias, out_types[a]});
    Column col(out_types[a]);
    col.Reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      AQP_RETURN_IF_ERROR(AppendFinal(aggs[a].kind, states[a][g], col));
    }
    out_columns.push_back(std::move(col));
  }
  return Table::Make(std::move(out_schema), std::move(out_columns));
}

Result<TablePtr> RunAggregate(const PlanNode& node, const Table& input,
                              const ExecOptions& options) {
  const std::vector<AggSpec>& aggs = node.aggs();
  if (node.group_names().size() != node.group_exprs().size()) {
    return Status::InvalidArgument("group name/expr arity mismatch");
  }
  std::vector<Column> args;
  std::vector<DataType> out_types;
  for (const AggSpec& spec : aggs) {
    if (spec.kind == AggKind::kCountStar) {
      args.emplace_back(DataType::kInt64);  // Unused.
      out_types.push_back(DataType::kInt64);
      continue;
    }
    if (spec.arg == nullptr) {
      return Status::InvalidArgument("aggregate missing argument: " +
                                     spec.alias);
    }
    AQP_ASSIGN_OR_RETURN(Column c, Eval(*spec.arg, input));
    AQP_ASSIGN_OR_RETURN(DataType t, AggResultType(spec.kind, c.type()));
    out_types.push_back(t);
    args.push_back(std::move(c));
  }
  std::vector<Column> keys;
  for (const ExprPtr& e : node.group_exprs()) {
    AQP_ASSIGN_OR_RETURN(Column c, Eval(*e, input));
    keys.push_back(std::move(c));
  }

  // Group ids in first-appearance order; a global aggregate has one group,
  // even over no rows.
  const size_t n = input.num_rows();
  std::vector<uint32_t> group_of(n, 0);
  std::vector<uint32_t> reps;  // First row of each group.
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_hash;
  for (size_t i = 0; i < n && !keys.empty(); ++i) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const Column& k : keys) h = HashCombine(h, k.HashAt(i));
    std::vector<uint32_t>& bucket = by_hash[h];
    auto same_key = [&](uint32_t g) {
      for (const Column& k : keys) {
        if (!k.SlotEquals(i, k, reps[g])) return false;
      }
      return true;
    };
    auto it = std::find_if(bucket.begin(), bucket.end(), same_key);
    if (it != bucket.end()) {
      group_of[i] = *it;
      continue;
    }
    group_of[i] = static_cast<uint32_t>(reps.size());
    bucket.push_back(group_of[i]);
    reps.push_back(static_cast<uint32_t>(i));
  }
  const size_t num_groups = keys.empty() ? 1 : reps.size();

  using States = std::vector<std::vector<AggAccumulator>>;  // [agg][group].
  auto fold = [&](States& st, size_t i, uint32_t g) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      AccumulateRow(st[a][g], aggs[a].kind,
                    aggs[a].kind == AggKind::kCountStar ? nullptr : &args[a],
                    i);
    }
  };
  States states(aggs.size(), std::vector<AggAccumulator>(num_groups));
  if (!options.UseMorsels(n)) {
    for (size_t i = 0; i < n; ++i) fold(states, i, group_of[i]);
  } else {
    // Each morsel folds its rows into fresh per-group partials, merged into
    // the totals in morsel order.
    constexpr uint32_t kAbsent = UINT32_MAX;
    for (size_t begin = 0; begin < n; begin += options.morsel_rows) {
      const size_t end = std::min<size_t>(n, begin + options.morsel_rows);
      std::vector<uint32_t> local_of(num_groups, kAbsent);
      std::vector<uint32_t> local_groups;
      States partial(aggs.size());
      for (size_t i = begin; i < end; ++i) {
        const uint32_t g = group_of[i];
        if (local_of[g] == kAbsent) {
          local_of[g] = static_cast<uint32_t>(local_groups.size());
          local_groups.push_back(g);
          for (std::vector<AggAccumulator>& p : partial) p.emplace_back();
        }
        fold(partial, i, local_of[g]);
      }
      for (size_t l = 0; l < local_groups.size(); ++l) {
        for (size_t a = 0; a < aggs.size(); ++a) {
          states[a][local_groups[l]].Merge(partial[a][l]);
        }
      }
    }
  }
  std::vector<Column> key_columns;
  for (const Column& k : keys) {
    Column col(k.type());
    for (uint32_t r : reps) col.AppendFrom(k, r);
    key_columns.push_back(std::move(col));
  }
  AQP_ASSIGN_OR_RETURN(
      Table out, FinalizeAggregates(std::move(key_columns), node.group_names(),
                                    aggs, out_types, states, num_groups));
  return Own(std::move(out));
}

// Slot i of a against slot j of b (same type); NULLs sort first, and
// unordered doubles (NaN) compare equal to everything.
int CompareSlots(const Column& a, size_t i, const Column& b, size_t j) {
  const bool an = a.IsNull(i);
  const bool bn = b.IsNull(j);
  if (an || bn) return (an ? 0 : 1) - (bn ? 0 : 1);
  auto three_way = [](const auto& x, const auto& y) {
    return x < y ? -1 : (y < x ? 1 : 0);
  };
  switch (a.type()) {
    case DataType::kInt64:
      return three_way(a.Int64At(i), b.Int64At(j));
    case DataType::kDouble:
      return three_way(a.DoubleAt(i), b.DoubleAt(j));
    case DataType::kString:
      return three_way(a.StringAt(i), b.StringAt(j));
    case DataType::kBool:
      return three_way(a.BoolAt(i), b.BoolAt(j));
  }
  return 0;
}

Result<TablePtr> RunSort(const PlanNode& node, const Table& input) {
  std::vector<size_t> key_cols;
  for (const SortKey& k : node.sort_keys()) {
    AQP_ASSIGN_OR_RETURN(size_t idx, input.ColumnIndex(k.column));
    key_cols.push_back(idx);
  }
  std::vector<uint32_t> order(input.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      const Column& col = input.column(key_cols[k]);
      const int cmp = CompareSlots(col, a, col, b);
      if (cmp != 0) return node.sort_keys()[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  return Own(GatherRows(input, order));
}

Result<TablePtr> RunLimit(const PlanNode& node, const Table& input) {
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < input.num_rows() && i < node.limit(); ++i) {
    rows.push_back(static_cast<uint32_t>(i));
  }
  return Own(GatherRows(input, rows));
}

Result<TablePtr> RunUnionAll(const PlanNode& node, const RowContext& ctx) {
  std::vector<TablePtr> inputs;
  for (size_t i = 0; i < node.num_children(); ++i) {
    AQP_ASSIGN_OR_RETURN(TablePtr t, Run(node.child(i), ctx));
    inputs.push_back(std::move(t));
  }
  Table out(inputs[0]->schema());
  for (const TablePtr& in : inputs) {
    if (in->num_columns() != out.num_columns()) {
      return Status::InvalidArgument("appending table with different arity");
    }
    for (size_t c = 0; c < out.num_columns(); ++c) {
      if (in->column(c).type() != out.column(c).type()) {
        return Status::InvalidArgument(
            "appending table with mismatched types");
      }
    }
    for (size_t r = 0; r < in->num_rows(); ++r) out.AppendRowFrom(*in, r);
  }
  return Own(std::move(out));
}

Result<TablePtr> Run(const PlanPtr& plan, const RowContext& ctx) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return RunScan(plan, ctx);
    case PlanKind::kUnionAll:
      return RunUnionAll(*plan, ctx);
    case PlanKind::kJoin: {
      AQP_ASSIGN_OR_RETURN(TablePtr left, Run(plan->child(0), ctx));
      AQP_ASSIGN_OR_RETURN(TablePtr right, Run(plan->child(1), ctx));
      return RunJoin(*plan, *left, *right);
    }
    default:
      break;
  }
  AQP_ASSIGN_OR_RETURN(TablePtr input, Run(plan->child(), ctx));
  switch (plan->kind()) {
    case PlanKind::kFilter:
      return RunFilter(*plan, *input);
    case PlanKind::kProject:
      return RunProject(*plan, *input);
    case PlanKind::kAggregate:
      return RunAggregate(*plan, *input, ctx.options);
    case PlanKind::kSort:
      return RunSort(*plan, *input);
    case PlanKind::kLimit:
      return RunLimit(*plan, *input);
    default:
      return Status::Internal("unreachable plan kind");
  }
}

}  // namespace

Result<Table> ExecuteRowReference(const PlanPtr& plan, const Catalog& catalog,
                                  const ExecOptions& options) {
  AQP_ASSIGN_OR_RETURN(TablePtr t, Run(plan, RowContext{catalog, options}));
  return *t;
}

}  // namespace testutil
}  // namespace aqp
