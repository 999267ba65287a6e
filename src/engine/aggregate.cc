#include "engine/aggregate.h"

#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/hash_id_table.h"
#include "expr/eval.h"

namespace aqp {

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "COUNT(*)";
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kVar:
      return "VAR";
    case AggKind::kStddev:
      return "STDDEV";
    case AggKind::kCountDistinct:
      return "COUNT DISTINCT";
  }
  return "?";
}

bool IsLinearAgg(AggKind kind) {
  return kind == AggKind::kCountStar || kind == AggKind::kCount ||
         kind == AggKind::kSum || kind == AggKind::kAvg;
}

Result<DataType> AggResultType(AggKind kind, DataType arg_type) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
    case AggKind::kCountDistinct:
      return DataType::kInt64;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kVar:
    case AggKind::kStddev:
      if (!IsNumeric(arg_type)) {
        return Status::InvalidArgument(
            std::string(AggKindName(kind)) + " requires a numeric argument");
      }
      return DataType::kDouble;
    case AggKind::kMin:
    case AggKind::kMax:
      return arg_type;
  }
  return Status::Internal("unreachable agg kind");
}

namespace {

// NaN results carry whatever payload/sign the hardware propagated, and the
// propagation order through commutative ops (MULSD/ADDSD pick the first
// operand's NaN) is a compiler choice that can differ between the row loop
// and the span loop even when the source-level op order is identical. A
// fresh invalid-op QNaN on x86 is negative (0xFFF8...), a propagated input
// NaN usually is not. Canonicalizing at finalization keeps aggregate output
// bit-identical between the span and row loops without constraining codegen.
double CanonicalNaN(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::quiet_NaN() : v;
}

}  // namespace

Result<GroupIndex> BuildGroupIndex(const Table& input,
                                   const std::vector<ExprPtr>& group_exprs) {
  GroupIndex index;
  const size_t n = input.num_rows();
  index.group_ids.resize(n);
  if (group_exprs.empty()) {
    // Single global group, present even for empty input.
    index.num_groups = 1;
    return index;
  }
  std::vector<Column> keys;
  keys.reserve(group_exprs.size());
  for (const ExprPtr& e : group_exprs) {
    AQP_ASSIGN_OR_RETURN(Column c, Eval(*e, input));
    keys.push_back(std::move(c));
  }
  for (const Column& k : keys) {
    index.key_columns.emplace_back(k.type());
  }
  HashIdTable table;
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const Column& k : keys) h = HashCombine(h, k.HashAt(i));
    bool inserted = false;
    const uint32_t gid = table.FindOrInsert(
        h,
        [&](uint32_t cand) {
          for (size_t c = 0; c < keys.size(); ++c) {
            if (!keys[c].SlotEquals(i, index.key_columns[c], cand)) {
              return false;
            }
          }
          return true;
        },
        &inserted);
    if (inserted) {
      for (size_t c = 0; c < keys.size(); ++c) {
        index.key_columns[c].AppendFrom(keys[c], i);
      }
    }
    index.group_ids[i] = gid;
  }
  index.num_groups = table.size();
  return index;
}

namespace {

// Compares boxed values of the same (or numeric-compatible) type.
int CompareValues(const Value& a, const Value& b) {
  if (IsNumeric(a.type()) && IsNumeric(b.type())) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  AQP_CHECK(a.type() == b.type());
  switch (a.type()) {
    case DataType::kString:
      return a.str().compare(b.str()) < 0 ? -1 : (a.str() == b.str() ? 0 : 1);
    case DataType::kBool:
      return (a.boolean() ? 1 : 0) - (b.boolean() ? 1 : 0);
    default:
      AQP_CHECK(false);
      return 0;
  }
}

}  // namespace

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
      AggAccumulator::NonLinear& nl = st.MutableNonLinear();
      if (!nl.has_value) {
        nl.min_v = v;
        nl.max_v = v;
        nl.has_value = true;
      } else {
        if (CompareValues(v, nl.min_v) < 0) nl.min_v = v;
        if (CompareValues(v, nl.max_v) > 0) nl.max_v = std::move(v);
      }
      break;
    }
    case AggKind::kCountDistinct:
      st.MutableNonLinear().distinct.insert(arg->HashAt(i, /*seed=*/17));
      break;
    case AggKind::kCountStar:
      break;  // Handled above.
  }
}

namespace {

// Batch twin of AccumulateRow: folds rows [begin, end) of `arg` into `st`
// with type-specialized tight loops over the column's contiguous storage —
// no per-row Value boxing, no type re-dispatch. Every floating-point
// operation runs in the same order with the same operands as the row loop,
// so the resulting accumulator state is bit-identical to row-at-a-time
// accumulation (the row oracle the differential suites compare against
// relies on it). Non-numeric MIN/MAX and COUNT DISTINCT keep the row loop:
// their cost is in string compares and hashing, not dispatch.
void AccumulateSpan(AggAccumulator& st, AggKind kind, const Column* arg,
                    size_t begin, size_t end) {
  if (kind == AggKind::kCountStar) {
    // Integer-valued adds below 2^53 are exact, so one bulk add equals
    // (end - begin) repeated += 1.0 bit for bit.
    st.weight_total += static_cast<double>(end - begin);
    st.count += end - begin;
    return;
  }
  const uint8_t* valid = arg->has_nulls() ? arg->validity() : nullptr;
  if (kind == AggKind::kCount) {
    size_t c = end - begin;
    if (valid != nullptr) {
      c = 0;
      for (size_t i = begin; i < end; ++i) c += valid[i];
    }
    st.weight_total += static_cast<double>(c);
    st.count += c;
    return;
  }
  const bool numeric = IsNumeric(arg->type());
  if (!numeric || kind == AggKind::kCountDistinct) {
    for (size_t i = begin; i < end; ++i) AccumulateRow(st, kind, arg, i);
    return;
  }
  const int64_t* ints =
      arg->type() == DataType::kInt64 ? arg->int64_data() : nullptr;
  const double* dbls =
      arg->type() == DataType::kDouble ? arg->double_data() : nullptr;
  auto x_at = [&](size_t i) {
    return ints != nullptr ? static_cast<double>(ints[i]) : dbls[i];
  };
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      for (size_t i = begin; i < end; ++i) {
        if (valid != nullptr && !valid[i]) continue;
        st.weighted_sum += x_at(i);
        st.weight_total += 1.0;
        ++st.count;
      }
      break;
    case AggKind::kVar:
    case AggKind::kStddev:
      for (size_t i = begin; i < end; ++i) {
        if (valid != nullptr && !valid[i]) continue;
        const double x = x_at(i);
        ++st.count;
        double delta = x - st.mean;
        st.mean += delta / static_cast<double>(st.count);
        st.m2 += delta * (x - st.mean);
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax: {
      // Track winning row indices; box a Value only once at the end. The
      // strict </> in double space keeps the FIRST row on ties and ignores
      // unordered (NaN) candidates — exactly CompareValues' behavior.
      size_t best_min = SIZE_MAX;
      size_t best_max = SIZE_MAX;
      for (size_t i = begin; i < end; ++i) {
        if (valid != nullptr && !valid[i]) continue;
        if (best_min == SIZE_MAX) {
          best_min = i;
          best_max = i;
          continue;
        }
        const double x = x_at(i);
        if (x < x_at(best_min)) best_min = i;
        if (x > x_at(best_max)) best_max = i;
      }
      if (best_min != SIZE_MAX) {
        Value vmin = arg->GetValue(best_min);
        Value vmax = arg->GetValue(best_max);
        AggAccumulator::NonLinear& nl = st.MutableNonLinear();
        if (!nl.has_value) {
          nl.min_v = std::move(vmin);
          nl.max_v = std::move(vmax);
          nl.has_value = true;
        } else {
          if (CompareValues(vmin, nl.min_v) < 0) nl.min_v = std::move(vmin);
          if (CompareValues(vmax, nl.max_v) > 0) nl.max_v = std::move(vmax);
        }
      }
      break;
    }
    default:
      break;  // Handled above.
  }
}

// True when group-key rows `i` and `j` are equal across all key columns.
bool KeyRowsEqual(const std::vector<Column>& keys, size_t i, size_t j) {
  for (const Column& k : keys) {
    if (!k.SlotEquals(i, k, j)) return false;
  }
  return true;
}

}  // namespace

void AggAccumulator::Merge(const AggAccumulator& other) {
  weighted_sum += other.weighted_sum;
  weight_total += other.weight_total;
  if (other.count > 0) {
    if (count == 0) {
      mean = other.mean;
      m2 = other.m2;
    } else {
      // Chan et al. (1979) pairwise combine of Welford states.
      double na = static_cast<double>(count);
      double nb = static_cast<double>(other.count);
      double delta = other.mean - mean;
      double nn = na + nb;
      mean += delta * (nb / nn);
      m2 += other.m2 + delta * delta * (na * nb / nn);
    }
  }
  count += other.count;
  if (other.nonlinear == nullptr) return;
  const NonLinear& theirs = *other.nonlinear;
  NonLinear& mine = MutableNonLinear();
  if (theirs.has_value) {
    if (!mine.has_value) {
      mine.min_v = theirs.min_v;
      mine.max_v = theirs.max_v;
      mine.has_value = true;
    } else {
      if (CompareValues(theirs.min_v, mine.min_v) < 0) {
        mine.min_v = theirs.min_v;
      }
      if (CompareValues(theirs.max_v, mine.max_v) > 0) {
        mine.max_v = theirs.max_v;
      }
    }
  }
  mine.distinct.insert(theirs.distinct.begin(), theirs.distinct.end());
}

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
      const AggAccumulator& st = states[a][g];
      switch (aggs[a].kind) {
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
          if (!st.has_value()) {
            col.AppendNull();
          } else {
            AQP_RETURN_IF_ERROR(col.AppendValue(st.nonlinear->min_v));
          }
          break;
        case AggKind::kMax:
          if (!st.has_value()) {
            col.AppendNull();
          } else {
            AQP_RETURN_IF_ERROR(col.AppendValue(st.nonlinear->max_v));
          }
          break;
        case AggKind::kCountDistinct:
          col.AppendInt64(static_cast<int64_t>(
              st.nonlinear != nullptr ? st.nonlinear->distinct.size() : 0));
          break;
      }
    }
    out_columns.push_back(std::move(col));
  }
  return Table::Make(std::move(out_schema), std::move(out_columns));
}

Result<Table> GroupByAggregate(const Table& input,
                               const std::vector<ExprPtr>& group_exprs,
                               const std::vector<std::string>& group_names,
                               const std::vector<AggSpec>& aggs,
                               const AggregateOptions& options) {
  if (group_names.size() != group_exprs.size()) {
    return Status::InvalidArgument("group name/expr arity mismatch");
  }
  const size_t n = input.num_rows();

  // Evaluate aggregate arguments once, vectorized.
  std::vector<Column> arg_columns;
  std::vector<DataType> out_types;
  arg_columns.reserve(aggs.size());
  for (const AggSpec& spec : aggs) {
    if (spec.kind == AggKind::kCountStar) {
      arg_columns.emplace_back(DataType::kInt64);  // Placeholder, unused.
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
    arg_columns.push_back(std::move(c));
  }

  // Accumulate. Two equivalent algorithms, chosen by input size only (never
  // thread count, so results are thread-count independent):
  //   - classic: single streaming pass over rows;
  //   - morsel: per-morsel AggAccumulator partials, merged in morsel order.
  std::vector<std::vector<AggAccumulator>> states;  // [agg][group].
  std::vector<Column> key_columns;                  // One per group expr.
  size_t num_groups = 0;
  const bool use_morsels =
      options.exec != nullptr && options.exec->UseMorsels(n);
  if (!use_morsels) {
    AQP_ASSIGN_OR_RETURN(GroupIndex index, BuildGroupIndex(input, group_exprs));
    states.assign(aggs.size(), std::vector<AggAccumulator>(index.num_groups));
    if (group_exprs.empty()) {
      // Global aggregates over a contiguous input: one span per aggregate.
      for (size_t a = 0; a < aggs.size(); ++a) {
        AccumulateSpan(states[a][0], aggs[a].kind,
                       aggs[a].kind == AggKind::kCountStar ? nullptr
                                                           : &arg_columns[a],
                       0, n);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        uint32_t g = index.group_ids[i];
        for (size_t a = 0; a < aggs.size(); ++a) {
          AccumulateRow(states[a][g], aggs[a].kind,
                        aggs[a].kind == AggKind::kCountStar ? nullptr
                                                            : &arg_columns[a],
                        i);
        }
      }
    }
    key_columns = std::move(index.key_columns);
    num_groups = index.num_groups;
  } else {
    ThreadPool& pool = ThreadPool::Shared();
    const size_t num_threads = options.exec->ResolvedThreads();
    const size_t morsel_rows = options.exec->morsel_rows;
    const size_t num_morsels = (n + morsel_rows - 1) / morsel_rows;

    if (group_exprs.empty()) {
      // Global aggregates: one partial vector per morsel, merged in order.
      std::vector<std::vector<AggAccumulator>> partials(
          num_morsels, std::vector<AggAccumulator>(aggs.size()));
      ParallelRunStats rs = pool.ParallelFor(
          n, morsel_rows, num_threads,
          ThreadPool::ParallelForOptions{options.exec->cancel},
          [&](size_t, size_t m, size_t begin, size_t end) {
            std::vector<AggAccumulator>& local = partials[m];
            for (size_t a = 0; a < aggs.size(); ++a) {
              AccumulateSpan(local[a], aggs[a].kind,
                             aggs[a].kind == AggKind::kCountStar
                                 ? nullptr
                                 : &arg_columns[a],
                             begin, end);
            }
          });
      // Partials from skipped morsels are empty, not wrong — but the merged
      // total would silently undercount; surface the cancellation instead.
      AQP_RETURN_IF_ERROR(CheckCancelled(options.exec->cancel));
      states.assign(aggs.size(), std::vector<AggAccumulator>(1));
      for (size_t m = 0; m < num_morsels; ++m) {
        for (size_t a = 0; a < aggs.size(); ++a) {
          states[a][0].Merge(partials[m][a]);
        }
      }
      num_groups = 1;
      if (options.run_stats != nullptr) options.run_stats->MergeFrom(rs);
    } else {
      // Grouped: evaluate the key columns once, then each morsel discovers
      // its own local groups (rep row = first appearance in the morsel) and
      // accumulates into local partials. Merging morsels in morsel order
      // assigns global group ids in whole-input first-appearance order —
      // exactly the serial ordering.
      std::vector<Column> keys;
      keys.reserve(group_exprs.size());
      for (const ExprPtr& e : group_exprs) {
        AQP_ASSIGN_OR_RETURN(Column c, Eval(*e, input));
        keys.push_back(std::move(c));
      }
      struct MorselGroups {
        std::vector<uint32_t> reps;        // Representative row per group.
        std::vector<uint64_t> rep_hashes;  // Key hash of each rep row.
        std::vector<std::vector<AggAccumulator>> states;  // [agg][local].
      };
      std::vector<MorselGroups> morsels(num_morsels);
      // Per-worker scratch, reused morsel after morsel: the local group
      // table and the morsel's key hashes.
      struct Scratch {
        HashIdTable local;
        std::vector<uint64_t> hashes;
      };
      std::vector<Scratch> scratch(num_threads);
      ParallelRunStats rs = pool.ParallelFor(
          n, morsel_rows, num_threads,
          ThreadPool::ParallelForOptions{options.exec->cancel},
          [&](size_t worker, size_t m, size_t begin, size_t end) {
            MorselGroups& mg = morsels[m];
            mg.states.assign(aggs.size(), {});
            HashIdTable& local = scratch[worker].local;
            std::vector<uint64_t>& hashes = scratch[worker].hashes;
            local.Clear();
            // Hash the morsel's keys column-at-a-time (one tight loop per
            // key column) instead of re-dispatching per row inside the
            // probe loop. Same HashCombine recipe as BuildGroupIndex.
            hashes.assign(end - begin, 0x9e3779b97f4a7c15ULL);
            for (const Column& k : keys) {
              for (size_t i = begin; i < end; ++i) {
                hashes[i - begin] = HashCombine(hashes[i - begin], k.HashAt(i));
              }
            }
            for (size_t i = begin; i < end; ++i) {
              const uint64_t h = hashes[i - begin];
              bool inserted = false;
              const uint32_t gid = local.FindOrInsert(
                  h,
                  [&](uint32_t cand) {
                    return KeyRowsEqual(keys, i, mg.reps[cand]);
                  },
                  &inserted);
              if (inserted) {
                mg.reps.push_back(static_cast<uint32_t>(i));
                mg.rep_hashes.push_back(h);
                for (std::vector<AggAccumulator>& s : mg.states) {
                  s.emplace_back();
                }
              }
              for (size_t a = 0; a < aggs.size(); ++a) {
                AccumulateRow(mg.states[a][gid], aggs[a].kind,
                              aggs[a].kind == AggKind::kCountStar
                                  ? nullptr
                                  : &arg_columns[a],
                              i);
              }
            }
          });
      AQP_RETURN_IF_ERROR(CheckCancelled(options.exec->cancel));
      // Ordered merge into the global group table.
      for (const Column& k : keys) key_columns.emplace_back(k.type());
      states.assign(aggs.size(), {});
      HashIdTable global;
      std::vector<uint32_t> global_reps;
      for (size_t m = 0; m < num_morsels; ++m) {
        const MorselGroups& mg = morsels[m];
        for (size_t l = 0; l < mg.reps.size(); ++l) {
          const uint32_t row = mg.reps[l];
          bool inserted = false;
          const uint32_t gid = global.FindOrInsert(
              mg.rep_hashes[l],
              [&](uint32_t cand) {
                return KeyRowsEqual(keys, row, global_reps[cand]);
              },
              &inserted);
          if (inserted) {
            global_reps.push_back(row);
            for (size_t c = 0; c < keys.size(); ++c) {
              key_columns[c].AppendFrom(keys[c], row);
            }
            for (std::vector<AggAccumulator>& s : states) s.emplace_back();
          }
          for (size_t a = 0; a < aggs.size(); ++a) {
            states[a][gid].Merge(mg.states[a][l]);
          }
        }
      }
      num_groups = global.size();
      if (options.run_stats != nullptr) options.run_stats->MergeFrom(rs);
    }
  }

  return FinalizeAggregates(std::move(key_columns), group_names, aggs,
                            out_types, states, num_groups);
}

}  // namespace aqp
