#include "engine/aggregate.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "common/cancellation.h"
#include "common/hash.h"
#include "common/hash_id_table.h"
#include "common/memory_tracker.h"
#include "expr/eval.h"
#include "storage/value.h"

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
// operand's NaN) is a compiler choice that can differ between two loops even
// when the source-level op order is identical. A fresh invalid-op QNaN on
// x86 is negative (0xFFF8...), a propagated input NaN usually is not.
// Canonicalizing at finalization keeps aggregate output bit-identical
// between the grouped and one-group loops (and the row oracle) without
// constraining codegen.
double CanonicalNaN(double v) {
  return std::isnan(v) ? std::numeric_limits<double>::quiet_NaN() : v;
}

// Calls fn(i) for each row in [begin, end) whose validity byte is set (every
// row when `valid` is null).
template <typename Fn>
void ForEachValid(const uint8_t* valid, size_t begin, size_t end, Fn&& fn) {
  if (valid == nullptr) {
    for (size_t i = begin; i < end; ++i) fn(i);
  } else {
    for (size_t i = begin; i < end; ++i) {
      if (valid[i] != 0) fn(i);
    }
  }
}

// Calls fn with the typed value array of a numeric column.
template <typename Fn>
void WithNumericData(const Column& c, Fn&& fn) {
  if (c.type() == DataType::kInt64) {
    fn(c.int64_data());
  } else {
    fn(c.double_data());
  }
}

// ---------------------------------------------------------------------------
// Aggregation. One skeleton serves every input size and every number of
// group keys; an aggregate without keys is its one-group case:
//   1. Each morsel turns its keys into a vector of morsel-local group ids
//      (first-appearance order within the morsel) with a typed key kernel.
//      Without keys every row is group 0 and no id vector is written.
//   2. Each aggregate accumulates column at a time over that vector into
//      flat per-group arrays: the morsel's partials.
//   3. Partials merge in parallel over a fixed number of group partitions.
//      Within a partition, each group folds its per-morsel partials in
//      morsel order — exactly the adds a serial fold in morsel order makes —
//      so the answer is the same for every thread count.
//   4. Groups come out in first-appearance order (a group's position is
//      the rank of its first row), finalized straight from the flat arrays.
// A single-morsel input (everything below parallel_min_rows) stops after
// step 2: its local groups already are the output groups. So does the one
// group of an aggregate without keys, which folds its partials in morsel
// order without partitioning them.
// ---------------------------------------------------------------------------

// Merge partitions, chosen by the top bits of a group's key hash. Fixed,
// never derived from the thread count.
constexpr int kPartitionBits = 6;
constexpr size_t kPartitions = size_t{1} << kPartitionBits;

size_t PartitionOf(uint64_t hash) { return hash >> (64 - kPartitionBits); }

// How an aggregate keeps its per-group state.
enum class AggKernel {
  kCount,   // COUNT(*), COUNT: a row count.
  kSum,     // SUM, AVG over a numeric argument: sum and count.
  kMinMax,  // MIN, MAX over INT64 or DOUBLE: best value and count.
  kRow,     // VAR/STDDEV, COUNT DISTINCT, other MIN/MAX: a RowState.
};

// One aggregate, resolved against its input.
struct AggPlan {
  AggKind kind;
  AggKernel kernel;
  const Column* arg;  // Null for COUNT(*).
  DataType out_type;
};

AggKernel KernelFor(AggKind kind, const Column* arg) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return AggKernel::kCount;
    case AggKind::kSum:
    case AggKind::kAvg:
      return AggKernel::kSum;
    case AggKind::kMin:
    case AggKind::kMax:
      return IsNumeric(arg->type()) ? AggKernel::kMinMax : AggKernel::kRow;
    default:
      return AggKernel::kRow;
  }
}

// One group's state of an aggregate the flat arrays do not serve
// (AggKernel::kRow). VAR/STDDEV keep Welford moments, folded in by typed
// loops. MIN/MAX over a STRING or BOOL argument keep the best value and
// COUNT DISTINCT the hashes of the values seen, both boxed and folded in one
// row at a time, so a VAR group stays three words.
struct RowState {
  uint64_t count = 0;  // Non-NULL values seen.
  double mean = 0.0;   // Welford, for VAR/STDDEV.
  double m2 = 0.0;
  struct Boxed {
    Value best;                             // MIN/MAX.
    std::unordered_set<uint64_t> distinct;  // COUNT DISTINCT.
  };
  std::unique_ptr<Boxed> boxed;  // Allocated by the group's first value.

  Boxed& MutableBoxed() {
    if (boxed == nullptr) boxed = std::make_unique<Boxed>();
    return *boxed;
  }
};

// Folds `x` into Welford moments.
void AddMoment(uint64_t& count, double& mean, double& m2, double x) {
  ++count;
  const double delta = x - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (x - mean);
}

// True when `x` beats `best` for MIN/MAX `kind`: strictly, so ties keep the
// first row.
bool BetterValue(AggKind kind, const Value& x, const Value& best) {
  const int c = TryCompareValues(x, best).value_or(0);
  return kind == AggKind::kMax ? c > 0 : c < 0;
}

// Folds row i of `arg` into `st` for COUNT DISTINCT or MIN/MAX `kind`.
void AccumulateBoxed(RowState& st, AggKind kind, const Column& arg, size_t i) {
  if (arg.IsNull(i)) return;
  ++st.count;
  if (kind == AggKind::kCountDistinct) {
    st.MutableBoxed().distinct.insert(arg.HashAt(i, /*seed=*/17));
    return;
  }
  Value v = arg.GetValue(i);
  RowState::Boxed& b = st.MutableBoxed();
  if (st.count == 1 || BetterValue(kind, v, b.best)) b.best = std::move(v);
}

// Folds `from` into `into`: the Welford states combine with the Chan et al.
// (1979) pairwise formula, MIN/MAX compare, the distinct sets union.
void MergeRow(AggKind kind, RowState& into, const RowState& from) {
  if (from.count == 0) return;
  if (kind == AggKind::kVar || kind == AggKind::kStddev) {
    if (into.count == 0) {
      into.mean = from.mean;
      into.m2 = from.m2;
    } else {
      const double na = static_cast<double>(into.count);
      const double nb = static_cast<double>(from.count);
      const double delta = from.mean - into.mean;
      const double nn = na + nb;
      into.mean += delta * (nb / nn);
      into.m2 += from.m2 + delta * delta * (na * nb / nn);
    }
  } else if (kind == AggKind::kCountDistinct) {
    into.MutableBoxed().distinct.insert(from.boxed->distinct.begin(),
                                        from.boxed->distinct.end());
  } else if (into.count == 0 ||
             BetterValue(kind, from.boxed->best, into.boxed->best)) {
    into.MutableBoxed().best = from.boxed->best;
  }
  into.count += from.count;
}

// Per-group state of one aggregate in flat arrays indexed by group id; the
// aggregate's kernel decides which arrays are live.
struct FlatStates {
  std::vector<uint64_t> count;      // kCount, kSum, kMinMax.
  std::vector<double> sum;          // kSum.
  std::vector<int64_t> int_best;    // kMinMax over INT64.
  std::vector<double> double_best;  // kMinMax over DOUBLE.
  std::vector<RowState> rows;       // kRow.

  // Grows to `groups` groups; new groups start empty.
  void Resize(const AggPlan& p, size_t groups) {
    if (p.kernel == AggKernel::kRow) {
      rows.resize(groups);
      return;
    }
    count.resize(groups);
    if (p.kernel == AggKernel::kSum) sum.resize(groups);
    if (p.kernel == AggKernel::kMinMax) {
      if (p.arg->type() == DataType::kInt64) {
        int_best.resize(groups);
      } else {
        double_best.resize(groups);
      }
    }
  }

  uint64_t ApproxBytes() const {
    uint64_t bytes = (count.capacity() + sum.capacity() +
                      int_best.capacity() + double_best.capacity()) *
                         8 +
                     rows.capacity() * sizeof(RowState);
    for (const RowState& r : rows) {
      if (r.boxed == nullptr) continue;
      bytes += sizeof(RowState::Boxed) +
               2 * sizeof(uint64_t) * r.boxed->distinct.size();
    }
    return bytes;
  }
};

template <bool kMax, typename T>
bool Better(T x, T best) {
  return kMax ? x > best : x < best;
}

template <bool kMax, typename T>
void MinMaxLoop(const T* x, const uint8_t* valid, const uint32_t* gids,
                size_t begin, size_t end, uint64_t* count, T* best) {
  // The first non-NULL value seeds a group; a later one replaces it only
  // when strictly better, so ties keep the first row and NaN candidates
  // never win.
  if (gids == nullptr) {
    uint64_t c = *count;
    T b = *best;
    ForEachValid(valid, begin, end, [&](size_t i) {
      if (c++ == 0 || Better<kMax>(x[i], b)) b = x[i];
    });
    *count = c;
    *best = b;
    return;
  }
  ForEachValid(valid, begin, end, [&](size_t i) {
    const uint32_t g = gids[i - begin];
    if (count[g]++ == 0 || Better<kMax>(x[i], best[g])) best[g] = x[i];
  });
}

// Folds rows [begin, end) into `st`. Row i is in group gids[i - begin], or
// in group 0 when `gids` is null: the one-group loops keep that group's
// state in locals and store it once. Either way each group sees its rows'
// adds in row order, as a row-at-a-time loop does, so the partials are
// bit-identical to its.
void Accumulate(const AggPlan& p, const uint32_t* gids, size_t begin,
                size_t end, FlatStates& st) {
  const Column* arg = p.arg;
  const uint8_t* valid =
      arg != nullptr && arg->has_nulls() ? arg->validity() : nullptr;
  uint64_t* count = st.count.data();
  switch (p.kernel) {
    case AggKernel::kCount:
      if (gids == nullptr) {
        count[0] += end - begin;
        if (valid != nullptr) {
          count[0] -= std::count(valid + begin, valid + end, uint8_t{0});
        }
        return;
      }
      ForEachValid(valid, begin, end,
                   [&](size_t i) { ++count[gids[i - begin]]; });
      return;
    case AggKernel::kSum: {
      double* sum = st.sum.data();
      WithNumericData(*arg, [&](const auto* x) {
        if (gids == nullptr) {
          double s = sum[0];
          uint64_t c = count[0];
          ForEachValid(valid, begin, end, [&](size_t i) {
            s += static_cast<double>(x[i]);
            ++c;
          });
          sum[0] = s;
          count[0] = c;
          return;
        }
        ForEachValid(valid, begin, end, [&](size_t i) {
          const uint32_t g = gids[i - begin];
          sum[g] += static_cast<double>(x[i]);
          ++count[g];
        });
      });
      return;
    }
    case AggKernel::kMinMax:
      if (arg->type() == DataType::kInt64) {
        if (p.kind == AggKind::kMax) {
          MinMaxLoop<true>(arg->int64_data(), valid, gids, begin, end, count,
                           st.int_best.data());
        } else {
          MinMaxLoop<false>(arg->int64_data(), valid, gids, begin, end, count,
                            st.int_best.data());
        }
      } else if (p.kind == AggKind::kMax) {
        MinMaxLoop<true>(arg->double_data(), valid, gids, begin, end, count,
                         st.double_best.data());
      } else {
        MinMaxLoop<false>(arg->double_data(), valid, gids, begin, end, count,
                          st.double_best.data());
      }
      return;
    case AggKernel::kRow:
      if (p.kind == AggKind::kVar || p.kind == AggKind::kStddev) {
        WithNumericData(*arg, [&](const auto* x) {
          if (gids == nullptr) {
            RowState& r = st.rows[0];
            uint64_t c = r.count;
            double mean = r.mean;
            double m2 = r.m2;
            ForEachValid(valid, begin, end, [&](size_t i) {
              AddMoment(c, mean, m2, static_cast<double>(x[i]));
            });
            r.count = c;
            r.mean = mean;
            r.m2 = m2;
            return;
          }
          ForEachValid(valid, begin, end, [&](size_t i) {
            RowState& r = st.rows[gids[i - begin]];
            AddMoment(r.count, r.mean, r.m2, static_cast<double>(x[i]));
          });
        });
        return;
      }
      for (size_t i = begin; i < end; ++i) {
        AccumulateBoxed(st.rows[gids != nullptr ? gids[i - begin] : 0],
                        p.kind, *arg, i);
      }
      return;
  }
}

template <typename T>
void FoldBest(bool is_max, std::vector<T>& into, uint32_t g,
              const std::vector<T>& from, uint32_t l, bool first) {
  if (first || (is_max ? Better<true>(from[l], into[g])
                       : Better<false>(from[l], into[g]))) {
    into[g] = from[l];
  }
}

// Folds partial `l` of `from` into group `g` of `into`.
void Fold(const AggPlan& p, FlatStates& into, uint32_t g,
          const FlatStates& from, uint32_t l) {
  switch (p.kernel) {
    case AggKernel::kCount:
      into.count[g] += from.count[l];
      return;
    case AggKernel::kSum:
      into.sum[g] += from.sum[l];
      into.count[g] += from.count[l];
      return;
    case AggKernel::kMinMax: {
      if (from.count[l] == 0) return;
      const bool first = into.count[g] == 0;
      const bool is_max = p.kind == AggKind::kMax;
      if (p.arg->type() == DataType::kInt64) {
        FoldBest(is_max, into.int_best, g, from.int_best, l, first);
      } else {
        FoldBest(is_max, into.double_best, g, from.double_best, l, first);
      }
      into.count[g] += from.count[l];
      return;
    }
    case AggKernel::kRow:
      MergeRow(p.kind, into.rows[g], from.rows[l]);
      return;
  }
}

// The final value of aggregate `p` for group `g`: NULL for a group without
// values, except that COUNTs are 0.
Status AppendFlat(const AggPlan& p, const FlatStates& st, uint32_t g,
                  Column& col) {
  switch (p.kernel) {
    case AggKernel::kCount:
      col.AppendInt64(static_cast<int64_t>(st.count[g]));
      break;
    case AggKernel::kSum:
      if (st.count[g] == 0) {
        col.AppendNull();
      } else if (p.kind == AggKind::kSum) {
        col.AppendDouble(CanonicalNaN(st.sum[g]));
      } else {
        col.AppendDouble(
            CanonicalNaN(st.sum[g] / static_cast<double>(st.count[g])));
      }
      break;
    case AggKernel::kMinMax:
      if (st.count[g] == 0) {
        col.AppendNull();
      } else if (p.arg->type() == DataType::kInt64) {
        col.AppendInt64(st.int_best[g]);
      } else {
        col.AppendDouble(st.double_best[g]);
      }
      break;
    case AggKernel::kRow: {
      const RowState& r = st.rows[g];
      if (p.kind == AggKind::kCountDistinct) {
        col.AppendInt64(static_cast<int64_t>(
            r.count == 0 ? 0 : r.boxed->distinct.size()));
      } else if (p.kind == AggKind::kMin || p.kind == AggKind::kMax) {
        if (r.count == 0) {
          col.AppendNull();
        } else {
          return col.AppendValue(r.boxed->best);
        }
      } else if (r.count < 2) {
        col.AppendNull();
      } else {
        const double var = r.m2 / static_cast<double>(r.count - 1);
        col.AppendDouble(
            CanonicalNaN(p.kind == AggKind::kVar ? var : std::sqrt(var)));
      }
      break;
    }
  }
  return Status::OK();
}

// ---- Key kernels ----------------------------------------------------------
// A kernel assigns dense group ids to keys, in first-insertion order. A group
// is remembered by its Key: the key (inline values, or a row holding them)
// and the first row it was seen at. Its Table is a group table: one per
// worker for the morsel pass, one per partition for the merge. It has
//   Group(begin, end, table, gids, keys): the ids of rows [begin, end) into
//       gids (NoKeys writes none: every row is group 0), each new group's
//       Key appended to `keys`;
//   Insert(table, hash, key, &inserted): the id of `key`;
//   Hash(key): the key's hash, which picks its merge partition (and is the
//       probe hash of the hashed kernels).

// Keys of one INT64 column. A key sits inline in the table as its value and
// a NULL flag and compares as an integer.
class Int64Keys {
 public:
  struct Key {
    int64_t v;  // 0 for NULL.
    bool null;
    uint32_t first_row;  // Not part of the key.
    bool SameKey(const Key& o) const { return v == o.v && null == o.null; }
  };
  struct Table {
    HashIdTable ids;
    std::vector<Key> keys;  // By id.
    void Clear() {
      ids.Clear();
      keys.clear();
    }
    uint64_t ApproxBytes() const {
      return ids.ApproxBytes() + keys.capacity() * sizeof(Key);
    }
  };

  explicit Int64Keys(const Column& col)
      : data_(col.int64_data()),
        valid_(col.has_nulls() ? col.validity() : nullptr) {}

  static uint64_t Hash(const Key& k) {
    return Mix64(static_cast<uint64_t>(k.v)) ^ static_cast<uint64_t>(k.null);
  }

  void Group(size_t begin, size_t end, Table& t, uint32_t* gids,
             std::vector<Key>& keys) const {
    for (size_t i = begin; i < end; ++i) {
      const bool null = valid_ != nullptr && valid_[i] == 0;
      const Key k{null ? 0 : data_[i], null, static_cast<uint32_t>(i)};
      bool inserted = false;
      gids[i - begin] = Insert(t, Hash(k), k, &inserted);
      if (inserted) keys.push_back(k);
    }
  }

  uint32_t Insert(Table& t, uint64_t hash, const Key& key,
                  bool* inserted) const {
    const uint32_t id = t.ids.FindOrInsert(
        hash, [&](uint32_t cand) { return t.keys[cand].SameKey(key); },
        inserted);
    if (*inserted) t.keys.push_back(key);
    return id;
  }

 private:
  const int64_t* data_;
  const uint8_t* valid_;
};

// Keys of any other types: a key is its first row, compared slot by slot
// through Column.
class ColumnKeys {
 public:
  struct Key {
    uint32_t first_row;
    uint64_t hash;
  };
  struct Table {
    HashIdTable ids;
    std::vector<uint32_t> reps;    // A row holding each id's key.
    std::vector<uint64_t> hashes;  // Morsel scratch.
    void Clear() {
      ids.Clear();
      reps.clear();
    }
    uint64_t ApproxBytes() const {
      return ids.ApproxBytes() + 4 * reps.capacity() + 8 * hashes.capacity();
    }
  };

  explicit ColumnKeys(const std::vector<const Column*>& cols) : cols_(cols) {}

  static uint64_t Hash(const Key& k) { return k.hash; }

  void Group(size_t begin, size_t end, Table& t, uint32_t* gids,
             std::vector<Key>& keys) const {
    // Hash column at a time (one tight loop per key column), then probe.
    t.hashes.assign(end - begin, 0x9e3779b97f4a7c15ULL);
    for (const Column* k : cols_) {
      for (size_t i = begin; i < end; ++i) {
        t.hashes[i - begin] = HashCombine(t.hashes[i - begin], k->HashAt(i));
      }
    }
    for (size_t i = begin; i < end; ++i) {
      const Key k{static_cast<uint32_t>(i), t.hashes[i - begin]};
      bool inserted = false;
      gids[i - begin] = Insert(t, k.hash, k, &inserted);
      if (inserted) keys.push_back(k);
    }
  }

  uint32_t Insert(Table& t, uint64_t hash, const Key& key,
                  bool* inserted) const {
    const uint32_t id = t.ids.FindOrInsert(
        hash,
        [&](uint32_t cand) {
          for (const Column* k : cols_) {
            if (!k->SlotEquals(key.first_row, *k, t.reps[cand])) return false;
          }
          return true;
        },
        inserted);
    if (*inserted) t.reps.push_back(key.first_row);
    return id;
  }

 private:
  std::vector<const Column*> cols_;
};

// One INT64 column whose values span a small range: a key is its slot,
// value - min (one more slot for NULL), and its id sits at that index of a
// plain array. No hashing of rows, no probing.
class DirectKeys {
 public:
  struct Key {
    uint32_t slot;
    uint32_t first_row;
  };
  struct Table {
    std::vector<uint32_t> id_of_slot;  // kNotFound for an absent key.
    std::vector<uint32_t> slots;       // By id.
    void Clear() {
      for (uint32_t slot : slots) id_of_slot[slot] = HashIdTable::kNotFound;
      slots.clear();
    }
    uint64_t ApproxBytes() const {
      return 4 * (id_of_slot.capacity() + slots.capacity());
    }
  };

  DirectKeys(const Column& col, int64_t min, uint64_t range)
      : data_(col.int64_data()),
        valid_(col.has_nulls() ? col.validity() : nullptr),
        min_(min),
        null_slot_(static_cast<uint32_t>(range + 1)) {}

  static uint64_t Hash(const Key& k) { return Mix64(k.slot); }

  void Group(size_t begin, size_t end, Table& t, uint32_t* gids,
             std::vector<Key>& keys) const {
    for (size_t i = begin; i < end; ++i) {
      const bool null = valid_ != nullptr && valid_[i] == 0;
      const Key k{null ? null_slot_
                       : static_cast<uint32_t>(static_cast<uint64_t>(data_[i]) -
                                               static_cast<uint64_t>(min_)),
                  static_cast<uint32_t>(i)};
      bool inserted = false;
      gids[i - begin] = Insert(t, 0, k, &inserted);
      if (inserted) keys.push_back(k);
    }
  }

  uint32_t Insert(Table& t, uint64_t /*hash*/, const Key& key,
                  bool* inserted) const {
    if (t.id_of_slot.empty()) {
      t.id_of_slot.assign(null_slot_ + 1, HashIdTable::kNotFound);
    }
    uint32_t& id = t.id_of_slot[key.slot];
    *inserted = id == HashIdTable::kNotFound;
    if (*inserted) {
      id = static_cast<uint32_t>(t.slots.size());
      t.slots.push_back(key.slot);
    }
    return id;
  }

 private:
  const int64_t* data_;
  const uint8_t* valid_;
  int64_t min_;
  uint32_t null_slot_;
};

// No key columns: every row is group 0. Group writes no ids, and a morsel
// has its one group even when it is empty, so an aggregate without keys
// yields one row over no rows too.
class NoKeys {
 public:
  struct Key {
    uint32_t first_row;
  };
  struct Table {
    bool has_group = false;
    void Clear() { has_group = false; }
    uint64_t ApproxBytes() const { return 0; }
  };

  static uint64_t Hash(const Key& /*key*/) { return 0; }

  void Group(size_t begin, size_t /*end*/, Table& t, uint32_t* /*gids*/,
             std::vector<Key>& keys) const {
    const Key k{static_cast<uint32_t>(begin)};
    bool inserted = false;
    Insert(t, Hash(k), k, &inserted);
    if (inserted) keys.push_back(k);
  }

  uint32_t Insert(Table& t, uint64_t /*hash*/, const Key& /*key*/,
                  bool* inserted) const {
    *inserted = !t.has_group;
    t.has_group = true;
    return 0;
  }
};

// Calls fn with the key kernel for `cols`: NoKeys for none, DirectKeys when
// one INT64 column spans fewer than `direct_slots` values, Int64Keys for
// another single INT64 column, ColumnKeys otherwise.
template <typename Fn>
auto WithKeyKernel(const std::vector<const Column*>& cols, size_t direct_slots,
                   Fn&& fn) {
  if (cols.empty()) return fn(NoKeys());
  if (cols.size() == 1 && cols[0]->type() == DataType::kInt64) {
    // NULL slots are scanned too: their stored values can only widen the
    // range, and a NULL key never indexes by its value.
    const int64_t* v = cols[0]->int64_data();
    int64_t lo = 0;
    int64_t hi = 0;
    if (cols[0]->size() > 0) lo = hi = v[0];
    for (size_t i = 0; i < cols[0]->size(); ++i) {
      lo = std::min(lo, v[i]);
      hi = std::max(hi, v[i]);
    }
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (range < direct_slots) return fn(DirectKeys(*cols[0], lo, range));
    return fn(Int64Keys(*cols[0]));
  }
  return fn(ColumnKeys(cols));
}

// One morsel's groups and their partials. Group ids start out in
// first-appearance order within the morsel; when the input has several
// morsels they are renumbered into partition order before accumulation, so
// each partition's groups sit contiguously: ids [partition_begin[q],
// partition_begin[q + 1]) for partition q.
template <typename Keys>
struct MorselState {
  using Key = typename Keys::Key;
  std::vector<Key> keys;         // By id.
  std::vector<FlatStates> aggs;  // Partials, one per aggregate.
  std::array<uint32_t, kPartitions + 1> partition_begin{};

  // Renumbers the groups into partition order (stable within a partition)
  // and rewrites the rows' ids `gids[0, rows)` to match. `id_of` is scratch.
  void OrderByPartition(uint32_t* gids, size_t rows,
                        std::vector<uint32_t>& id_of) {
    id_of.resize(keys.size());
    for (size_t k = 0; k < keys.size(); ++k) {
      id_of[k] = static_cast<uint32_t>(PartitionOf(Keys::Hash(keys[k])));
      ++partition_begin[id_of[k] + 1];
    }
    for (size_t q = 0; q < kPartitions; ++q) {
      partition_begin[q + 1] += partition_begin[q];
    }
    std::array<uint32_t, kPartitions> cursor;
    std::copy(partition_begin.begin(), partition_begin.end() - 1,
              cursor.begin());
    std::vector<Key> ordered(keys.size());
    for (size_t k = 0; k < keys.size(); ++k) {
      id_of[k] = cursor[id_of[k]]++;
      ordered[id_of[k]] = keys[k];
    }
    keys = std::move(ordered);
    for (size_t i = 0; i < rows; ++i) gids[i] = id_of[gids[i]];
  }

  uint64_t ApproxBytes() const {
    uint64_t bytes = sizeof(*this) + sizeof(Key) * keys.capacity();
    for (const FlatStates& f : aggs) bytes += f.ApproxBytes();
    return bytes;
  }
};

// The group-key columns of an aggregation over `input`.
struct GroupKeyColumns {
  std::vector<EvaluatedColumn> evaluated;
  std::vector<const Column*> cols;
};

Result<GroupKeyColumns> EvalGroupKeys(const Table& input,
                                      const std::vector<ExprPtr>& exprs) {
  GroupKeyColumns keys;
  for (const ExprPtr& e : exprs) {
    AQP_ASSIGN_OR_RETURN(EvaluatedColumn c, EvalBorrowed(*e, input));
    keys.cols.push_back(c.column);
    keys.evaluated.push_back(std::move(c));
  }
  return keys;
}

// Groups `[0, groups)` of per-aggregate states `aggs`.
struct StateBlock {
  const std::vector<FlatStates>* aggs;
  size_t groups;
};

// Finalizes the output: key columns gathered at each group's first row, then
// one column per aggregate. Values are produced block after block, in
// sequence; with `order`, output group pos takes value order[pos].
Result<Table> FinalizeGroups(const std::vector<const Column*>& key_cols,
                             const std::vector<uint32_t>& first_rows,
                             const std::vector<std::string>& group_names,
                             const std::vector<AggSpec>& aggs,
                             const std::vector<AggPlan>& plans,
                             const std::vector<StateBlock>& blocks,
                             const std::vector<uint32_t>* order) {
  Schema schema;
  std::vector<Column> columns;
  for (size_t c = 0; c < key_cols.size(); ++c) {
    schema.AddField({group_names[c], key_cols[c]->type()});
    columns.push_back(key_cols[c]->Take(first_rows));
  }
  for (size_t a = 0; a < plans.size(); ++a) {
    schema.AddField({aggs[a].alias, plans[a].out_type});
    Column col(plans[a].out_type);
    col.Reserve(first_rows.size());
    for (const StateBlock& block : blocks) {
      for (uint32_t g = 0; g < block.groups; ++g) {
        AQP_RETURN_IF_ERROR(AppendFlat(plans[a], (*block.aggs)[a], g, col));
      }
    }
    columns.push_back(order != nullptr ? col.Take(*order) : std::move(col));
  }
  return Table::Make(std::move(schema), std::move(columns));
}

// The skeleton above, for one key kernel.
template <typename Keys>
Result<Table> AggregateGroups(const Keys& keys,
                              const std::vector<const Column*>& key_cols,
                              const std::vector<std::string>& group_names,
                              const std::vector<AggSpec>& aggs,
                              const std::vector<AggPlan>& plans, size_t n,
                              const AggregateOptions& options) {
  const ExecOptions* exec = options.exec;
  const bool use_morsels = exec != nullptr && exec->UseMorsels(n);
  const size_t morsel_rows = use_morsels ? exec->morsel_rows : n;
  constexpr bool one_group = std::is_same_v<Keys, NoKeys>;
  // An empty input is no morsel, or the one empty morsel of the one group.
  const size_t num_morsels =
      n == 0 ? size_t{one_group} : (n + morsel_rows - 1) / morsel_rows;
  // Steps 3-4 run only for several morsels holding more than one group.
  const bool partitioned = num_morsels > 1 && !one_group;
  const size_t num_threads = use_morsels ? exec->ResolvedThreads() : 1;
  MemoryTracker* memory = exec != nullptr ? exec->memory : nullptr;
  const ThreadPool::ParallelForOptions pf{exec != nullptr ? exec->cancel
                                                          : nullptr};

  // Steps 1-2: morsel-local group ids and partials. The per-worker group
  // table and id vectors are reused morsel after morsel.
  std::vector<MorselState<Keys>> morsels(num_morsels);
  struct Scratch {
    typename Keys::Table table;
    std::vector<uint32_t> gids;
    std::vector<uint32_t> id_of;
  };
  std::vector<Scratch> scratch(num_threads);
  auto accumulate_morsel = [&](size_t worker, size_t m, size_t begin,
                               size_t end) {
    Scratch& s = scratch[worker];
    s.table.Clear();
    uint32_t* gids = nullptr;  // Without keys, every row is group 0.
    if (!one_group) {
      s.gids.resize(end - begin);
      gids = s.gids.data();
    }
    MorselState<Keys>& st = morsels[m];
    keys.Group(begin, end, s.table, gids, st.keys);
    if (partitioned) st.OrderByPartition(gids, end - begin, s.id_of);
    st.aggs.resize(plans.size());
    for (size_t a = 0; a < plans.size(); ++a) {
      st.aggs[a].Resize(plans[a], st.keys.size());
      Accumulate(plans[a], gids, begin, end, st.aggs[a]);
    }
  };
  if (!use_morsels || n == 0) {
    if (num_morsels == 1) accumulate_morsel(0, 0, 0, n);
  } else {
    ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
        n, morsel_rows, num_threads, pf, accumulate_morsel);
    AQP_RETURN_IF_ERROR(CheckCancelled(exec->cancel));
    if (options.run_stats != nullptr) options.run_stats->MergeFrom(rs);
  }
  scratch.clear();
  uint64_t morsel_bytes = 0;
  for (const MorselState<Keys>& st : morsels) morsel_bytes += st.ApproxBytes();
  AQP_ASSIGN_OR_RETURN(
      ScopedMemoryCharge morsel_charge,
      ScopedMemoryCharge::Make(memory, morsel_bytes, "aggregate state"));

  if (!partitioned) {
    std::vector<uint32_t> first_rows;
    std::vector<StateBlock> blocks;
    std::vector<FlatStates> folded;
    if (num_morsels == 1) {
      for (const auto& k : morsels[0].keys) first_rows.push_back(k.first_row);
      blocks.push_back({&morsels[0].aggs, first_rows.size()});
    } else if (num_morsels > 1) {
      // The one group folds its partials in morsel order, from empty, as
      // step 3 folds a group's.
      folded.resize(plans.size());
      for (size_t a = 0; a < plans.size(); ++a) {
        folded[a].Resize(plans[a], 1);
        for (const MorselState<Keys>& st : morsels) {
          Fold(plans[a], folded[a], 0, st.aggs[a], 0);
        }
      }
      first_rows.push_back(0);
      blocks.push_back({&folded, 1});
    }
    return FinalizeGroups(key_cols, first_rows, group_names, aggs, plans,
                          blocks, nullptr);
  }

  // Step 3: each partition folds its groups' partials in morsel order. A
  // group's first insertion comes from the first morsel holding it, so its
  // Key's first_row is its first row in the input; that row is marked in
  // `firsts`, a bitmap over the input's rows.
  struct Partition {
    typename Keys::Table table;
    std::vector<uint32_t> first_rows;  // By id.
    std::vector<FlatStates> aggs;
  };
  std::vector<Partition> parts(kPartitions);
  std::vector<uint64_t> firsts((n + 63) / 64, 0);
  ThreadPool::Shared().ParallelFor(
      kPartitions, 1, num_threads, pf, [&](size_t, size_t q, size_t, size_t) {
        Partition& part = parts[q];
        part.aggs.resize(plans.size());
        for (const MorselState<Keys>& st : morsels) {
          for (uint32_t l = st.partition_begin[q];
               l < st.partition_begin[q + 1]; ++l) {
            const typename Keys::Key& key = st.keys[l];
            bool inserted = false;
            const uint32_t g =
                keys.Insert(part.table, Keys::Hash(key), key, &inserted);
            if (inserted) {
              for (size_t a = 0; a < plans.size(); ++a) {
                part.aggs[a].Resize(plans[a], g + 1);
              }
              const uint32_t r = key.first_row;
              part.first_rows.push_back(r);
              std::atomic_ref<uint64_t>(firsts[r / 64])
                  .fetch_or(uint64_t{1} << (r % 64), std::memory_order_relaxed);
            }
            for (size_t a = 0; a < plans.size(); ++a) {
              Fold(plans[a], part.aggs[a], g, st.aggs[a], l);
            }
          }
        }
      });
  AQP_RETURN_IF_ERROR(CheckCancelled(pf.cancel));
  uint64_t partition_bytes = 8 * firsts.capacity();
  for (const Partition& part : parts) {
    partition_bytes +=
        part.table.ApproxBytes() + 4 * part.first_rows.capacity();
    for (const FlatStates& f : part.aggs) partition_bytes += f.ApproxBytes();
  }
  AQP_ASSIGN_OR_RETURN(
      ScopedMemoryCharge partition_charge,
      ScopedMemoryCharge::Make(memory, partition_bytes, "aggregate state"));

  // Step 4: a group's output position is the rank of its first row among
  // all groups' first rows. Values are finalized partition by partition,
  // so output group pos takes value order[pos].
  std::vector<uint32_t> rank_base(firsts.size());
  uint32_t num_groups = 0;
  for (size_t w = 0; w < firsts.size(); ++w) {
    rank_base[w] = num_groups;
    num_groups += static_cast<uint32_t>(std::popcount(firsts[w]));
  }
  std::vector<uint32_t> first_rows(num_groups);
  std::vector<uint32_t> order(num_groups);
  std::vector<StateBlock> blocks;
  uint32_t value = 0;
  for (const Partition& part : parts) {
    blocks.push_back({&part.aggs, part.first_rows.size()});
    for (uint32_t r : part.first_rows) {
      const uint64_t below = firsts[r / 64] & ((uint64_t{1} << (r % 64)) - 1);
      const uint32_t pos = rank_base[r / 64] + std::popcount(below);
      first_rows[pos] = r;
      order[pos] = value++;
    }
  }
  return FinalizeGroups(key_cols, first_rows, group_names, aggs, plans,
                        blocks, &order);
}

}  // namespace

Result<GroupIndex> BuildGroupIndex(const Table& input,
                                   const std::vector<ExprPtr>& group_exprs) {
  GroupIndex index;
  const size_t n = input.num_rows();
  index.group_ids.resize(n);  // All 0: NoKeys writes no ids.
  AQP_ASSIGN_OR_RETURN(GroupKeyColumns keys, EvalGroupKeys(input, group_exprs));
  // The aggregation's key kernel, run serially as one morsel.
  std::vector<uint32_t> first_rows;
  WithKeyKernel(keys.cols, ExecOptions{}.morsel_rows, [&](const auto& kernel) {
    using Keys = std::decay_t<decltype(kernel)>;
    typename Keys::Table table;
    std::vector<typename Keys::Key> groups;
    kernel.Group(0, n, table, index.group_ids.data(), groups);
    for (const auto& k : groups) first_rows.push_back(k.first_row);
  });
  for (const Column* k : keys.cols) {
    index.key_columns.push_back(k->Take(first_rows));
  }
  index.num_groups = first_rows.size();
  return index;
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

  // Resolve each aggregate's argument once; bare column refs are borrowed.
  std::vector<EvaluatedColumn> args;
  std::vector<AggPlan> plans;
  for (const AggSpec& spec : aggs) {
    if (spec.kind == AggKind::kCountStar) {
      args.emplace_back();
      plans.push_back(
          {spec.kind, AggKernel::kCount, nullptr, DataType::kInt64});
      continue;
    }
    if (spec.arg == nullptr) {
      return Status::InvalidArgument("aggregate missing argument: " +
                                     spec.alias);
    }
    AQP_ASSIGN_OR_RETURN(EvaluatedColumn c, EvalBorrowed(*spec.arg, input));
    AQP_ASSIGN_OR_RETURN(DataType t,
                         AggResultType(spec.kind, c.column->type()));
    plans.push_back({spec.kind, KernelFor(spec.kind, c.column), c.column, t});
    args.push_back(std::move(c));
  }

  AQP_ASSIGN_OR_RETURN(GroupKeyColumns keys, EvalGroupKeys(input, group_exprs));
  const size_t direct_slots = options.exec != nullptr
                                  ? options.exec->morsel_rows
                                  : ExecOptions{}.morsel_rows;
  return WithKeyKernel(keys.cols, direct_slots, [&](const auto& kernel) {
    return AggregateGroups(kernel, keys.cols, group_names, aggs, plans, n,
                           options);
  });
}

}  // namespace aqp
