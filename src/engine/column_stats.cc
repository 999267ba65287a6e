#include "engine/column_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/hash.h"
#include "common/hash_id_table.h"
#include "common/random.h"
#include "stats/descriptive.h"
#include "storage/extent/codec.h"

namespace aqp {
namespace {

// Bytes one tracked value costs the build: its spread, open run and first
// row, plus the hash slots it may occupy (the table stays under half full).
constexpr uint64_t kBytesPerValue =
    sizeof(ValueSpread) + 2 * sizeof(uint64_t) + sizeof(uint32_t) + 32;

// Rows between two polls of the cancellation token.
constexpr size_t kCancelCheckRows = 16384;

// Bytes of the KMV sketch's set nodes.
constexpr uint64_t kDistinctBytes =
    ColumnStats::kDistinctK * 6 * sizeof(uint64_t);

// Bytes the sampling pass holds: the sample's row ids and boxed values, and
// the KMV sketch.
constexpr uint64_t kSampleBytes =
    ColumnStats::kMaxValues * (sizeof(uint32_t) + sizeof(Value)) +
    kDistinctBytes;

// Seed of every column's sample, so statistics of unchanged data are equal.
constexpr uint64_t kSampleSeed = 0x5eed;

// Closes a value's run of `run` rows in one block.
void CloseRun(ValueSpread* spread, uint64_t run) {
  if (run == 0) return;
  ++spread->blocks;
  spread->sum_sq += run * run;
}

// One pass over `column` in blocks of `unit_rows`, handing out value ids in
// first-appearance order and filling the NULL spread. `id_of(i, &inserted)`
// is row i's value id, new ids being the next dense one. Returns false, with
// only the row and NULL counts kept, once a value past kMaxValues appears.
// `first_row[id]` is a row holding value id.
template <typename IdOf>
Result<bool> TrackValues(const Column& column, uint32_t unit_rows,
                         MemoryTracker* memory,
                         const CancellationToken* cancel, IdOf&& id_of,
                         ColumnStats* out, std::vector<uint32_t>* first_row) {
  std::vector<uint64_t> run_block;  // Block of each value's open run.
  std::vector<uint64_t> run;        // Rows of the value in that block.
  ScopedMemoryCharge charge;
  uint64_t charged_values = 0;
  uint64_t null_run = 0;
  const size_t n = column.size();
  const bool nullable = column.has_nulls();
  size_t next_check = 0;
  for (size_t begin = 0, b = 0; begin < n; begin += unit_rows, ++b) {
    if (begin >= next_check) {
      AQP_RETURN_IF_ERROR(CheckCancelled(cancel));
      next_check = begin + kCancelCheckRows;
    }
    const size_t end = std::min(n, begin + unit_rows);
    for (size_t i = begin; i < end; ++i) {
      if (nullable && column.IsNull(i)) {
        ++null_run;
        continue;
      }
      bool inserted = false;
      const uint32_t id = id_of(i, &inserted);
      if (inserted) {
        if (id == ColumnStats::kMaxValues) return false;
        if (id == charged_values) {
          charged_values = std::max<uint64_t>(64, 2 * charged_values);
          charge.Reset();
          AQP_ASSIGN_OR_RETURN(
              charge, ScopedMemoryCharge::Make(
                          memory, charged_values * kBytesPerValue,
                          "column statistics"));
        }
        first_row->push_back(static_cast<uint32_t>(i));
        out->spreads.emplace_back();
        run_block.push_back(b);
        run.push_back(0);
      }
      if (run_block[id] != b) {
        CloseRun(&out->spreads[id], run[id]);
        run_block[id] = b;
        run[id] = 0;
      }
      ++run[id];
      ++out->spreads[id].rows;
    }
    CloseRun(&out->nulls, null_run);
    null_run = 0;
  }
  for (size_t id = 0; id < run.size(); ++id) {
    CloseRun(&out->spreads[id], run[id]);
  }
  return true;
}

Moments MomentsOf(const stats::Accumulator& a) {
  return Moments{a.count(), a.mean(), a.m2()};
}

// The pass over a column that is not exact: a numeric column's moments, a
// uniform sample of kMaxValues of its non-NULL values (NaN left out) and a
// KMV sketch of every non-NULL value's hash. The sample is Li's Algorithm
// L: after the first kMaxValues values, only the kept ones draw random
// numbers.
Status SampleColumn(const Column& column, MemoryTracker* memory,
                    const CancellationToken* cancel, ColumnStats* out) {
  AQP_ASSIGN_OR_RETURN(
      ScopedMemoryCharge charge,
      ScopedMemoryCharge::Make(memory, kSampleBytes, "column statistics"));
  constexpr uint32_t k = ColumnStats::kMaxValues;
  const bool numeric = IsNumeric(column.type());
  stats::Accumulator moments;
  Pcg32 rng(kSampleSeed);
  auto unit = [&rng] { return 1.0 - rng.NextDouble(); };  // In (0, 1].
  std::vector<uint32_t> rows;
  rows.reserve(k);
  double w = 1.0;
  uint64_t seen = 0;
  uint64_t next = 0;  // Index among the values of the next one kept.
  for (size_t i = 0; i < column.size(); ++i) {
    if (i % kCancelCheckRows == 0) AQP_RETURN_IF_ERROR(CheckCancelled(cancel));
    if (column.IsNull(i)) continue;
    out->distinct.Add(column.HashAt(i));
    const double v = numeric ? column.NumericAt(i) : 0.0;
    if (std::isnan(v)) continue;
    moments.Add(v);
    const uint64_t index = seen++;
    if (index < k) {
      rows.push_back(static_cast<uint32_t>(i));
      if (index + 1 < k) continue;
    } else if (index == next) {
      rows[rng.UniformUint32(k)] = static_cast<uint32_t>(i);
    } else {
      continue;
    }
    w *= std::exp(std::log(unit()) / k);
    const double skip = std::floor(std::log(unit()) / std::log1p(-w));
    next = index + 1 + (skip < 0x1p62 ? static_cast<uint64_t>(skip)
                                      : uint64_t{1} << 62);
  }
  if (numeric) out->moments = MomentsOf(moments);
  out->sample.reserve(rows.size());
  for (uint32_t row : rows) out->sample.push_back(column.GetValue(row));
  std::sort(out->sample.begin(), out->sample.end(),
            [](const Value& a, const Value& b) {
              return *TryCompareValues(a, b) < 0;
            });
  return Status::OK();
}

// Value ids through a hash table over each value's key (`key(i)` is row
// i's value as an equality-comparable key).
template <typename KeyAt, typename Hash>
auto HashedIds(KeyAt key, Hash hash) {
  using Key = decltype(key(size_t{0}));
  return [key, hash, ids = HashIdTable(64), keys = std::vector<Key>()](
             size_t i, bool* inserted) mutable {
    const Key k = key(i);
    const uint32_t id = ids.FindOrInsert(
        hash(k), [&](uint32_t v) { return keys[v] == k; }, inserted);
    if (*inserted) keys.push_back(k);
    return id;
  };
}

}  // namespace

std::optional<uint64_t> ColumnStats::RowsMatching(OpKind op,
                                                  const Value& literal) const {
  if (!exact || literal.is_null()) return std::nullopt;
  if (!values.empty() && !TryCompareValues(values[0], literal).has_value()) {
    return std::nullopt;
  }
  auto below = [&](const Value& v, const Value& lit) {
    return *TryCompareValues(v, lit) < 0;
  };
  auto above = [&](const Value& lit, const Value& v) {
    return *TryCompareValues(v, lit) > 0;
  };
  const size_t lo =
      std::lower_bound(values.begin(), values.end(), literal, below) -
      values.begin();
  const size_t hi =
      std::upper_bound(values.begin(), values.end(), literal, above) -
      values.begin();
  const uint64_t non_null = rows_before.back();
  switch (op) {
    case OpKind::kEq:
      return rows_before[hi] - rows_before[lo];
    case OpKind::kNe:
      return non_null - (rows_before[hi] - rows_before[lo]);
    case OpKind::kLt:
      return rows_before[lo];
    case OpKind::kLe:
      return rows_before[hi];
    case OpKind::kGt:
      return non_null - rows_before[hi];
    case OpKind::kGe:
      return non_null - rows_before[lo];
    default:
      return std::nullopt;
  }
}

Result<ColumnStats> BuildColumnStats(const Column& column, uint32_t unit_rows,
                                     MemoryTracker* memory,
                                     const CancellationToken* cancel) {
  AQP_CHECK(unit_rows > 0);
  ColumnStats out;
  out.rows = column.size();
  std::vector<uint32_t> first_row;
  Result<bool> tracked = false;
  switch (column.type()) {
    case DataType::kInt64: {
      const int64_t* v = column.int64_data();
      tracked = TrackValues(column, unit_rows, memory, cancel,
                            HashedIds([&](size_t i) { return v[i]; },
                                      [](int64_t k) { return HashInt64(k); }),
                            &out, &first_row);
      break;
    }
    case DataType::kDouble: {
      // By bit pattern, with -0.0 folded onto +0.0.
      const double* v = column.double_data();
      tracked = TrackValues(
          column, unit_rows, memory, cancel,
          HashedIds(
              [&](size_t i) { return std::bit_cast<uint64_t>(v[i] + 0.0); },
              [](uint64_t k) { return Mix64(k); }),
          &out, &first_row);
      break;
    }
    case DataType::kString:
      tracked = TrackValues(
          column, unit_rows, memory, cancel,
          HashedIds(
              [&](size_t i) { return std::string_view(column.StringAt(i)); },
              [](std::string_view k) { return HashString(k); }),
          &out, &first_row);
      break;
    case DataType::kBool: {
      const uint8_t* v = column.bool_data();
      tracked = TrackValues(
          column, unit_rows, memory, cancel,
          HashedIds([&](size_t i) { return int64_t{v[i] != 0}; },
                    [](int64_t k) { return HashInt64(k); }),
          &out, &first_row);
      break;
    }
  }
  AQP_RETURN_IF_ERROR(tracked.status());
  // NaN has no place in an ordered value table.
  const bool has_nan =
      column.type() == DataType::kDouble &&
      std::any_of(first_row.begin(), first_row.end(), [&](uint32_t row) {
        return std::isnan(column.DoubleAt(row));
      });
  if (!tracked.value() || has_nan) {
    out.nulls = ValueSpread{column.null_count(), 0, 0};
    out.spreads.clear();
    AQP_RETURN_IF_ERROR(SampleColumn(column, memory, cancel, &out));
    return out;
  }
  out.nulls.rows = column.null_count();
  out.exact = true;
  // A KMV sketch depends only on the set of values.
  for (uint32_t row : first_row) out.distinct.Add(column.HashAt(row));

  // Ascending value order, so comparisons become prefix sums.
  std::vector<Value> boxed;
  boxed.reserve(first_row.size());
  for (uint32_t row : first_row) boxed.push_back(column.GetValue(row));
  std::vector<uint32_t> order(first_row.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return *TryCompareValues(boxed[a], boxed[b]) < 0;
  });
  std::vector<ValueSpread> spreads;
  spreads.reserve(order.size());
  out.values.reserve(order.size());
  out.rows_before.assign(1, 0);
  for (uint32_t id : order) {
    out.values.push_back(std::move(boxed[id]));
    spreads.push_back(out.spreads[id]);
    out.rows_before.push_back(out.rows_before.back() + spreads.back().rows);
  }
  out.spreads = std::move(spreads);
  if (IsNumeric(column.type())) {
    stats::Accumulator moments;
    for (size_t i = 0; i < out.values.size(); ++i) {
      moments.Add(out.values[i].AsDouble(), out.spreads[i].rows);
    }
    out.moments = MomentsOf(moments);
  }
  return out;
}

uint64_t ColumnStats::ApproxBytes() const {
  uint64_t bytes = sizeof(*this) + spreads.size() * sizeof(ValueSpread) +
                   rows_before.size() * sizeof(uint64_t);
  for (const std::vector<Value>* list : {&values, &sample}) {
    for (const Value& v : *list) {
      bytes += sizeof(Value) + (v.is_string() ? v.str().size() : 0);
    }
  }
  return bytes + kDistinctBytes;
}

namespace {

void PutSpread(ByteWriter* w, const ValueSpread& s) {
  w->PutU64(s.rows);
  w->PutU64(s.blocks);
  w->PutU64(s.sum_sq);
}

Result<ValueSpread> GetSpread(ByteReader* r) {
  ValueSpread s;
  AQP_ASSIGN_OR_RETURN(s.rows, r->GetU64());
  AQP_ASSIGN_OR_RETURN(s.blocks, r->GetU64());
  AQP_ASSIGN_OR_RETURN(s.sum_sq, r->GetU64());
  return s;
}

// Reads one non-NULL value that does not sort below the last of `list`
// (nor equal to it when `strict`).
Result<Value> GetValueAfter(ByteReader* r, const std::vector<Value>& list,
                            bool strict) {
  AQP_ASSIGN_OR_RETURN(Value v, extent::GetValue(r));
  const std::optional<int> order =
      TryCompareValues(list.empty() ? v : list.back(), v);
  if (!order.has_value() || *order > 0 ||
      (strict && !list.empty() && *order == 0)) {
    return Status::InvalidArgument("column statistics values out of order");
  }
  return v;
}

}  // namespace

void WriteColumnStats(const ColumnStats& stats, ByteWriter* w) {
  w->PutU64(stats.rows);
  PutSpread(w, stats.nulls);
  w->PutU64(stats.moments.count);
  w->PutDouble(stats.moments.mean);
  w->PutDouble(stats.moments.m2);
  w->PutU8(stats.exact ? 1 : 0);
  const std::vector<Value>& list = stats.exact ? stats.values : stats.sample;
  w->PutU64(list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    extent::PutValue(w, list[i]);
    if (stats.exact) PutSpread(w, stats.spreads[i]);
  }
  const std::string kmv = stats.distinct.Serialize();
  w->PutU64(kmv.size());
  w->PutBytes(kmv.data(), kmv.size());
}

Result<ColumnStats> ReadColumnStats(ByteReader* r) {
  ColumnStats out;
  AQP_ASSIGN_OR_RETURN(out.rows, r->GetU64());
  AQP_ASSIGN_OR_RETURN(out.nulls, GetSpread(r));
  AQP_ASSIGN_OR_RETURN(out.moments.count, r->GetU64());
  AQP_ASSIGN_OR_RETURN(out.moments.mean, r->GetDouble());
  AQP_ASSIGN_OR_RETURN(out.moments.m2, r->GetDouble());
  AQP_ASSIGN_OR_RETURN(uint8_t exact, r->GetU8());
  AQP_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (exact > 1 || n > ColumnStats::kMaxValues || out.nulls.rows > out.rows) {
    return Status::InvalidArgument("corrupt column statistics header");
  }
  out.exact = exact == 1;
  std::vector<Value>& list = out.exact ? out.values : out.sample;
  if (out.exact) out.rows_before.assign(1, 0);
  for (uint64_t i = 0; i < n; ++i) {
    AQP_ASSIGN_OR_RETURN(Value v, GetValueAfter(r, list, out.exact));
    list.push_back(std::move(v));
    if (!out.exact) continue;
    AQP_ASSIGN_OR_RETURN(ValueSpread spread, GetSpread(r));
    out.spreads.push_back(spread);
    out.rows_before.push_back(out.rows_before.back() + spread.rows);
  }
  if (out.exact && out.rows_before.back() + out.nulls.rows != out.rows) {
    return Status::InvalidArgument("column statistics row counts disagree");
  }
  AQP_ASSIGN_OR_RETURN(uint64_t kmv_bytes, r->GetU64());
  if (kmv_bytes > r->remaining()) {
    return Status::InvalidArgument("column statistics sketch truncated");
  }
  std::string kmv(kmv_bytes, '\0');
  AQP_RETURN_IF_ERROR(r->GetBytes(kmv.data(), kmv_bytes));
  AQP_ASSIGN_OR_RETURN(out.distinct, sketch::KmvSketch::Deserialize(kmv));
  return out;
}

ColumnStatsCache& ColumnStatsCache::operator=(const ColumnStatsCache& other) {
  if (this != &other) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.clear();
  }
  return *this;
}

void ColumnStatsCache::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(slots_,
                [&](const auto& slot) { return slot.first.name == name; });
}

std::shared_ptr<ColumnStatsCache::Slot> ColumnStatsCache::SlotFor(
    const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Slot>& slot = slots_[key];
  if (slot == nullptr) slot = std::make_shared<Slot>();
  return slot;
}

}  // namespace aqp
