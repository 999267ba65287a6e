#include "engine/column_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/hash.h"
#include "common/hash_id_table.h"

namespace aqp {
namespace {

// Bytes one tracked value costs the build: its spread, open run and first
// row, plus the hash slots it may occupy (the table stays under half full).
constexpr uint64_t kBytesPerValue =
    sizeof(ValueSpread) + 2 * sizeof(uint64_t) + sizeof(uint32_t) + 32;

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
                         MemoryTracker* memory, IdOf&& id_of,
                         ColumnStats* out, std::vector<uint32_t>* first_row) {
  std::vector<uint64_t> run_block;  // Block of each value's open run.
  std::vector<uint64_t> run;        // Rows of the value in that block.
  ScopedMemoryCharge charge;
  uint64_t charged_values = 0;
  uint64_t null_run = 0;
  const size_t n = column.size();
  const bool nullable = column.has_nulls();
  for (size_t begin = 0, b = 0; begin < n; begin += unit_rows, ++b) {
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
                                     MemoryTracker* memory) {
  AQP_CHECK(unit_rows > 0);
  ColumnStats out;
  out.rows = column.size();
  std::vector<uint32_t> first_row;
  Result<bool> tracked = false;
  switch (column.type()) {
    case DataType::kInt64: {
      const int64_t* v = column.int64_data();
      tracked = TrackValues(column, unit_rows, memory,
                            HashedIds([&](size_t i) { return v[i]; },
                                      [](int64_t k) { return HashInt64(k); }),
                            &out, &first_row);
      break;
    }
    case DataType::kDouble: {
      // By bit pattern, with -0.0 folded onto +0.0.
      const double* v = column.double_data();
      tracked = TrackValues(
          column, unit_rows, memory,
          HashedIds(
              [&](size_t i) { return std::bit_cast<uint64_t>(v[i] + 0.0); },
              [](uint64_t k) { return Mix64(k); }),
          &out, &first_row);
      break;
    }
    case DataType::kString:
      tracked = TrackValues(
          column, unit_rows, memory,
          HashedIds(
              [&](size_t i) { return std::string_view(column.StringAt(i)); },
              [](std::string_view k) { return HashString(k); }),
          &out, &first_row);
      break;
    case DataType::kBool: {
      const uint8_t* v = column.bool_data();
      tracked = TrackValues(
          column, unit_rows, memory,
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
    return out;
  }
  out.nulls.rows = column.null_count();
  out.exact = true;

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
