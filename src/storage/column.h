#ifndef AQP_STORAGE_COLUMN_H_
#define AQP_STORAGE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace aqp {

/// Order-preserving dictionary for a string column: the distinct non-null
/// values sorted ascending (code = rank), plus one code per row. Because
/// codes are rank-ordered, any comparison against a literal reduces to an
/// integer comparison against the literal's rank — the batch predicate
/// kernels never touch string bytes. Built lazily per column and cached;
/// immutable once built.
class StringDictionary {
 public:
  /// Code stored for NULL rows.
  static constexpr uint32_t kNullCode = UINT32_MAX;

  /// Builds the dictionary for `values` (rows where valid[i] == 0 get
  /// kNullCode).
  static std::shared_ptr<const StringDictionary> Build(
      const std::vector<std::string>& values,
      const std::vector<uint8_t>& valid);

  /// Number of distinct non-null values.
  size_t num_values() const { return sorted_.size(); }

  /// Per-row codes, aligned with the source column's rows at build time.
  const std::vector<uint32_t>& codes() const { return codes_; }

  /// The string for a (non-null) code.
  const std::string& ValueOf(uint32_t code) const { return sorted_[code]; }

  /// True iff `s` is in the dictionary; then *code is its rank.
  bool CodeOf(const std::string& s, uint32_t* code) const;

  /// Rank of the first dictionary value >= s (may equal num_values()).
  uint32_t LowerBound(const std::string& s) const;
  /// Rank of the first dictionary value > s (may equal num_values()).
  uint32_t UpperBound(const std::string& s) const;

  /// Approximate heap footprint — what a query using this page charges to
  /// its MemoryTracker.
  uint64_t ApproxBytes() const;

 private:
  std::vector<std::string> sorted_;
  std::vector<uint32_t> codes_;
};

/// A typed, nullable, append-only column vector. Data is stored densely in a
/// single std::vector of the physical type plus a validity byte-map; NULL
/// slots hold a default-initialized physical value.
class Column {
 public:
  /// Constructs an empty column of the given type.
  explicit Column(DataType type) : type_(type) {}

  // The dictionary cache is an atomic slot, which deletes the implicit
  // special members; data members are copied/moved explicitly (the cache
  // pointer travels along — a copy shares the immutable dictionary).
  Column(const Column& other);
  Column& operator=(const Column& other);
  Column(Column&& other) noexcept;
  Column& operator=(Column&& other) noexcept;

  /// Convenience factories pre-filled from a vector (all values valid).
  static Column FromInt64(std::vector<int64_t> values);
  static Column FromDouble(std::vector<double> values);
  static Column FromString(std::vector<std::string> values);
  static Column FromBool(std::vector<bool> values);

  /// Adopts a decoded value vector of the column's physical type — int64_t
  /// (INT64), double (DOUBLE), uint8_t (BOOL; nonzero = true), std::string
  /// (STRING) — with per-row validity bytes: empty = every row valid, else
  /// one byte per value, nonzero = valid. NULL slots are reset to the
  /// default value, exactly as AppendNull stores them, and null_count() is
  /// counted from the bytes.
  template <typename T>
  static Column FromValues(std::vector<T> values, std::vector<uint8_t> valid);

  DataType type() const { return type_; }
  size_t size() const { return valid_.size(); }
  bool empty() const { return valid_.empty(); }

  /// True iff slot `i` is NULL.
  bool IsNull(size_t i) const { return valid_[i] == 0; }
  /// Number of NULL slots.
  size_t null_count() const { return null_count_; }
  /// True iff any slot is NULL (batch kernels skip validity loads when not).
  bool has_nulls() const { return null_count_ != 0; }

  /// Typed accessors; callers must respect type() and check IsNull first for
  /// semantic correctness (reading a NULL slot returns the default value).
  int64_t Int64At(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }

  /// Raw contiguous spans for the batch kernels. Valid only while the column
  /// is not appended to; the pointer type must match type().
  const int64_t* int64_data() const { return ints_.data(); }
  const double* double_data() const { return doubles_.data(); }
  const uint8_t* bool_data() const { return bools_.data(); }
  /// Per-row validity bytes (1 = valid, 0 = NULL).
  const uint8_t* validity() const { return valid_.data(); }

  /// Numeric view of slot i (INT64 widened to double). CHECK-fails on
  /// non-numeric column types.
  double NumericAt(size_t i) const;

  /// Boxed value of slot i (Value::Null() for NULL slots).
  Value GetValue(size_t i) const;

  /// Typed appends.
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendBool(bool v);
  void AppendNull();

  /// Appends a boxed value; the value type must match (INT64 widens into
  /// DOUBLE columns).
  Status AppendValue(const Value& v);

  /// Appends slot `i` of `other` (same type) onto this column.
  void AppendFrom(const Column& other, size_t i);

  /// Appends slots [offset, offset+length) of `other` (same type) with typed
  /// bulk copies; NULL slots and the null count carry over unchanged.
  void AppendRange(const Column& other, size_t offset, size_t length);

  /// Gathers the given row indices into a new column with typed bulk loops
  /// (no per-row type dispatch); NULL slots carry over.
  Column Take(const std::vector<uint32_t>& indices) const;

  /// Index that TakeOrNull turns into a NULL slot.
  static constexpr uint32_t kNullRow = UINT32_MAX;

  /// Null-extending Take: every index equal to kNullRow yields a NULL slot
  /// (the right side of an unmatched LEFT JOIN row), exactly as AppendNull
  /// would have stored it.
  Column TakeOrNull(const std::vector<uint32_t>& indices) const;

  /// Contiguous sub-range [offset, offset+length) as a new column, via
  /// typed bulk copies.
  Column Slice(size_t offset, size_t length) const;

  /// 64-bit hash of slot i (NULL hashes to a fixed sentinel).
  uint64_t HashAt(size_t i, uint64_t seed = 0) const;

  /// True iff slots i (here) and j (other) hold equal non-null values or are
  /// both NULL. Columns must share a type.
  bool SlotEquals(size_t i, const Column& other, size_t j) const;

  /// Returns the order-preserving dictionary for a STRING column, building
  /// and caching it on first use (nullptr for non-string columns). The cache
  /// is keyed by column size, so appending rows simply invalidates it; safe
  /// to call concurrently (duplicate builds produce identical content).
  /// Callers charge ApproxBytes() to their MemoryTracker for the duration of
  /// use — the page itself is a shared, process-lifetime cache.
  std::shared_ptr<const StringDictionary> EnsureDictionary() const;

  /// The cached dictionary if one is built and current, else nullptr.
  std::shared_ptr<const StringDictionary> dictionary_if_built() const;

  void Reserve(size_t n);

  /// Approximate heap footprint in bytes (buffer capacities plus string
  /// payloads) — the unit the per-query MemoryTracker is charged in.
  uint64_t ApproxBytes() const;

 private:
  template <bool kNullable>
  Column TakeImpl(const std::vector<uint32_t>& indices) const;

  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> bools_;
  std::vector<uint8_t> valid_;
  size_t null_count_ = 0;
  /// Lazily built dictionary cache (STRING columns). A stale entry (size
  /// mismatch after appends) is ignored and rebuilt on demand.
  mutable std::atomic<std::shared_ptr<const StringDictionary>> dict_{};
};

}  // namespace aqp

#endif  // AQP_STORAGE_COLUMN_H_
