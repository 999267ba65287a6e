#ifndef AQP_STORAGE_VALUE_H_
#define AQP_STORAGE_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"

namespace aqp {

/// Column data types supported by the engine.
enum class DataType {
  kInt64,
  kDouble,
  kString,
  kBool,
};

/// Human-readable type name ("INT64", "DOUBLE", ...).
std::string_view DataTypeName(DataType type);

/// True for INT64 and DOUBLE.
bool IsNumeric(DataType type);

/// A single dynamically-typed cell value; monostate represents SQL NULL.
class Value {
 public:
  /// NULL value.
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(bool v) : v_(v) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }

  int64_t int64() const { return std::get<int64_t>(v_); }
  double dbl() const { return std::get<double>(v_); }
  const std::string& str() const { return std::get<std::string>(v_); }
  bool boolean() const { return std::get<bool>(v_); }

  /// Numeric view: int64 and double cells as double. CHECK-fails otherwise.
  double AsDouble() const;

  /// The DataType of a non-null value. CHECK-fails on NULL.
  DataType type() const;

  /// SQL-ish rendering; NULL prints as "NULL", strings unquoted.
  std::string ToString() const;

  /// Deep equality (NULL == NULL here, unlike SQL three-valued logic; used
  /// for grouping and testing).
  bool operator==(const Value& other) const { return v_ == other.v_; }

 private:
  std::variant<std::monostate, int64_t, double, std::string, bool> v_;
};

/// Ordering of two values: negative, zero or positive. nullopt when the pair
/// does not compare (a NULL, or mismatched types); INT64 and DOUBLE compare
/// with each other through long double, so an int64 beyond 2^53 never
/// collapses onto a neighbouring double and flips an inequality.
std::optional<int> TryCompareValues(const Value& x, const Value& y);

}  // namespace aqp

#endif  // AQP_STORAGE_VALUE_H_
