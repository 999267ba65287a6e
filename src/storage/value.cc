#include "storage/value.h"

#include "common/check.h"
#include "common/str_util.h"

namespace aqp {

std::string_view DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
    case DataType::kBool:
      return "BOOL";
  }
  return "UNKNOWN";
}

bool IsNumeric(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble;
}

double Value::AsDouble() const {
  if (is_int64()) return static_cast<double>(int64());
  AQP_CHECK(is_double()) << "AsDouble on non-numeric value " << ToString();
  return dbl();
}

DataType Value::type() const {
  AQP_CHECK(!is_null()) << "type() on NULL value";
  if (is_int64()) return DataType::kInt64;
  if (is_double()) return DataType::kDouble;
  if (is_string()) return DataType::kString;
  return DataType::kBool;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int64()) return std::to_string(int64());
  if (is_double()) return FormatDouble(dbl());
  if (is_bool()) return boolean() ? "true" : "false";
  return str();
}

std::optional<int> TryCompareValues(const Value& x, const Value& y) {
  if (x.is_null() || y.is_null()) return std::nullopt;
  auto sign = [](long double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); };
  if (x.is_int64() && y.is_int64()) {
    return x.int64() < y.int64() ? -1 : (x.int64() > y.int64() ? 1 : 0);
  }
  if ((x.is_int64() || x.is_double()) && (y.is_int64() || y.is_double())) {
    const long double xv =
        x.is_int64() ? static_cast<long double>(x.int64()) : x.dbl();
    const long double yv =
        y.is_int64() ? static_cast<long double>(y.int64()) : y.dbl();
    return sign(xv - yv);
  }
  if (x.is_string() && y.is_string()) {
    const int c = x.str().compare(y.str());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (x.is_bool() && y.is_bool()) {
    return static_cast<int>(x.boolean()) - static_cast<int>(y.boolean());
  }
  return std::nullopt;
}

}  // namespace aqp
