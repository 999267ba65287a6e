#include "storage/column.h"

#include <algorithm>
#include <type_traits>

#include "common/check.h"
#include "common/hash.h"

namespace aqp {

std::shared_ptr<const StringDictionary> StringDictionary::Build(
    const std::vector<std::string>& values,
    const std::vector<uint8_t>& valid) {
  auto dict = std::make_shared<StringDictionary>();
  std::vector<std::string> distinct;
  distinct.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (valid[i]) distinct.push_back(values[i]);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  distinct.shrink_to_fit();
  dict->sorted_ = std::move(distinct);
  dict->codes_.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (!valid[i]) {
      dict->codes_[i] = kNullCode;
      continue;
    }
    auto it = std::lower_bound(dict->sorted_.begin(), dict->sorted_.end(),
                               values[i]);
    dict->codes_[i] = static_cast<uint32_t>(it - dict->sorted_.begin());
  }
  return dict;
}

bool StringDictionary::CodeOf(const std::string& s, uint32_t* code) const {
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), s);
  if (it == sorted_.end() || *it != s) return false;
  *code = static_cast<uint32_t>(it - sorted_.begin());
  return true;
}

uint32_t StringDictionary::LowerBound(const std::string& s) const {
  return static_cast<uint32_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), s) - sorted_.begin());
}

uint32_t StringDictionary::UpperBound(const std::string& s) const {
  return static_cast<uint32_t>(
      std::upper_bound(sorted_.begin(), sorted_.end(), s) - sorted_.begin());
}

uint64_t StringDictionary::ApproxBytes() const {
  uint64_t bytes = codes_.capacity() * sizeof(uint32_t);
  bytes += sorted_.capacity() * sizeof(std::string);
  for (const std::string& s : sorted_) {
    if (s.capacity() > sizeof(std::string)) bytes += s.capacity();
  }
  return bytes;
}

Column::Column(const Column& other)
    : type_(other.type_),
      ints_(other.ints_),
      doubles_(other.doubles_),
      strings_(other.strings_),
      bools_(other.bools_),
      valid_(other.valid_),
      null_count_(other.null_count_),
      dict_(other.dict_.load(std::memory_order_acquire)) {}

Column& Column::operator=(const Column& other) {
  if (this == &other) return *this;
  type_ = other.type_;
  ints_ = other.ints_;
  doubles_ = other.doubles_;
  strings_ = other.strings_;
  bools_ = other.bools_;
  valid_ = other.valid_;
  null_count_ = other.null_count_;
  dict_.store(other.dict_.load(std::memory_order_acquire),
              std::memory_order_release);
  return *this;
}

Column::Column(Column&& other) noexcept
    : type_(other.type_),
      ints_(std::move(other.ints_)),
      doubles_(std::move(other.doubles_)),
      strings_(std::move(other.strings_)),
      bools_(std::move(other.bools_)),
      valid_(std::move(other.valid_)),
      null_count_(other.null_count_),
      dict_(other.dict_.load(std::memory_order_acquire)) {}

Column& Column::operator=(Column&& other) noexcept {
  if (this == &other) return *this;
  type_ = other.type_;
  ints_ = std::move(other.ints_);
  doubles_ = std::move(other.doubles_);
  strings_ = std::move(other.strings_);
  bools_ = std::move(other.bools_);
  valid_ = std::move(other.valid_);
  null_count_ = other.null_count_;
  dict_.store(other.dict_.load(std::memory_order_acquire),
              std::memory_order_release);
  return *this;
}

Column Column::FromInt64(std::vector<int64_t> values) {
  return FromValues(std::move(values), {});
}

Column Column::FromDouble(std::vector<double> values) {
  return FromValues(std::move(values), {});
}

Column Column::FromString(std::vector<std::string> values) {
  return FromValues(std::move(values), {});
}

Column Column::FromBool(std::vector<bool> values) {
  Column c(DataType::kBool);
  c.valid_.assign(values.size(), 1);
  c.bools_.reserve(values.size());
  for (bool b : values) c.bools_.push_back(b ? 1 : 0);
  return c;
}

template <typename T>
Column Column::FromValues(std::vector<T> values, std::vector<uint8_t> valid) {
  constexpr bool kString = std::is_same_v<T, std::string>;
  Column c(std::is_same_v<T, int64_t>  ? DataType::kInt64
           : std::is_same_v<T, double> ? DataType::kDouble
           : kString                   ? DataType::kString
                                       : DataType::kBool);
  if constexpr (std::is_same_v<T, uint8_t>) {
    for (uint8_t& b : values) b = b != 0;
  }
  if (valid.empty()) {
    valid.assign(values.size(), 1);
  } else {
    AQP_CHECK(valid.size() == values.size());
    size_t nulls = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      const uint8_t v = valid[i] != 0;
      valid[i] = v;
      nulls += 1 - v;
      if constexpr (kString) {
        if (!v) values[i] = std::string();
      } else {
        values[i] = v ? values[i] : T{};
      }
    }
    c.null_count_ = nulls;
  }
  c.valid_ = std::move(valid);
  if constexpr (std::is_same_v<T, int64_t>) {
    c.ints_ = std::move(values);
  } else if constexpr (std::is_same_v<T, double>) {
    c.doubles_ = std::move(values);
  } else if constexpr (kString) {
    c.strings_ = std::move(values);
  } else {
    c.bools_ = std::move(values);
  }
  return c;
}

template Column Column::FromValues(std::vector<int64_t>, std::vector<uint8_t>);
template Column Column::FromValues(std::vector<double>, std::vector<uint8_t>);
template Column Column::FromValues(std::vector<std::string>,
                                   std::vector<uint8_t>);
template Column Column::FromValues(std::vector<uint8_t>, std::vector<uint8_t>);

double Column::NumericAt(size_t i) const {
  if (type_ == DataType::kInt64) return static_cast<double>(ints_[i]);
  AQP_CHECK(type_ == DataType::kDouble)
      << "NumericAt on " << DataTypeName(type_) << " column";
  return doubles_[i];
}

Value Column::GetValue(size_t i) const {
  AQP_DCHECK(i < size());
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[i]);
    case DataType::kDouble:
      return Value(doubles_[i]);
    case DataType::kString:
      return Value(strings_[i]);
    case DataType::kBool:
      return Value(bools_[i] != 0);
  }
  return Value::Null();
}

void Column::AppendInt64(int64_t v) {
  AQP_DCHECK(type_ == DataType::kInt64);
  ints_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendDouble(double v) {
  AQP_DCHECK(type_ == DataType::kDouble);
  doubles_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendString(std::string v) {
  AQP_DCHECK(type_ == DataType::kString);
  strings_.push_back(std::move(v));
  valid_.push_back(1);
}

void Column::AppendBool(bool v) {
  AQP_DCHECK(type_ == DataType::kBool);
  bools_.push_back(v ? 1 : 0);
  valid_.push_back(1);
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
  }
  valid_.push_back(0);
  ++null_count_;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64()) break;
      AppendInt64(v.int64());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.dbl());
        return Status::OK();
      }
      if (v.is_int64()) {  // Widen INT64 literals into DOUBLE columns.
        AppendDouble(static_cast<double>(v.int64()));
        return Status::OK();
      }
      break;
    case DataType::kString:
      if (!v.is_string()) break;
      AppendString(v.str());
      return Status::OK();
    case DataType::kBool:
      if (!v.is_bool()) break;
      AppendBool(v.boolean());
      return Status::OK();
  }
  return Status::InvalidArgument(
      "value " + v.ToString() + " does not fit column type " +
      std::string(DataTypeName(type_)));
}

void Column::AppendFrom(const Column& other, size_t i) {
  AQP_DCHECK(other.type_ == type_);
  if (other.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(other.ints_[i]);
      break;
    case DataType::kDouble:
      AppendDouble(other.doubles_[i]);
      break;
    case DataType::kString:
      AppendString(other.strings_[i]);
      break;
    case DataType::kBool:
      AppendBool(other.bools_[i] != 0);
      break;
  }
}

void Column::AppendRange(const Column& other, size_t offset, size_t length) {
  AQP_DCHECK(other.type_ == type_);
  AQP_CHECK(offset <= other.size() && length <= other.size() - offset);
  if (this == &other) {
    // vector::insert may not read from the vector it grows.
    const Column copy = other;
    AppendRange(copy, offset, length);
    return;
  }
  auto append = [&](auto& dst, const auto& src) {
    dst.insert(dst.end(), src.begin() + offset, src.begin() + offset + length);
  };
  append(valid_, other.valid_);
  if (other.null_count_ == other.size()) {
    null_count_ += length;
  } else if (other.null_count_ != 0) {
    null_count_ += static_cast<size_t>(std::count(
        other.valid_.begin() + offset, other.valid_.begin() + offset + length,
        uint8_t{0}));
  }
  switch (type_) {
    case DataType::kInt64:
      append(ints_, other.ints_);
      break;
    case DataType::kDouble:
      append(doubles_, other.doubles_);
      break;
    case DataType::kString:
      append(strings_, other.strings_);
      break;
    case DataType::kBool:
      append(bools_, other.bools_);
      break;
  }
}

template <bool kNullable>
Column Column::TakeImpl(const std::vector<uint32_t>& indices) const {
  Column out(type_);
  const size_t n = indices.size();
  const uint32_t* idx = indices.data();
  // Slot i of the output: source row idx[i], or — nullable gathers only —
  // the default value AppendNull stores when idx[i] is kNullRow.
  auto gather = [&](const auto* src, auto* dst) {
    for (size_t i = 0; i < n; ++i) {
      if constexpr (kNullable) {
        if (idx[i] == kNullRow) {
          dst[i] = {};
          continue;
        }
      }
      dst[i] = src[idx[i]];
    }
  };
  out.valid_.resize(n);
  uint8_t* ov = out.valid_.data();
  if (!kNullable && null_count_ == 0) {
    std::fill(ov, ov + n, uint8_t{1});
  } else {
    const uint8_t* v = valid_.data();
    size_t nulls = 0;
    for (size_t i = 0; i < n; ++i) {
      ov[i] = kNullable && idx[i] == kNullRow ? 0 : v[idx[i]];
      nulls += ov[i] == 0 ? 1 : 0;
    }
    out.null_count_ = nulls;
  }
  switch (type_) {
    case DataType::kInt64:
      out.ints_.resize(n);
      gather(ints_.data(), out.ints_.data());
      break;
    case DataType::kDouble:
      out.doubles_.resize(n);
      gather(doubles_.data(), out.doubles_.data());
      break;
    case DataType::kString:
      out.strings_.resize(n);
      gather(strings_.data(), out.strings_.data());
      break;
    case DataType::kBool:
      out.bools_.resize(n);
      gather(bools_.data(), out.bools_.data());
      break;
  }
  return out;
}

Column Column::Take(const std::vector<uint32_t>& indices) const {
  return TakeImpl<false>(indices);
}

Column Column::TakeOrNull(const std::vector<uint32_t>& indices) const {
  return TakeImpl<true>(indices);
}

Column Column::Slice(size_t offset, size_t length) const {
  AQP_CHECK(offset <= size());
  length = std::min(length, size() - offset);
  Column out(type_);
  out.valid_.assign(valid_.begin() + offset, valid_.begin() + offset + length);
  if (null_count_ != 0) {
    size_t nulls = 0;
    for (uint8_t v : out.valid_) nulls += v == 0 ? 1 : 0;
    out.null_count_ = nulls;
  }
  switch (type_) {
    case DataType::kInt64:
      out.ints_.assign(ints_.begin() + offset,
                       ints_.begin() + offset + length);
      break;
    case DataType::kDouble:
      out.doubles_.assign(doubles_.begin() + offset,
                          doubles_.begin() + offset + length);
      break;
    case DataType::kString:
      out.strings_.assign(strings_.begin() + offset,
                          strings_.begin() + offset + length);
      break;
    case DataType::kBool:
      out.bools_.assign(bools_.begin() + offset,
                        bools_.begin() + offset + length);
      break;
  }
  return out;
}

std::shared_ptr<const StringDictionary> Column::EnsureDictionary() const {
  if (type_ != DataType::kString) return nullptr;
  auto cached = dict_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->codes().size() == size()) return cached;
  auto built = StringDictionary::Build(strings_, valid_);
  // Concurrent builders race benignly: every build over the same rows yields
  // identical content, so last-store-wins is fine.
  dict_.store(built, std::memory_order_release);
  return built;
}

std::shared_ptr<const StringDictionary> Column::dictionary_if_built() const {
  auto cached = dict_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->codes().size() == size()) return cached;
  return nullptr;
}

uint64_t Column::HashAt(size_t i, uint64_t seed) const {
  if (IsNull(i)) return Mix64(seed ^ 0xdeadbeefcafef00dULL);
  switch (type_) {
    case DataType::kInt64:
      return HashInt64(ints_[i], seed);
    case DataType::kDouble:
      return HashDouble(doubles_[i], seed);
    case DataType::kString:
      return HashString(strings_[i], seed);
    case DataType::kBool:
      return HashInt64(bools_[i] != 0 ? 1 : 0, seed ^ 0x5bd1e995);
  }
  return 0;
}

bool Column::SlotEquals(size_t i, const Column& other, size_t j) const {
  AQP_DCHECK(type_ == other.type_);
  bool a_null = IsNull(i);
  bool b_null = other.IsNull(j);
  if (a_null || b_null) return a_null && b_null;
  switch (type_) {
    case DataType::kInt64:
      return ints_[i] == other.ints_[j];
    case DataType::kDouble:
      return doubles_[i] == other.doubles_[j];
    case DataType::kString:
      return strings_[i] == other.strings_[j];
    case DataType::kBool:
      return bools_[i] == other.bools_[j];
  }
  return false;
}

void Column::Reserve(size_t n) {
  valid_.reserve(n);
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
    case DataType::kBool:
      bools_.reserve(n);
      break;
  }
}

uint64_t Column::ApproxBytes() const {
  uint64_t bytes = valid_.capacity();
  bytes += ints_.capacity() * sizeof(int64_t);
  bytes += doubles_.capacity() * sizeof(double);
  bytes += bools_.capacity();
  bytes += strings_.capacity() * sizeof(std::string);
  for (const std::string& s : strings_) {
    // Heap payload only; short strings live inside the std::string footprint
    // counted above.
    if (s.capacity() > sizeof(std::string)) bytes += s.capacity();
  }
  return bytes;
}

}  // namespace aqp
