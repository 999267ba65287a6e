#ifndef AQP_COMMON_BYTES_H_
#define AQP_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace aqp {

/// Little-endian binary writer backing sketch serialization.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutBytes(const void* data, size_t len) { PutRaw(data, len); }

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  void PutRaw(const void* data, size_t len) {
    const char* p = static_cast<const char*>(data);
    buffer_.append(p, len);
  }
  std::string buffer_;
};

/// Bounds-checked reader over a serialized buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    uint8_t v = 0;
    AQP_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint32_t> GetU32() {
    uint32_t v = 0;
    AQP_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> GetU64() {
    uint64_t v = 0;
    AQP_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<int64_t> GetI64() {
    int64_t v = 0;
    AQP_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<double> GetDouble() {
    double v = 0;
    AQP_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  Status GetBytes(void* out, size_t len) { return GetRaw(out, len); }

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

  /// The unread bytes, for decoders that walk them with a raw pointer and
  /// then Skip() what they consumed.
  std::string_view rest() const { return data_.substr(pos_); }
  Status Skip(size_t len) {
    if (len > remaining()) {
      return Status::OutOfRange("serialized buffer truncated");
    }
    pos_ += len;
    return Status::OK();
  }

 private:
  Status GetRaw(void* out, size_t len) {
    if (pos_ + len > data_.size()) {
      return Status::OutOfRange("serialized buffer truncated");
    }
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace aqp

#endif  // AQP_COMMON_BYTES_H_
