#include "common/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace aqp {
namespace {

// Bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320): the definition the
// sliced implementation must reproduce for every length and alignment.
uint32_t ReferenceCrc32(const uint8_t* p, size_t len, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> PseudoRandomBytes(size_t n) {
  std::vector<uint8_t> bytes(n);
  uint32_t x = 0x12345678u;
  for (uint8_t& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  return bytes;
}

TEST(Crc32Test, StandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // No bytes leave a running CRC unchanged.
  EXPECT_EQ(Crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32Test, ChainedSeedEqualsOneShot) {
  const std::vector<uint8_t> data = PseudoRandomBytes(1000);
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{15},
                       size_t{16}, size_t{17}, size_t{333}, size_t{1000}}) {
    const uint32_t head = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, MatchesByteLoopAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> data = PseudoRandomBytes(257 + 8);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 257; ++len) {
      const uint8_t* p = data.data() + align;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "align " << align << " len " << len;
      ASSERT_EQ(Crc32(p, len, 0xDEADBEEFu), ReferenceCrc32(p, len, 0xDEADBEEFu))
          << "seeded, align " << align << " len " << len;
    }
  }
}

}  // namespace
}  // namespace aqp
