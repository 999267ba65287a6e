#include "common/crc32.h"

#include <array>

namespace aqp {
namespace {

// Slice-by-16 tables: t[0] is the classic byte table; t[k][b] is the CRC
// of byte b followed by k zero bytes, so one step folds 16 input bytes with
// 16 independent lookups instead of a serial chain of 16.
constexpr size_t kSlice = 16;
using Tables = std::array<std::array<uint32_t, 256>, kSlice>;

Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

// Little-endian load independent of the host's byte order; compilers turn
// it into one 32-bit load on little-endian targets.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const Tables kT = BuildTables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= kSlice; p += kSlice, len -= kSlice) {
    uint32_t next = 0;
    for (size_t w = 0; w < kSlice / 4; ++w) {
      const uint32_t v = LoadLe32(p + 4 * w) ^ (w == 0 ? c : 0);
      const size_t k = kSlice - 1 - 4 * w;
      next ^= kT[k][v & 0xFFu] ^ kT[k - 1][(v >> 8) & 0xFFu] ^
              kT[k - 2][(v >> 16) & 0xFFu] ^ kT[k - 3][v >> 24];
    }
    c = next;
  }
  for (; len > 0; ++p, --len) {
    c = kT[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace aqp
