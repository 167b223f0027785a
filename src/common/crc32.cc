#include "common/crc32.h"

#include <array>
#include <cstddef>

namespace mope {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables. tables[0] is the byte-at-a-time table; tables[k][b]
/// is the CRC contribution of byte b followed by k zero bytes, so one
/// lookup per byte in each of the eight tables advances the CRC over eight
/// input bytes at once.
constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kTables = MakeCrcTables();

/// Four bytes as a little-endian word, assembled from byte loads so the
/// input needs no alignment and the host no particular byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint32_t Update(uint32_t crc, std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  return Update(0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Continue(uint32_t crc, std::string_view bytes) {
  return Update(crc ^ 0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu;
}

}  // namespace mope
