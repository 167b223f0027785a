#include "common/crc32.h"

#include <array>
#include <cstddef>

#include "common/crc32_internal.h"

#if MOPE_CRC32_HAS_PCLMUL
#include <immintrin.h>
#endif

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

/// Advances the raw (pre-inverted) CRC state over `bytes`, eight at a time.
uint32_t UpdatePortable(uint32_t crc, std::string_view bytes) {
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

#if MOPE_CRC32_HAS_PCLMUL

/// The folding kernel starts from one 64-byte block; shorter buffers go
/// straight to slicing-by-8, which also beats the kernel's set-up there.
constexpr size_t kFoldMinBytes = 64;

#define MOPE_PCLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

MOPE_PCLMUL_TARGET inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds the 128-bit remainder `acc` forward over the distance encoded in
/// `k` (x^(d+64) mod P in the low lane, x^d mod P in the high lane) and adds
/// the next 128 input bits.
MOPE_PCLMUL_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Advances the raw CRC state over `n` bytes, n >= 64 and a multiple of 16:
/// four independent 128-bit lanes fold 64 bytes per step, merge into one,
/// fold the remaining 16-byte blocks, reduce 128 -> 64 bits, and finish
/// with a Barrett reduction to 32. Constants for the reflected polynomial
/// 0xEDB88320, from Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), as zlib's
/// crc32_simd uses them.
MOPE_PCLMUL_TARGET uint32_t FoldPclmul(uint32_t crc, const unsigned char* p,
                                       size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load128(p));
    x1 = Fold(x1, k1k2, Load128(p + 16));
    x2 = Fold(x2, k1k2, Load128(p + 32));
    x3 = Fold(x3, k1k2, Load128(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = Fold(x0, k3k4, Load128(p));
  }

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00);
  x0 = _mm_xor_si128(x0, _mm_srli_si128(x1, 4));

  // Barrett reduction to 32 bits.
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, x1), 1));
}

#undef MOPE_PCLMUL_TARGET

/// The 16-byte multiples through the folding kernel, the tail through
/// slicing-by-8. Precondition: bytes.size() >= kFoldMinBytes.
uint32_t UpdatePclmul(uint32_t crc, std::string_view bytes) {
  const size_t bulk = bytes.size() & ~size_t{15};
  crc = FoldPclmul(crc, reinterpret_cast<const unsigned char*>(bytes.data()),
                   bulk);
  return UpdatePortable(crc, bytes.substr(bulk));
}

#endif  // MOPE_CRC32_HAS_PCLMUL

uint32_t Update(uint32_t crc, std::string_view bytes) {
#if MOPE_CRC32_HAS_PCLMUL
  if (bytes.size() >= kFoldMinBytes && crc32_internal::CpuHasPclmul()) {
    return UpdatePclmul(crc, bytes);
  }
#endif
  return UpdatePortable(crc, bytes);
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  return Update(0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Continue(uint32_t crc, std::string_view bytes) {
  return Update(crc ^ 0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu;
}

namespace crc32_internal {

uint32_t ContinuePortable(uint32_t crc, std::string_view bytes) {
  return UpdatePortable(crc ^ 0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu;
}

#if MOPE_CRC32_HAS_PCLMUL

bool CpuHasPclmul() {
  static const bool kHas = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return kHas;
}

uint32_t ContinuePclmul(uint32_t crc, std::string_view bytes) {
  if (bytes.size() < kFoldMinBytes) return ContinuePortable(crc, bytes);
  return UpdatePclmul(crc ^ 0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu;
}

#endif  // MOPE_CRC32_HAS_PCLMUL

}  // namespace crc32_internal

}  // namespace mope
