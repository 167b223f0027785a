#ifndef MOPE_COMMON_CRC32_INTERNAL_H_
#define MOPE_COMMON_CRC32_INTERNAL_H_

/// \file crc32_internal.h
/// The two CRC-32 kernels behind Crc32/Crc32Continue, exposed so tests and
/// micro-benchmarks can check and time each one on its own. Production code
/// calls common/crc32.h, which picks the kernel once per process.

#include <cstdint>
#include <string_view>

/// 1 when this build carries the PCLMULQDQ kernel (x86-64 GCC/Clang); it
/// still runs only where the CPU reports the instructions.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MOPE_CRC32_HAS_PCLMUL 1
#else
#define MOPE_CRC32_HAS_PCLMUL 0
#endif

namespace mope::crc32_internal {

/// Slicing-by-8: the tail path, the non-x86 path and the reference the
/// folding kernel is tested against. Same contract as Crc32Continue.
uint32_t ContinuePortable(uint32_t crc, std::string_view bytes);

#if MOPE_CRC32_HAS_PCLMUL
/// True when the CPU has PCLMULQDQ and SSE4.1 (checked once).
bool CpuHasPclmul();

/// Carry-less-multiply folding over the buffer's 16-byte multiples, the
/// rest through the portable path. Same contract as Crc32Continue.
/// Precondition: CpuHasPclmul().
uint32_t ContinuePclmul(uint32_t crc, std::string_view bytes);
#endif

}  // namespace mope::crc32_internal

#endif  // MOPE_COMMON_CRC32_INTERNAL_H_
