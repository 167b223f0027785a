#ifndef MOPE_COMMON_CRC32_H_
#define MOPE_COMMON_CRC32_H_

/// \file crc32.h
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
///
/// One implementation, three consumers: the wire protocol's frame check
/// (net/wire.h), the storage engine's per-page checksums and the WAL's
/// per-record checksums (src/storage/). All three defend the same way:
/// bytes that crossed an untrusted medium (network, disk) are verified
/// before anything decodes them.
///
/// The kernel is picked once per process from the CPU: on x86-64 with
/// PCLMULQDQ and SSE4.1, buffers of 64 bytes or more are folded with
/// carry-less multiplies (~10x the table speed); everything else, and every
/// buffer's tail, goes through slicing-by-8 tables, which are also the
/// reference the folding kernel is tested against (crc32_internal.h). Both
/// compute the same function, so no stored or transmitted checksum depends
/// on the host.

#include <cstdint>
#include <string_view>

namespace mope {

/// CRC-32 of `bytes`, starting from the standard initial state.
uint32_t Crc32(std::string_view bytes);

/// Incremental form: continues a CRC computed by Crc32/Crc32Continue over a
/// previous chunk. `Crc32(a + b) == Crc32Continue(Crc32(a), b)`.
uint32_t Crc32Continue(uint32_t crc, std::string_view bytes);

}  // namespace mope

#endif  // MOPE_COMMON_CRC32_H_
