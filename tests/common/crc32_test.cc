/// Differential test of the CRC-32 against a bit-at-a-time reference: every
/// length from 0 to 64 (covers each tail length of the word loop), longer
/// buffers up to a little over a page, every start offset modulo the word
/// size, and random split points for the incremental form. Each kernel
/// (slicing-by-8 and, where the CPU has it, PCLMULQDQ folding) is also
/// checked on its own at every length to 4,200 and every start offset, so
/// neither can hide behind the other. The pages, the WAL and the wire frame
/// all check these values, so a divergence here is a format break.

#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/crc32_internal.h"
#include "common/random.h"

namespace mope {
namespace {

/// Bitwise reflected CRC-32 (polynomial 0xEDB88320): the definition, with
/// no table to get wrong.
uint32_t ReferenceContinue(uint32_t crc, std::string_view bytes) {
  crc = ~crc;
  for (const char ch : bytes) {
    crc ^= static_cast<uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

uint32_t Reference(std::string_view bytes) {
  return ReferenceContinue(0, bytes);
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->UniformUint64(256));
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Reference("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, MatchesReferenceOnEveryShortLength) {
  Rng rng(0xC4C);
  for (size_t n = 0; n <= 64; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::string bytes = RandomBytes(&rng, n);
      ASSERT_EQ(Crc32(bytes), Reference(bytes)) << "n=" << n;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnLongBuffers) {
  Rng rng(0x10C);
  for (size_t n : {65u, 127u, 128u, 129u, 1000u, 4095u, 4096u, 4097u, 4200u}) {
    const std::string bytes = RandomBytes(&rng, n);
    ASSERT_EQ(Crc32(bytes), Reference(bytes)) << "n=" << n;
  }
  for (int rep = 0; rep < 32; ++rep) {
    const size_t n = rng.UniformUint64(4201);
    const std::string bytes = RandomBytes(&rng, n);
    ASSERT_EQ(Crc32(bytes), Reference(bytes)) << "n=" << n;
  }
  // Runs of one byte value stress each table column with the same index.
  for (const char fill : {'\0', '\xFF', '\x5A'}) {
    const std::string bytes(4200, fill);
    ASSERT_EQ(Crc32(bytes), Reference(bytes));
  }
}

TEST(Crc32Test, MatchesReferenceAtEveryStartOffset) {
  Rng rng(0x0FF);
  const std::string buffer = RandomBytes(&rng, 600);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 511u}) {
      const std::string_view view =
          std::string_view(buffer).substr(offset, n);
      ASSERT_EQ(Crc32(view), Reference(view))
          << "offset=" << offset << " n=" << n;
    }
  }
}

TEST(Crc32Test, ContinueMatchesReferenceAtRandomSplits) {
  Rng rng(0x5917);
  for (int rep = 0; rep < 200; ++rep) {
    const size_t n = rng.UniformUint64(300);
    const std::string bytes = RandomBytes(&rng, n);
    const size_t split = rng.UniformUint64(n + 1);
    const std::string_view head = std::string_view(bytes).substr(0, split);
    const std::string_view tail = std::string_view(bytes).substr(split);
    ASSERT_EQ(Crc32Continue(Crc32(head), tail), Reference(bytes))
        << "n=" << n << " split=" << split;
    const uint32_t seed = static_cast<uint32_t>(rng.NextWord());
    ASSERT_EQ(Crc32Continue(seed, bytes), ReferenceContinue(seed, bytes))
        << "n=" << n;
  }
}

using Kernel = uint32_t (*)(uint32_t crc, std::string_view bytes);

/// Every length 0..4200 at each of the 8 start offsets (every tail length
/// of the 16-byte fold and of the 8-byte slice, at every alignment), the
/// incremental form at random split points and random seeds, and seeded
/// 1 MiB buffers. The reference over a growing prefix is advanced one byte
/// at a time, so the sweep costs the kernel's work, not the reference's.
void ExpectKernelMatchesReference(Kernel kernel) {
  Rng rng(0xD1FF);
  constexpr size_t kMaxLen = 4200;
  const std::string buffer = RandomBytes(&rng, kMaxLen + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    const std::string_view from = std::string_view(buffer).substr(offset);
    uint32_t want = 0;
    for (size_t n = 0; n <= kMaxLen; ++n) {
      if (n > 0) want = ReferenceContinue(want, from.substr(n - 1, 1));
      ASSERT_EQ(kernel(0, from.substr(0, n)), want)
          << "offset=" << offset << " n=" << n;
    }
  }
  for (int rep = 0; rep < 300; ++rep) {
    const size_t n = rng.UniformUint64(kMaxLen + 1);
    const std::string_view bytes = std::string_view(buffer).substr(0, n);
    const size_t split = rng.UniformUint64(n + 1);
    ASSERT_EQ(kernel(kernel(0, bytes.substr(0, split)), bytes.substr(split)),
              Reference(bytes))
        << "n=" << n << " split=" << split;
    const uint32_t seed = static_cast<uint32_t>(rng.NextWord());
    ASSERT_EQ(kernel(seed, bytes), ReferenceContinue(seed, bytes))
        << "n=" << n;
  }
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng big_rng(seed);
    const std::string big = RandomBytes(&big_rng, size_t{1} << 20);
    ASSERT_EQ(kernel(0, big), Reference(big)) << "seed=" << seed;
  }
}

TEST(Crc32KernelTest, PortableMatchesReference) {
  ExpectKernelMatchesReference(&crc32_internal::ContinuePortable);
}

TEST(Crc32KernelTest, PclmulMatchesReference) {
#if MOPE_CRC32_HAS_PCLMUL
  if (!crc32_internal::CpuHasPclmul()) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ or SSE4.1";
  }
  ExpectKernelMatchesReference(&crc32_internal::ContinuePclmul);
#else
  GTEST_SKIP() << "this build has no PCLMULQDQ kernel (not x86-64)";
#endif
}

}  // namespace
}  // namespace mope
