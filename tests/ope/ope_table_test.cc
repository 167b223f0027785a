/// Differential test of OpeScheme's two evaluation paths: the table that
/// Create materialises for domains up to kMaxTableDomain against the lazy
/// tree walk, on every domain the paper's experiments use and at the edges
/// of the budget. Both paths must agree on every Encrypt, and on Decrypt and
/// DecryptFloorCeil (including Corruption for ciphertexts outside the image).
/// The lazy walk costs tens of microseconds per call, so each domain's checks
/// are spread over a few threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "ope/ope.h"
#include "ope_test_peer.h"

namespace mope::ope {
namespace {

/// Up to this domain every ciphertext is checked; above it, the image, its
/// neighbours and kRandomCiphertexts seeded draws.
constexpr uint64_t kExhaustiveDomain = 2000;
constexpr uint64_t kRandomCiphertexts = 10000;

/// Runs check(i) for every i in [0, n) on a few threads and returns the first
/// mismatch reported, or "" when every check passed.
template <typename Check>
std::string FirstMismatch(uint64_t n, const Check& check) {
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::string> first(workers);
  {
    std::vector<std::jthread> threads;  // joined at the end of this scope
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (uint64_t i = w; i < n && first[w].empty(); i += workers) {
          first[w] = check(i);
        }
      });
    }
  }
  for (const std::string& f : first) {
    if (!f.empty()) return f;
  }
  return "";
}

std::string Describe(const Result<uint64_t>& r) {
  return r.ok() ? std::to_string(r.value()) : r.status().ToString();
}

/// "" when the table's Decrypt and DecryptFloorCeil for c agree with the
/// lazy walk. Both calls are thin wrappers over one lookup (Locate) on either
/// path, so the lazy side is read there: one tree walk per ciphertext.
std::string CompareAt(const OpeScheme& table, const OpeScheme& lazy,
                      uint64_t c) {
  const Result<uint64_t> decrypt = table.Decrypt(c);
  const Result<uint64_t> floor = table.DecryptFloorCeil(c);
  const auto walked = OpeSchemeTestPeer::Locate(lazy, c);
  if (!walked.ok()) return "c=" + std::to_string(c) + ": lazy walk failed";
  const bool same_decrypt =
      walked->exact ? (decrypt.ok() && decrypt.value() == walked->index)
                    : decrypt.status().IsCorruption();
  const bool same_floor = floor.ok() && floor.value() == walked->index;
  if (same_decrypt && same_floor) return "";
  return "c=" + std::to_string(c) + ": table Decrypt " + Describe(decrypt) +
         " DecryptFloorCeil " + Describe(floor) + "; lazy walk lands on " +
         std::to_string(walked->index) +
         (walked->exact ? " (in the image)" : " (not in the image)");
}

class OpeTableTest : public ::testing::TestWithParam<OpeParams> {};

TEST_P(OpeTableTest, TableMatchesLazyWalk) {
  const OpeParams params = GetParam();
  Rng rng(params.domain * 131 + params.range);
  auto created = OpeScheme::Create(params, OpeKey::Generate(&rng));
  ASSERT_TRUE(created.ok()) << created.status();
  ASSERT_EQ(OpeSchemeTestPeer::HasTable(*created),
            params.domain <= kMaxTableDomain);

  auto table = OpeSchemeTestPeer::WithTable(*created);
  ASSERT_TRUE(table.ok()) << table.status();
  const OpeScheme lazy = OpeSchemeTestPeer::WithoutTable(*created);

  std::vector<uint64_t> image(params.domain);
  for (uint64_t m = 0; m < params.domain; ++m) {
    image[m] = table->Encrypt(m).value();
  }
  EXPECT_EQ(FirstMismatch(params.domain,
                          [&](uint64_t m) -> std::string {
                            const Result<uint64_t> c = lazy.Encrypt(m);
                            if (c.ok() && c.value() == image[m]) return "";
                            return "m=" + std::to_string(m) + ": table " +
                                   std::to_string(image[m]) + " lazy " +
                                   Describe(c);
                          }),
            "");

  std::vector<uint64_t> ciphers;
  if (params.domain <= kExhaustiveDomain) {
    for (uint64_t c = 0; c < params.range; ++c) ciphers.push_back(c);
  } else {
    for (const uint64_t c : image) {
      if (c > 0) ciphers.push_back(c - 1);
      ciphers.push_back(c);
      if (c + 1 < params.range) ciphers.push_back(c + 1);
    }
    for (uint64_t i = 0; i < kRandomCiphertexts; ++i) {
      ciphers.push_back(rng.UniformUint64(params.range));
    }
  }
  EXPECT_EQ(FirstMismatch(ciphers.size(),
                          [&](uint64_t i) {
                            return CompareAt(*table, lazy, ciphers[i]);
                          }),
            "");

  // The lazy scheme's own Decrypt and DecryptFloorCeil wrap the walk
  // checked above; spot-check that they agree through the public API too.
  for (size_t i = 0; i < std::min<size_t>(ciphers.size(), 200); ++i) {
    const uint64_t c = ciphers[i];
    const Result<uint64_t> dt = table->Decrypt(c);
    const Result<uint64_t> dl = lazy.Decrypt(c);
    ASSERT_EQ(dt.ok(), dl.ok()) << "c=" << c;
    if (dt.ok()) {
      ASSERT_EQ(dt.value(), dl.value()) << "c=" << c;
    } else {
      ASSERT_TRUE(dl.status().IsCorruption()) << "c=" << c;
    }
    ASSERT_EQ(table->DecryptFloorCeil(c).value(),
              lazy.DecryptFloorCeil(c).value())
        << "c=" << c;
  }

  // The agreed answers are the right ones: the image decrypts to itself.
  for (uint64_t m = 0; m < params.domain; ++m) {
    ASSERT_EQ(table->Decrypt(image[m]).value(), m);
    ASSERT_EQ(table->DecryptFloorCeil(image[m]).value(), m);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BenchDomains, OpeTableTest,
    ::testing::Values(OpeParams{1, SuggestRange(1)},
                      OpeParams{74, SuggestRange(74)},        // Adult
                      OpeParams{100, SuggestRange(100)},
                      OpeParams{2000, SuggestRange(2000)},    // Covertype
                      OpeParams{2880, SuggestRange(2880)},    // TPC-H dates
                      OpeParams{10000, SuggestRange(10000)},  // Uniform/Zipf/SanFran
                      OpeParams{500, 500},                    // M = N
                      OpeParams{kMaxTableDomain,
                                SuggestRange(kMaxTableDomain)},
                      OpeParams{kMaxTableDomain + 1,
                                SuggestRange(kMaxTableDomain + 1)}),
    [](const ::testing::TestParamInfo<OpeParams>& info) {
      return "M" + std::to_string(info.param.domain) + "_N" +
             std::to_string(info.param.range);
    });

}  // namespace
}  // namespace mope::ope
