/// Golden digest of the server-visible traffic of a seeded run: every
/// ciphertext the server stores and every ciphertext range a proxy sends it,
/// before and after a key rotation. The OPE function is a deterministic
/// function of the key, so a change to how it is evaluated must leave these
/// digests unchanged; a change that moves them changes what the untrusted
/// server sees, and needs an argument that the new traffic leaks no more.
///
/// `owner` loads the table, queries, rotates the key and queries again: the
/// real data-owner flow. A proxy over an embedded server cannot be
/// intercepted, so the ranges are recorded from `twin`, a same-seed system
/// attached to the owner's server through a recording connection. It draws
/// the same keys as the owner (AttachRemoteTable mirrors LoadTable's draws,
/// and re-attaching after the rotation mirrors RotateKey's), which the test
/// checks by comparing both systems' answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "dist/distribution.h"
#include "proxy/system.h"

namespace mope::proxy {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;

constexpr uint64_t kDomain = 365;
constexpr uint64_t kSeed = 0x601D;

// Digests of the run below as produced by the lazy tree walk on every OPE
// call, which any faster evaluation must reproduce. An intended change of
// server-visible traffic updates them together with its leakage argument.
constexpr uint64_t kStoredBefore = 17850978087533441454ULL;
constexpr uint64_t kRangesBefore = 15294380712051374367ULL;
constexpr uint64_t kStoredAfter = 14797881993340072144ULL;
constexpr uint64_t kRangesAfter = 13009261516883138865ULL;

/// 64-bit FNV-1a over little-endian words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((word >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Hashes every range batch on its way to the server.
class RecordingConnection final : public ServerConnection {
 public:
  RecordingConnection(engine::DbServer* server, Digest* digest)
      : real_(server), digest_(digest) {}

  Result<std::vector<std::pair<engine::RowId, Row>>> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    digest_->Add(ranges.size());
    for (const ModularInterval& range : ranges) {
      digest_->Add(range.start());
      digest_->Add(range.length());
      digest_->Add(range.domain());
    }
    return real_.ExecuteRangeBatch(table, column, ranges);
  }

  Result<Schema> GetSchema(const std::string& table) override {
    return real_.GetSchema(table);
  }

 private:
  DirectConnection real_;
  Digest* digest_;
};

EncryptedColumnSpec Spec() {
  EncryptedColumnSpec spec;
  spec.column = "day";
  spec.domain = kDomain;
  spec.k = 7;
  spec.mode = QueryMode::kUniform;
  spec.batch_size = 1;
  return spec;
}

uint64_t StoredDigest(MopeSystem& system) {
  auto table = system.server()->catalog()->GetTable("days");
  EXPECT_TRUE(table.ok());
  Digest digest;
  for (engine::RowId r = 0; r < (*table)->row_count(); ++r) {
    digest.Add(static_cast<uint64_t>(std::get<int64_t>((*table)->row(r)[0])));
  }
  return digest.value();
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs `n` seeded queries on both systems; each must return exactly the
/// matching rows, and the two systems the same rows.
void RunQueries(MopeSystem& owner, MopeSystem& twin, Rng* rng, int n) {
  for (int i = 0; i < n; ++i) {
    const uint64_t first = rng->UniformUint64(kDomain - 30);
    const query::RangeQuery q{first, first + rng->UniformUint64(30)};
    auto mine = owner.Query("days", "day", q);
    auto theirs = twin.Query("days", "day", q);
    ASSERT_TRUE(mine.ok()) << mine.status();
    ASSERT_TRUE(theirs.ok()) << theirs.status();
    ASSERT_EQ(mine->rows.size(), q.length());
    ASSERT_EQ(Sorted(mine->rows), Sorted(theirs->rows)) << "query " << i;
  }
}

TEST(TrafficGoldenTest, SeededRunKeepsServerVisibleBytes) {
  std::vector<Row> rows;
  std::vector<double> weights;
  for (int64_t day = 0; day < static_cast<int64_t>(kDomain); ++day) {
    rows.push_back(Row{day, 1000 + day});
    weights.push_back(1.0 + static_cast<double>(day % 5));
  }
  auto known_q = dist::Distribution::FromWeights(weights);
  ASSERT_TRUE(known_q.ok());
  const Schema schema({Column{"day", ValueType::kInt},
                       Column{"amount", ValueType::kInt}});

  MopeSystem owner(kSeed);
  MopeSystem twin(kSeed);
  ASSERT_TRUE(owner.LoadTable("days", schema, rows, Spec(), &*known_q).ok());
  Digest before;
  ASSERT_TRUE(twin.AttachRemoteTable("days", Spec(),
                                     std::make_unique<RecordingConnection>(
                                         owner.server(), &before),
                                     &*known_q)
                  .ok());
  Rng queries(kSeed + 1);
  RunQueries(owner, twin, &queries, 50);
  const uint64_t stored_before = StoredDigest(owner);

  auto rotated = owner.RotateKey("days", "day");
  ASSERT_TRUE(rotated.ok()) << rotated.status();
  ASSERT_EQ(rotated.value(), kDomain);
  Digest after;
  ASSERT_TRUE(twin.AttachRemoteTable("days", Spec(),
                                     std::make_unique<RecordingConnection>(
                                         owner.server(), &after),
                                     &*known_q)
                  .ok());
  RunQueries(owner, twin, &queries, 10);
  const uint64_t stored_after = StoredDigest(owner);

  EXPECT_EQ(stored_before, kStoredBefore);
  EXPECT_EQ(before.value(), kRangesBefore);
  EXPECT_EQ(stored_after, kStoredAfter);
  EXPECT_EQ(after.value(), kRangesAfter);
}

}  // namespace
}  // namespace mope::proxy
