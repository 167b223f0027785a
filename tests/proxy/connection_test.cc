#include "proxy/connection.h"

#include <gtest/gtest.h>

#include "proxy/proxy.h"

namespace mope::proxy {
namespace {

using engine::Column;
using engine::DbServer;
using engine::Row;
using engine::RowId;
using engine::Schema;
using engine::ValueType;

constexpr uint64_t kDomain = 64;

/// Test double: fails the first `failures` requests with a transient error,
/// then delegates to the real server.
class FlakyConnection final : public ServerConnection {
 public:
  FlakyConnection(DbServer* server, int failures)
      : real_(server), failures_left_(failures) {}

  Result<std::vector<std::pair<RowId, Row>>> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    ++requests_;
    if (failures_left_ > 0) {
      --failures_left_;
      return Status::Internal("simulated network failure");
    }
    return real_.ExecuteRangeBatch(table, column, ranges);
  }

  Result<engine::Schema> GetSchema(const std::string& table) override {
    return real_.GetSchema(table);
  }

  int requests() const { return requests_; }

 private:
  DirectConnection real_;
  int failures_left_;
  int requests_ = 0;
};

struct Fixture {
  explicit Fixture(uint64_t seed = 77) : rng(seed) {
    auto table = server.catalog()->CreateTable(
        "data", Schema({Column{"key", ValueType::kInt}}));
    EXPECT_TRUE(table.ok());
    key = ope::MopeKey::Generate(kDomain, &rng);
    params = ope::OpeParams{kDomain, ope::SuggestRange(kDomain)};
    const ope::MopeScheme scheme = Scheme();
    for (uint64_t v = 0; v < kDomain; ++v) {
      EXPECT_TRUE((*table)->Insert({static_cast<int64_t>(
                                       scheme.Encrypt(v).value())})
                      .ok());
    }
    EXPECT_TRUE((*table)->CreateIndex("key").ok());
  }

  ope::MopeScheme Scheme() const {
    auto scheme = ope::MopeScheme::Create(params, key);
    EXPECT_TRUE(scheme.ok()) << scheme.status();
    return std::move(scheme).value();
  }

  ProxyConfig Config(uint32_t retries) const {
    ProxyConfig config;
    config.table = "data";
    config.column = "key";
    config.domain = kDomain;
    config.k = 4;
    config.mode = QueryMode::kPassthrough;
    config.max_retries = retries;
    return config;
  }

  DbServer server;
  Rng rng;
  ope::MopeKey key;
  ope::OpeParams params;
};

TEST(ConnectionTest, DirectConnectionDelegates) {
  Fixture fx;
  DirectConnection conn(&fx.server);
  auto schema = conn.GetSchema("data");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_columns(), 1u);
  auto rows = conn.ExecuteRangeBatch(
      "data", "key", {ModularInterval(0, fx.params.range, fx.params.range)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), kDomain);
}

TEST(ConnectionTest, ProxyRetriesTransientFailures) {
  Fixture fx;
  auto flaky = std::make_unique<FlakyConnection>(&fx.server, 2);
  FlakyConnection* flaky_raw = flaky.get();
  auto proxy = Proxy::Create(fx.Config(/*retries=*/3), fx.Scheme(),
                             std::move(flaky));
  ASSERT_TRUE(proxy.ok()) << proxy.status();
  auto resp = (*proxy)->ExecuteRange({10, 13});
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->rows.size(), 4u);
  EXPECT_EQ((*proxy)->retries_performed(), 2u);
  EXPECT_EQ(flaky_raw->requests(), 3);  // 2 failures + 1 success
}

TEST(ConnectionTest, ProxyGivesUpAfterMaxRetries) {
  Fixture fx;
  auto proxy = Proxy::Create(fx.Config(/*retries=*/1), fx.Scheme(),
                             std::make_unique<FlakyConnection>(&fx.server, 5));
  ASSERT_TRUE(proxy.ok());
  auto resp = (*proxy)->ExecuteRange({10, 13});
  EXPECT_TRUE(resp.status().IsInternal());
  EXPECT_EQ((*proxy)->retries_performed(), 1u);
}

TEST(ConnectionTest, ZeroRetriesFailsImmediately) {
  Fixture fx;
  auto proxy = Proxy::Create(fx.Config(/*retries=*/0), fx.Scheme(),
                             std::make_unique<FlakyConnection>(&fx.server, 1));
  ASSERT_TRUE(proxy.ok());
  EXPECT_FALSE((*proxy)->ExecuteRange({10, 13}).ok());
}

TEST(ConnectionTest, RotationUnavailableOverCustomConnection) {
  Fixture fx;
  auto proxy = Proxy::Create(fx.Config(0), fx.Scheme(),
                             std::make_unique<FlakyConnection>(&fx.server, 0));
  ASSERT_TRUE(proxy.ok());
  Rng rng(1);
  EXPECT_TRUE((*proxy)->RotateKey(&rng).status().IsNotSupported());
}

TEST(ConnectionTest, RetriedBatchesDoNotDuplicateRows) {
  // A batch that fails after partially... (our failures are all-or-nothing,
  // but a retry after a *successful* send must not double rows; the seen-set
  // dedup guards both cases). Exercise retries with overlapping queries.
  Fixture fx;
  auto proxy = Proxy::Create(fx.Config(/*retries=*/5), fx.Scheme(),
                             std::make_unique<FlakyConnection>(&fx.server, 3));
  ASSERT_TRUE(proxy.ok());
  auto resp = (*proxy)->ExecuteRange({0, 15});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->rows.size(), 16u);
}

}  // namespace
}  // namespace mope::proxy
