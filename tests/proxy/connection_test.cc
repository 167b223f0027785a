#include "proxy/connection.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

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

/// Test double: fails the listed requests (0-based over every
/// ExecuteRangeBatch call) once each, and records each request's ranges.
class ScriptedConnection final : public ServerConnection {
 public:
  ScriptedConnection(DbServer* server, std::set<int> fail_at,
                     std::vector<std::vector<ModularInterval>>* sent)
      : real_(server), fail_at_(std::move(fail_at)), sent_(sent) {}

  Result<std::vector<std::pair<RowId, Row>>> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    sent_->push_back(ranges);
    if (fail_at_.count(requests_++) > 0) {
      return Status::Unavailable("simulated network failure");
    }
    return real_.ExecuteRangeBatch(table, column, ranges);
  }

  Result<engine::Schema> GetSchema(const std::string& table) override {
    return real_.GetSchema(table);
  }

 private:
  DirectConnection real_;
  std::set<int> fail_at_;
  std::vector<std::vector<ModularInterval>>* sent_;
  int requests_ = 0;
};

TEST(ConnectionTest, ProxyRetryResumesFromTheFailedBatch) {
  // [0, 15] with k = 4 is four batches. The third fails once: the retry
  // resends it and the fourth, never the two that completed.
  Fixture fx;
  std::vector<std::vector<ModularInterval>> clean_sent;
  auto clean = Proxy::Create(
      fx.Config(/*retries=*/0), fx.Scheme(),
      std::make_unique<ScriptedConnection>(&fx.server, std::set<int>{},
                                           &clean_sent));
  ASSERT_TRUE(clean.ok());
  auto expected = (*clean)->ExecuteRange({0, 15});
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(clean_sent.size(), 4u);

  std::vector<std::vector<ModularInterval>> sent;
  auto proxy = Proxy::Create(
      fx.Config(/*retries=*/1), fx.Scheme(),
      std::make_unique<ScriptedConnection>(&fx.server, std::set<int>{2},
                                           &sent));
  ASSERT_TRUE(proxy.ok());
  auto resp = (*proxy)->ExecuteRange({0, 15});
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->rows, expected->rows);
  EXPECT_EQ(resp->server_requests, 4u);
  EXPECT_EQ((*proxy)->retries_performed(), 1u);
  EXPECT_EQ(sent, (std::vector<std::vector<ModularInterval>>{
                      clean_sent[0], clean_sent[1], clean_sent[2],
                      clean_sent[2], clean_sent[3]}));
}

TEST(ConnectionTest, ProxyRetryBudgetIsPerBatch) {
  // One retry allowed, and the second and fourth batches each fail once
  // (requests 1 and 4): every batch has its own budget, so the query
  // completes with two retries.
  Fixture fx;
  std::vector<std::vector<ModularInterval>> sent;
  auto proxy = Proxy::Create(
      fx.Config(/*retries=*/1), fx.Scheme(),
      std::make_unique<ScriptedConnection>(&fx.server, std::set<int>{1, 4},
                                           &sent));
  ASSERT_TRUE(proxy.ok());
  auto resp = (*proxy)->ExecuteRange({0, 15});
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->rows.size(), 16u);
  EXPECT_EQ((*proxy)->retries_performed(), 2u);
  EXPECT_EQ(sent.size(), 6u);
}

}  // namespace
}  // namespace mope::proxy
