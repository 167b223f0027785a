/// Two-process architecture, in one test binary: a data-owner MopeSystem
/// loads ciphertext into a server that is then exposed over real loopback
/// TCP, and an independent, same-seed MopeSystem attaches to it remotely.
/// Because key generation and proxy seeding draw from the system rng in a
/// fixed order, the second system re-derives the exact MOPE key and fake
/// sequence — so its answers must be *identical*, row for row, to the
/// embedded system's, without any key ever crossing the wire.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/durability.h"
#include "net/remote_connection.h"
#include "net/server.h"
#include "net/socket.h"
#include "proxy/system.h"
#include "storage/env.h"

namespace mope {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;

constexpr uint64_t kSeed = 0xA11CE;
constexpr uint64_t kDomain = 365;

Schema MakeSchema() {
  return Schema({Column{"day", ValueType::kInt},
                 Column{"amount", ValueType::kDouble},
                 Column{"note", ValueType::kString}});
}

std::vector<Row> MakeRows() {
  std::vector<Row> rows;
  for (int64_t day = 0; day < static_cast<int64_t>(kDomain); ++day) {
    rows.push_back({day, day * 1.5, std::string("d") + std::to_string(day)});
  }
  return rows;
}

proxy::EncryptedColumnSpec MakeSpec() {
  proxy::EncryptedColumnSpec spec;
  spec.column = "day";
  spec.domain = kDomain;
  spec.k = 7;
  spec.mode = proxy::QueryMode::kAdaptiveUniform;
  spec.batch_size = 8;
  return spec;
}

TEST(RemoteEndToEndTest, RemoteProxyMatchesEmbeddedByteForByte) {
  // Data owner: encrypt and load, then serve the ciphertext over TCP.
  proxy::MopeSystem owner(kSeed);
  ASSERT_TRUE(owner.LoadTable("sales", MakeSchema(), MakeRows(), MakeSpec())
                  .ok());
  auto daemon = net::TcpServer::Start(owner.server(), net::TcpServerOptions{});
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  // Remote proxy: same seed, fresh process-equivalent, attaches over TCP.
  proxy::MopeSystem remote(kSeed);
  net::RemoteOptions options;
  options.port = (*daemon)->port();
  auto conn = std::make_unique<net::RemoteConnection>(options);
  ASSERT_TRUE(remote
                  .AttachRemoteTable("sales", MakeSpec(), std::move(conn))
                  .ok());

  const std::vector<query::RangeQuery> queries = {
      {0, 6}, {100, 120}, {358, 364}, {50, 50}, {200, 250}};
  for (const query::RangeQuery& q : queries) {
    auto from_embedded = owner.Query("sales", "day", q);
    auto from_remote = remote.Query("sales", "day", q);
    ASSERT_TRUE(from_embedded.ok()) << from_embedded.status().ToString();
    ASSERT_TRUE(from_remote.ok()) << from_remote.status().ToString();
    // Same rows, same order, same bytes in every cell.
    ASSERT_EQ(from_remote->rows.size(), from_embedded->rows.size());
    for (size_t i = 0; i < from_remote->rows.size(); ++i) {
      EXPECT_EQ(from_remote->rows[i], from_embedded->rows[i])
          << "row " << i << " of [" << q.first << "," << q.last << "]";
    }
    // The cover traffic is identical too: same fakes, same batching.
    EXPECT_EQ(from_remote->real_queries_sent, from_embedded->real_queries_sent);
    EXPECT_EQ(from_remote->fake_queries_sent, from_embedded->fake_queries_sent);
    EXPECT_EQ(from_remote->server_requests, from_embedded->server_requests);
  }

  // Identical work must surface as identical client-side accounting: the
  // proxy.* counter sets of the embedded and the remote system match entry
  // for entry (names and values), because both registries saw the same
  // queries, fakes and batches.
  const auto proxy_only =
      [](const std::vector<std::pair<std::string, uint64_t>>& all) {
        std::vector<std::pair<std::string, uint64_t>> out;
        for (const auto& kv : all) {
          if (kv.first.rfind("proxy.", 0) == 0) out.push_back(kv);
        }
        return out;
      };
  const auto embedded_counters = proxy_only(owner.metrics()->Snapshot());
  const auto remote_counters = proxy_only(remote.metrics()->Snapshot());
  EXPECT_FALSE(embedded_counters.empty());
  EXPECT_EQ(embedded_counters, remote_counters);

  // The live stats endpoint: the remote proxy pulls the server's registry
  // over the wire and sees the frames it itself caused.
  auto remote_proxy = remote.GetProxy("sales", "day");
  ASSERT_TRUE(remote_proxy.ok());
  auto server_stats = (*remote_proxy)->FetchServerStats();
  ASSERT_TRUE(server_stats.ok()) << server_stats.status().ToString();
  uint64_t frames_served = 0;
  uint64_t batches_received = 0;
  for (const auto& [name, value] : *server_stats) {
    if (name == "net.server.frames_served") frames_served = value;
    if (name == "engine.batches_received") batches_received = value;
  }
  EXPECT_GT(frames_served, 0u);
  EXPECT_GT(batches_received, 0u);

  EXPECT_GT(owner.server()->stats().bytes_sent, 0u);
  (*daemon)->Stop();
}

TEST(RemoteEndToEndTest, DataDirHandoffToKeylessDaemon) {
  // The mope_serverd --data-dir flow: the data owner exports the encrypted
  // catalog into a data dir, a bare server (no MopeSystem, no seed) opens
  // that dir and serves it, and a same-seed proxy queries it correctly.
  storage::InMemEnv env;
  engine::DurableCatalog::Options storage_options;
  storage_options.env = &env;
  {
    proxy::MopeSystem owner(kSeed);
    ASSERT_TRUE(owner.LoadTable("sales", MakeSchema(), MakeRows(), MakeSpec())
                    .ok());
    const Status exported = engine::ExportToDataDir(
        *owner.server()->catalog(), "/data", storage_options);
    ASSERT_TRUE(exported.ok()) << exported;
  }  // the owner — and the only copy of the key — is gone

  engine::DbServer keyless;
  const Status opened = keyless.OpenStorage("/data", storage_options);
  ASSERT_TRUE(opened.ok()) << opened;
  auto daemon = net::TcpServer::Start(&keyless, net::TcpServerOptions{});
  ASSERT_TRUE(daemon.ok());

  proxy::MopeSystem remote(kSeed);
  net::RemoteOptions options;
  options.port = (*daemon)->port();
  ASSERT_TRUE(remote
                  .AttachRemoteTable(
                      "sales", MakeSpec(),
                      std::make_unique<net::RemoteConnection>(options))
                  .ok());

  auto response = remote.Query("sales", "day", {30, 36});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->rows.size(), 7u);
  for (const Row& row : response->rows) {
    const int64_t day = std::get<int64_t>(row[0]);
    EXPECT_GE(day, 30);
    EXPECT_LE(day, 36);
    EXPECT_DOUBLE_EQ(std::get<double>(row[1]), day * 1.5);
    EXPECT_EQ(std::get<std::string>(row[2]), "d" + std::to_string(day));
  }
  (*daemon)->Stop();
}

TEST(RemoteEndToEndTest, ConnectionStringPathWorks) {
  proxy::MopeSystem owner(kSeed);
  ASSERT_TRUE(owner.LoadTable("sales", MakeSchema(), MakeRows(), MakeSpec())
                  .ok());
  auto daemon = net::TcpServer::Start(owner.server(), net::TcpServerOptions{});
  ASSERT_TRUE(daemon.ok());

  auto address = net::ParseHostPort("127.0.0.1:" +
                                    std::to_string((*daemon)->port()));
  ASSERT_TRUE(address.ok()) << address.status().ToString();
  net::RemoteOptions options;
  options.host = address->host;
  options.port = address->port;

  proxy::MopeSystem remote(kSeed);
  ASSERT_TRUE(remote
                  .AttachRemoteTable(
                      "sales", MakeSpec(),
                      std::make_unique<net::RemoteConnection>(options))
                  .ok());
  auto response = remote.Query("sales", "day", {10, 16});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->rows.size(), 7u);
  (*daemon)->Stop();
}

TEST(RemoteEndToEndTest, MismatchedSeedDecryptsNothingUseful) {
  // The flip side of seed-derived keys: a proxy with the wrong seed holds
  // the wrong key, and its filtered answers are (almost surely) wrong —
  // demonstrating the ciphertext really is opaque without the seed.
  proxy::MopeSystem owner(kSeed);
  ASSERT_TRUE(owner.LoadTable("sales", MakeSchema(), MakeRows(), MakeSpec())
                  .ok());
  auto daemon = net::TcpServer::Start(owner.server(), net::TcpServerOptions{});
  ASSERT_TRUE(daemon.ok());

  proxy::MopeSystem imposter(kSeed + 1);
  net::RemoteOptions options;
  options.port = (*daemon)->port();
  ASSERT_TRUE(imposter
                  .AttachRemoteTable(
                      "sales", MakeSpec(),
                      std::make_unique<net::RemoteConnection>(options))
                  .ok());
  auto response = imposter.Query("sales", "day", {100, 120});
  // Whatever comes back (possibly an error from decrypt-range mismatches),
  // it must not be the true answer.
  if (response.ok()) {
    std::vector<int64_t> days;
    for (const Row& row : response->rows) {
      days.push_back(std::get<int64_t>(row[0]));
    }
    std::vector<int64_t> truth;
    for (int64_t d = 100; d <= 120; ++d) truth.push_back(d);
    EXPECT_NE(days, truth);
  }
  (*daemon)->Stop();
}

}  // namespace
}  // namespace mope
