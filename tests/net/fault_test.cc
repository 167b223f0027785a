#include "net/inmem.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/remote_connection.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "proxy/system.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Schema;
using engine::ValueType;

engine::DbServer MakeServer() {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt}}));
  EXPECT_TRUE(table.ok());
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE((*table)->Insert({k}).ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("key").ok());
  return server;
}

/// Wiring for one flaky-network scenario: every (re)connect pops the next
/// FaultSpec off the script; once the script runs dry, connections are clean.
struct FlakyNet {
  explicit FlakyNet(engine::DbServer* server, std::vector<FaultSpec> script)
      : dispatcher(server), channel(&dispatcher),
        faults(script.begin(), script.end()) {}

  RemoteOptions Options(uint32_t max_retries) {
    RemoteOptions options;
    // Per-scenario counters: conn.retries()/connects() must not see the
    // connections of other tests that ran earlier in the same process.
    options.registry = &registry;
    options.max_retries = max_retries;
    options.backoff_initial_ms = 0;  // keep tests instant
    options.transport_factory =
        [this]() -> Result<std::unique_ptr<Transport>> {
      FaultSpec spec;
      if (!faults.empty()) {
        spec = faults.front();
        faults.pop_front();
      }
      return std::unique_ptr<Transport>(std::make_unique<FaultInjectingTransport>(
          channel.NewTransport(), spec));
    };
    return options;
  }

  WireDispatcher dispatcher;
  InProcessChannel channel;
  std::deque<FaultSpec> faults;
  obs::MetricsRegistry registry;
};

const std::vector<ModularInterval> kRanges = {ModularInterval(10, 5, 100)};

TEST(FaultTest, CleanChannelWorks) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {});
  RemoteConnection conn(net.Options(0));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 0u);
  EXPECT_EQ(conn.connects(), 1u);
}

TEST(FaultTest, DroppedRequestIsRetried) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kDropWrite, 0}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 1u);
  EXPECT_EQ(conn.connects(), 2u);  // reconnected after the loss
}

TEST(FaultTest, FailedWriteIsRetried) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kFailWrite, 0}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(conn.retries(), 1u);
}

TEST(FaultTest, ReadTimeoutIsRetried) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kTimeoutRead, 0}});
  RemoteConnection conn(net.Options(3));
  auto count = conn.CountRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 5u);
  EXPECT_EQ(conn.retries(), 1u);
}

TEST(FaultTest, TruncatedReplyIsRetried) {
  engine::DbServer server = MakeServer();
  // Cut the reply off inside the frame header.
  FlakyNet net(&server, {{FaultKind::kTruncate, 7}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 1u);
}

TEST(FaultTest, MidReplyDisconnectIsRetried) {
  engine::DbServer server = MakeServer();
  // Hang up after the header: the payload never arrives.
  FlakyNet net(&server, {{FaultKind::kDisconnect, kFrameHeaderBytes}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 1u);
}

TEST(FaultTest, CorruptedReplyFailsFastAsCorruption) {
  engine::DbServer server = MakeServer();
  // Flip a payload byte: CRC must catch it, and the client must NOT retry —
  // a corrupted stream is a bug or an attack, not a transient outage.
  FlakyNet net(&server, {{FaultKind::kCorrupt, kFrameHeaderBytes + 2}});
  RemoteConnection conn(net.Options(5));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsCorruption()) << rows.status().ToString();
  EXPECT_EQ(conn.retries(), 0u);
}

TEST(FaultTest, BackToBackFaultsExhaustRetries) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kTimeoutRead, 0},
                         {FaultKind::kDropWrite, 0},
                         {FaultKind::kTimeoutRead, 0},
                         {FaultKind::kTimeoutRead, 0}});
  RemoteConnection conn(net.Options(2));  // 1 try + 2 retries < 4 faults
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsUnavailable()) << rows.status().ToString();
  EXPECT_EQ(conn.retries(), 2u);
  EXPECT_EQ(conn.connects(), 3u);
}

TEST(FaultTest, RecoversAfterSeveralFailures) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {{FaultKind::kTimeoutRead, 0},
                         {FaultKind::kTruncate, 3},
                         {FaultKind::kDropWrite, 0}});
  RemoteConnection conn(net.Options(3));
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.retries(), 3u);
  EXPECT_EQ(conn.connects(), 4u);
}

TEST(FaultTest, ServerSideErrorIsReturnedVerbatimNotRetried) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {});
  RemoteConnection conn(net.Options(5));
  auto rows = conn.ExecuteRangeBatch("no_such_table", "key", kRanges);
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsNotFound()) << rows.status().ToString();
  EXPECT_EQ(conn.retries(), 0u);  // an answer, not an outage
}

TEST(FaultTest, StatusReplyIsTimedLikeAnyCompletedRoundTrip) {
  // An application error is still a full exchange with the server: its
  // latency belongs in the round-trip histogram next to the successes.
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {});
  obs::MetricsRegistry registry;
  obs::ManualClock clock(/*start_ns=*/0, /*auto_advance_ns=*/1000);
  RemoteOptions options = net.Options(0);
  options.registry = &registry;
  options.clock = &clock;
  RemoteConnection conn(std::move(options));
  const obs::ExpHistogram* roundtrip_ns =
      registry.GetHistogram("net.client.roundtrip_ns");

  ASSERT_TRUE(conn.ExecuteRangeBatch("no_such_table", "key", kRanges)
                  .status()
                  .IsNotFound());
  EXPECT_EQ(roundtrip_ns->Count(), 1u);
  EXPECT_EQ(roundtrip_ns->Sum(), 1000u);
  ASSERT_TRUE(conn.ExecuteRangeBatch("data", "key", kRanges).ok());
  EXPECT_EQ(roundtrip_ns->Count(), 2u);
  EXPECT_EQ(registry.GetCounter("net.client.roundtrips")->Value(), 2u);
}

TEST(FaultTest, ConnectionSurvivesAcrossRequests) {
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {});
  RemoteConnection conn(net.Options(0));
  ASSERT_TRUE(conn.ExecuteRangeBatch("data", "key", kRanges).ok());
  ASSERT_TRUE(conn.GetSchema("data").ok());
  ASSERT_TRUE(conn.CountRangeBatch("data", "key", kRanges).ok());
  EXPECT_EQ(conn.connects(), 1u);  // one stream, three requests
}

// --- Pipelined multi-batch exchanges --------------------------------------

/// Five one-range batches with replies of different sizes, sent as one
/// pipelined exchange.
const std::vector<std::vector<ModularInterval>> kBatches = {
    {ModularInterval(0, 3, 100)},  {ModularInterval(20, 9, 100)},
    {ModularInterval(50, 1, 100)}, {ModularInterval(95, 10, 100)},
    {ModularInterval(40, 6, 100)}};

struct BatchesRun {
  Status status;
  std::vector<proxy::BatchRows> rows;  ///< One entry per visited batch.
};

BatchesRun RunBatches(RemoteConnection* conn, const std::string& table) {
  BatchesRun run;
  run.status = conn->ExecuteRangeBatches(table, "key", kBatches,
                                         [&run](proxy::BatchRows& rows) {
                                           run.rows.push_back(std::move(rows));
                                           return Status::OK();
                                         })
                   .status;
  return run;
}

/// Frame sizes of kBatches' requests and replies, one batch at a time.
struct FrameSizes {
  std::vector<uint64_t> requests;
  std::vector<uint64_t> replies;
};

FrameSizes MeasureFrames(engine::DbServer* server) {
  FlakyNet net(server, {});
  RemoteConnection conn(net.Options(0));
  const obs::Counter* sent = net.registry.GetCounter("net.client.bytes_sent");
  const obs::Counter* received =
      net.registry.GetCounter("net.client.bytes_received");
  FrameSizes sizes;
  for (const std::vector<ModularInterval>& ranges : kBatches) {
    const uint64_t sent_before = sent->Value();
    const uint64_t received_before = received->Value();
    EXPECT_TRUE(conn.ExecuteRangeBatch("data", "key", ranges).ok());
    sizes.requests.push_back(sent->Value() - sent_before);
    sizes.replies.push_back(received->Value() - received_before);
  }
  return sizes;
}

/// Stream offset of frame `index` among frames of `sizes`.
uint64_t OffsetOf(const std::vector<uint64_t>& sizes, size_t index) {
  uint64_t offset = 0;
  for (size_t i = 0; i < index; ++i) offset += sizes[i];
  return offset;
}

/// Injects `fault(at)` at the first, a middle and the last reply of the
/// exchange. Each run must return the fault-free rows after one retry that
/// resends request `at` and every later one, and nothing earlier.
void ExpectPipelineRecovers(FaultSpec (*fault)(const FrameSizes&, size_t)) {
  engine::DbServer server = MakeServer();
  const FrameSizes sizes = MeasureFrames(&server);
  FlakyNet clean_net(&server, {});
  RemoteConnection clean_conn(clean_net.Options(0));
  const BatchesRun clean = RunBatches(&clean_conn, "data");
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  ASSERT_EQ(clean.rows.size(), kBatches.size());
  EXPECT_EQ(clean_conn.connects(), 1u);

  const uint64_t all_requests = OffsetOf(sizes.requests, kBatches.size());
  for (const size_t at :
       {size_t{0}, kBatches.size() / 2, kBatches.size() - 1}) {
    SCOPED_TRACE("fault at reply " + std::to_string(at));
    FlakyNet net(&server, {fault(sizes, at)});
    RemoteConnection conn(net.Options(3));
    const BatchesRun run = RunBatches(&conn, "data");
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.rows, clean.rows);
    EXPECT_EQ(conn.retries(), 1u);
    EXPECT_EQ(conn.connects(), 2u);
    EXPECT_EQ(net.registry.GetCounter("net.client.bytes_sent")->Value(),
              2 * all_requests - OffsetOf(sizes.requests, at));
    EXPECT_EQ(net.registry.GetCounter("net.client.roundtrips")->Value(),
              kBatches.size());
  }
}

TEST(FaultTest, PipelinedDropResendsFromTheLostRequest) {
  ExpectPipelineRecovers([](const FrameSizes& sizes, size_t at) {
    return FaultSpec{FaultKind::kDropWrite, OffsetOf(sizes.requests, at)};
  });
}

TEST(FaultTest, PipelinedTruncationResendsFromTheCutReply) {
  ExpectPipelineRecovers([](const FrameSizes& sizes, size_t at) {
    return FaultSpec{FaultKind::kTruncate, OffsetOf(sizes.replies, at) + 7};
  });
}

TEST(FaultTest, PipelinedReadTimeoutResendsFromTheLateReply) {
  ExpectPipelineRecovers([](const FrameSizes& sizes, size_t at) {
    return FaultSpec{FaultKind::kTimeoutRead, OffsetOf(sizes.replies, at)};
  });
}

TEST(FaultTest, StatusReplyMidPipelineLeavesNoStaleReplies) {
  // The first reply is an error while four more are in flight: the
  // exchange stops, and the next one must not read those four.
  engine::DbServer server = MakeServer();
  FlakyNet net(&server, {});
  RemoteConnection conn(net.Options(0));
  const BatchesRun failed = RunBatches(&conn, "no_such_table");
  EXPECT_TRUE(failed.status.IsNotFound()) << failed.status.ToString();
  EXPECT_TRUE(failed.rows.empty());
  auto rows = conn.ExecuteRangeBatch("data", "key", kRanges);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(conn.connects(), 2u);
  EXPECT_EQ(conn.retries(), 0u);
}

// --- The whole proxy stack over a flaky wire ------------------------------

TEST(FaultTest, EncryptedQueriesSucceedOverFlakyWire) {
  // Full MOPE pipeline — key generation, encryption, fakes, batching,
  // filtering — with every server round trip running through the wire
  // protocol over a network that times out and drops the first requests.
  proxy::MopeSystem system(/*seed=*/123);
  auto net = std::make_shared<FlakyNet>(
      system.server(), std::vector<FaultSpec>{{FaultKind::kTimeoutRead, 0},
                                              {FaultKind::kDropWrite, 0}});
  system.set_connection_factory(
      [net]() -> Result<std::unique_ptr<proxy::ServerConnection>> {
        return std::unique_ptr<proxy::ServerConnection>(
            std::make_unique<RemoteConnection>(net->Options(4)));
      });

  std::vector<engine::Row> rows;
  for (int64_t v = 0; v < 64; ++v) rows.push_back({v});
  proxy::EncryptedColumnSpec spec;
  spec.column = "key";
  spec.domain = 64;
  spec.k = 4;
  spec.mode = proxy::QueryMode::kAdaptiveUniform;
  ASSERT_TRUE(system
                  .LoadTable("data", Schema({Column{"key", ValueType::kInt}}),
                             rows, spec)
                  .ok());

  auto response = system.Query("data", "key", {10, 13});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->rows.size(), 4u);
  std::set<int64_t> got;
  for (const engine::Row& row : response->rows) {
    got.insert(std::get<int64_t>(row[0]));
  }
  EXPECT_EQ(got, (std::set<int64_t>{10, 11, 12, 13}));
}

}  // namespace
}  // namespace mope::net
