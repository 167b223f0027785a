/// RemoteConnection's pipelined exchange: unanswered request bytes stay
/// within kPipelineWindowBytes, and a query whose requests exceed the window
/// several times over drains it over real TCP and returns the embedded
/// answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "net/dispatcher.h"
#include "net/inmem.h"
#include "net/remote_connection.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "proxy/sql_session.h"
#include "proxy/system.h"
#include "workload/tpch.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Schema;
using engine::ValueType;

/// Tracks the request bytes whose reply has not been read in full: frames
/// are counted when the last byte of the request is written and cleared
/// when the last byte of its reply is read.
class WindowAuditTransport final : public Transport {
 public:
  explicit WindowAuditTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  Result<size_t> Read(char* buf, size_t max) override {
    MOPE_ASSIGN_OR_RETURN(size_t n, inner_->Read(buf, max));
    read_.append(buf, n);
    size_t consumed = 0;
    while (DecodeFrame(read_, &consumed).ok()) {
      EXPECT_FALSE(unanswered_.empty()) << "a reply nobody asked for";
      if (unanswered_.empty()) break;
      unanswered_bytes_ -= unanswered_.front();
      unanswered_.pop_front();
      read_.erase(0, consumed);
    }
    return n;
  }

  Status Write(const char* data, size_t n) override {
    written_.append(data, n);
    size_t consumed = 0;
    while (DecodeFrame(written_, &consumed).ok()) {
      unanswered_.push_back(consumed);
      unanswered_bytes_ += consumed;
      written_.erase(0, consumed);
      total_bytes_ += consumed;
      // A frame larger than the window may only go out alone.
      if (unanswered_.size() > 1) {
        max_unanswered_bytes_ =
            std::max(max_unanswered_bytes_, unanswered_bytes_);
      }
    }
    return inner_->Write(data, n);
  }

  void Close() override { inner_->Close(); }

  uint64_t max_unanswered_bytes() const { return max_unanswered_bytes_; }
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  std::unique_ptr<Transport> inner_;
  std::string written_;
  std::string read_;
  std::deque<uint64_t> unanswered_;
  uint64_t unanswered_bytes_ = 0;
  uint64_t max_unanswered_bytes_ = 0;
  uint64_t total_bytes_ = 0;
};

TEST(PipelineTest, UnansweredRequestBytesStayWithinTheWindow) {
  constexpr uint64_t kKeys = 1000;
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt}}));
  ASSERT_TRUE(table.ok());
  for (int64_t k = 0; k < static_cast<int64_t>(kKeys); ++k) {
    ASSERT_TRUE((*table)->Insert({k}).ok());
  }
  ASSERT_TRUE((*table)->CreateIndex("key").ok());

  // 240 batches of 40 short ranges: each request is ~1 KB, and every reply
  // is larger than its request.
  std::vector<std::vector<ModularInterval>> batches(240);
  for (size_t b = 0; b < batches.size(); ++b) {
    for (uint64_t r = 0; r < 40; ++r) {
      batches[b].emplace_back((b * 7 + r * 25) % kKeys, 1 + (b + r) % 3,
                              kKeys);
    }
  }

  WireDispatcher dispatcher(&server);
  InProcessChannel channel(&dispatcher);
  WindowAuditTransport* audit = nullptr;
  obs::MetricsRegistry registry;
  RemoteOptions options;
  options.registry = &registry;
  options.max_retries = 0;
  options.transport_factory = [&]() -> Result<std::unique_ptr<Transport>> {
    auto transport =
        std::make_unique<WindowAuditTransport>(channel.NewTransport());
    audit = transport.get();
    return std::unique_ptr<Transport>(std::move(transport));
  };
  RemoteConnection conn(std::move(options));

  size_t visited = 0;
  const proxy::BatchesResult result = conn.ExecuteRangeBatches(
      "data", "key", batches, [&](proxy::BatchRows& rows) -> Status {
        auto expected =
            server.ExecuteRangeBatchWithIds("data", "key", batches[visited]);
        EXPECT_TRUE(expected.ok());
        EXPECT_EQ(rows, *expected) << "batch " << visited;
        ++visited;
        return Status::OK();
      });
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.completed, batches.size());
  EXPECT_EQ(visited, batches.size());
  EXPECT_EQ(conn.connects(), 1u);

  ASSERT_NE(audit, nullptr);
  EXPECT_GT(audit->total_bytes(), 3 * kPipelineWindowBytes);
  EXPECT_LE(audit->max_unanswered_bytes(), kPipelineWindowBytes);
  // The window is used, not just respected: it fills before a read.
  EXPECT_GT(audit->max_unanswered_bytes(), kPipelineWindowBytes - 2048);
}

TEST(PipelineTest, DecodingOverEarlierRowsMatchesAFreshDecode) {
  // The pipelined reader decodes each reply over the rows of the one
  // before, some of them moved out by the visitor. Replies here change
  // row count, row width and the type held at each position.
  Rng rng(0xDEC0DE);
  RowsWithIds reused;
  for (int reply = 0; reply < 200; ++reply) {
    RowsWithIds rows(rng.UniformUint64(12));
    for (auto& [rid, row] : rows) {
      rid = rng.NextWord();
      row.resize(rng.UniformUint64(6));
      for (engine::Value& value : row) {
        switch (rng.UniformUint64(3)) {
          case 0:
            value = static_cast<int64_t>(rng.NextWord());
            break;
          case 1:
            value = static_cast<double>(rng.UniformUint64(1000)) / 8.0;
            break;
          default:
            value = std::string(rng.UniformUint64(40), 'a' + reply % 26);
        }
      }
    }
    const std::string payload = EncodeRangeBatchReply(rows);
    ASSERT_TRUE(DecodeRangeBatchReply(payload, &reused).ok());
    ASSERT_EQ(reused, rows) << "reply " << reply;
    ASSERT_EQ(DecodeRangeBatchReply(payload).value(), rows);
    // A visitor keeps some rows, leaving moved-from rows behind.
    for (auto& entry : reused) {
      if (rng.UniformUint64(4) == 0) engine::Row kept = std::move(entry.second);
    }
  }
}

TEST(PipelineTest, ThreeHundredDayQueryDrainsTheWindowOverTcp) {
  // mope_serverd --tpch and mope_shell --connect, in one process: the
  // statement's requests exceed the window several times over and its
  // replies fill the socket buffers, so this deadlocks if the window does
  // not drain.
  constexpr uint64_t kSystemSeed = 0x5811;
  workload::TpchConfig config;
  config.scale_factor = 0.002;
  const workload::TpchData data = workload::GenerateTpch(config);
  proxy::EncryptedColumnSpec spec;
  spec.column = "l_shipdate";
  spec.domain = workload::kTpchDateDomain;
  spec.k = 30;
  spec.mode = proxy::QueryMode::kAdaptiveUniform;
  spec.batch_size = 64;
  const std::string where =
      " FROM lineitem WHERE l_shipdate BETWEEN 100 AND 400";

  proxy::MopeSystem owner(kSystemSeed);
  ASSERT_TRUE(owner
                  .LoadTable("lineitem", data.lineitem_schema, data.lineitem,
                             spec)
                  .ok());
  proxy::EncryptedSqlSession embedded(&owner);
  auto embedded_count = embedded.Execute("SELECT COUNT(*)" + where);
  ASSERT_TRUE(embedded_count.ok()) << embedded_count.status().ToString();
  ASSERT_EQ(embedded_count->rows.size(), 1u);

  auto daemon = TcpServer::Start(owner.server(), TcpServerOptions{});
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  proxy::MopeSystem remote(kSystemSeed);
  RemoteOptions options;
  options.port = (*daemon)->port();
  ASSERT_TRUE(
      remote
          .AttachRemoteTable("lineitem", spec,
                             std::make_unique<RemoteConnection>(options))
          .ok());
  proxy::EncryptedSqlSession session(&remote);

  auto explain = session.Execute("EXPLAIN ANALYZE SELECT COUNT(*)" + where);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const auto& stats = session.last_stats();
  EXPECT_EQ(static_cast<int64_t>(stats.rows_fetched),
            std::get<int64_t>(embedded_count->rows[0][0]));
  ASSERT_NE(session.last_trace(), nullptr);
  const obs::QueryCost& cost = session.last_trace()->cost();
  EXPECT_GT(cost.net_frame_bytes_sent, 3 * kPipelineWindowBytes);
  // One reply per request: none lost, none read twice.
  EXPECT_EQ(cost.srv_batches_received, stats.server_requests);
  EXPECT_EQ(cost.net_frames, stats.server_requests + 1);  // + the schema

  auto remote_count = session.Execute("SELECT COUNT(*)" + where);
  ASSERT_TRUE(remote_count.ok()) << remote_count.status().ToString();
  EXPECT_EQ(remote_count->rows, embedded_count->rows);
  (*daemon)->Stop();
}

}  // namespace
}  // namespace mope::net
