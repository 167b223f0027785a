/// One traced Execute produces the whole span tree of the paper's data path:
/// parse → per-segment fetch (fake-query sampling → MOPE encrypt → server
/// round trips → decrypt/filter) → local execution — first over the embedded
/// in-memory connection, then over a real TCP daemon where every round trip
/// additionally shows up as a net.roundtrip span and the frames carry the
/// trace id (exercised end-to-end; the frame-level encoding is covered in
/// tests/net/frame_compat_test.cc). A ManualClock with auto-advance makes
/// every recorded timing deterministic and strictly monotone.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/remote_connection.h"
#include "net/server.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "proxy/sql_session.h"
#include "proxy/system.h"

namespace mope {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;

constexpr uint64_t kSeed = 0x7ACE;
constexpr uint64_t kDomain = 365;

Schema MakeSchema() {
  return Schema({Column{"day", ValueType::kInt},
                 Column{"amount", ValueType::kDouble}});
}

std::vector<Row> MakeRows() {
  std::vector<Row> rows;
  for (int64_t day = 0; day < static_cast<int64_t>(kDomain); ++day) {
    rows.push_back({day, day * 1.5});
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
    "SELECT COUNT(*) FROM sales WHERE day BETWEEN 10 AND 40";

TEST(TracePropagationTest, EmbeddedExecuteBuildsTheFullSpanTree) {
  proxy::MopeSystem system(kSeed);
  ASSERT_TRUE(
      system.LoadTable("sales", MakeSchema(), MakeRows(), MakeSpec()).ok());
  proxy::EncryptedSqlSession session(&system);
  obs::ManualClock clock(0, 100);
  session.EnableTracing(&clock);

  auto result = session.Execute(kSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::get<int64_t>(result->rows[0][0]), 31);

  const obs::Trace* trace = session.last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->trace_id(), 0u);

  // The stages of one query, in span form.
  EXPECT_EQ(trace->CountSpans("session.parse"), 1u);
  EXPECT_EQ(trace->CountSpans("session.fetch_segment"), 1u);  // one range
  EXPECT_GE(trace->CountSpans("proxy.sample"), 1u);
  EXPECT_GE(trace->CountSpans("proxy.encrypt"), 1u);
  EXPECT_GE(trace->CountSpans("proxy.decrypt_filter"), 1u);
  EXPECT_EQ(trace->CountSpans("session.local_exec"), 1u);
  EXPECT_TRUE(trace->TimingsMonotone());

  // The proxy stages nest under the segment fetch.
  const std::vector<obs::Span> spans = trace->spans();
  uint32_t fetch_id = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "session.fetch_segment") {
      fetch_id = static_cast<uint32_t>(i + 1);
    }
    if (spans[i].name == "proxy.sample" || spans[i].name == "proxy.encrypt") {
      EXPECT_EQ(spans[i].parent, fetch_id) << spans[i].name;
    }
  }

  // Fine-grained events arrive in the trace's cost record, not as spans.
  EXPECT_GT(trace->cost().ope_encrypt_calls, 0u);
  EXPECT_GT(trace->cost().ope_decrypt_calls, 0u);

  // Each Execute gets its own trace.
  const uint64_t first_id = trace->trace_id();
  ASSERT_TRUE(session.Execute(kSql).ok());
  ASSERT_NE(session.last_trace(), nullptr);
  EXPECT_GT(session.last_trace()->trace_id(), first_id);

  // And switching tracing off stops recording entirely.
  session.DisableTracing();
  ASSERT_TRUE(session.Execute(kSql).ok());
  EXPECT_EQ(session.last_trace(), nullptr);
}

TEST(TracePropagationTest, TracedQueryOverRealTcpRecordsRoundTrips) {
  proxy::MopeSystem owner(kSeed);
  ASSERT_TRUE(
      owner.LoadTable("sales", MakeSchema(), MakeRows(), MakeSpec()).ok());
  auto daemon = net::TcpServer::Start(owner.server(), net::TcpServerOptions{});
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  proxy::MopeSystem remote(kSeed);
  net::RemoteOptions options;
  options.port = (*daemon)->port();
  ASSERT_TRUE(remote
                  .AttachRemoteTable(
                      "sales", MakeSpec(),
                      std::make_unique<net::RemoteConnection>(options))
                  .ok());

  proxy::EncryptedSqlSession session(&remote);
  obs::ManualClock clock(0, 100);
  session.EnableTracing(&clock);
  auto result = session.Execute(kSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::get<int64_t>(result->rows[0][0]), 31);

  const obs::Trace* trace = session.last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->TimingsMonotone());
  // Every wire exchange of this statement appears as one span: the session's
  // schema fetch plus each batched range request (server_requests counts only
  // the latter). No faults injected, so retries cannot inflate the count.
  const auto& stats = session.last_stats();
  ASSERT_GT(stats.server_requests, 0u);
  EXPECT_EQ(trace->CountSpans("net.roundtrip"), stats.server_requests + 1);
  // And the client-side stages are all still there, same as embedded.
  EXPECT_EQ(trace->CountSpans("session.parse"), 1u);
  EXPECT_GE(trace->CountSpans("proxy.encrypt"), 1u);
  EXPECT_GE(trace->CountSpans("proxy.decrypt_filter"), 1u);
  EXPECT_GT(trace->cost().ope_encrypt_calls, 0u);

  (*daemon)->Stop();
}

}  // namespace
}  // namespace mope
