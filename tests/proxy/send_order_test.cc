/// The proxy's send-order invariant, checked without timing: nothing that
/// depends on a reply's content runs between two of a query's requests.
/// A server that timestamps requests sees every gap between them, so a
/// decryption after a reply that held the client's rows would make the gap
/// after the real query's request the longest one. Decryptions are what
/// the trace's cost record counts (ope.decrypt_calls), so a recorder
/// snapshots that count at every request a query sends: every snapshot
/// must equal the one taken at the query's start.
///
/// Two recorders, one per path: a ServerConnection around DirectConnection
/// (the embedded path, one ExecuteRangeBatch per request), and a Transport
/// under the loopback wire wiring (RemoteConnection -> InProcessChannel ->
/// WireDispatcher), which sees request frames as they are written. On the
/// wire path a Q14-sized query's frames must also all be written before the
/// first reply byte is read.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "dist/distribution.h"
#include "net/dispatcher.h"
#include "net/inmem.h"
#include "net/remote_connection.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "proxy/system.h"
#include "query/algorithms.h"
#include "workload/calendar.h"

namespace mope::proxy {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;

constexpr uint64_t kDomain = workload::kTpchDateDomain;
constexpr uint64_t kK = 30;
constexpr uint64_t kSeed = 0x5E4D;
constexpr int kQueries = 30;

/// The 60 calendar months of 1993-1997, as TPC-H Q14 asks for them.
std::vector<query::RangeQuery> Months() {
  std::vector<query::RangeQuery> months;
  for (int year = 1993; year <= 1997; ++year) {
    for (int month = 1; month <= 12; ++month) {
      const workload::CivilDate next{month == 12 ? year + 1 : year,
                                     month % 12 + 1, 1};
      months.push_back({workload::TpchDayIndex({year, month, 1}),
                        workload::TpchDayIndex(next) - 1});
    }
  }
  return months;
}

/// QueryU's start distribution for those months after τk decomposition, so
/// each query carries Q14's ~48 requests (batch size 1).
dist::Distribution MonthStarts() {
  Histogram hist(kDomain);
  for (const query::RangeQuery& q : Months()) {
    for (const auto& piece : query::Decompose(q, kK, kDomain)) {
      hist.Add(piece.start);
    }
  }
  auto starts = dist::Distribution::FromHistogram(hist);
  EXPECT_TRUE(starts.ok());
  return std::move(starts).value();
}

/// The active trace's decryption count: what a reply-dependent step between
/// two sends would move. Queries run under a trace; the load does not.
uint64_t DecryptCalls() {
  const obs::Trace* trace = obs::CurrentTrace();
  return trace != nullptr ? trace->cost().ope_decrypt_calls : 0;
}

/// What the recorders saw during one query.
struct QueryLog {
  std::vector<uint64_t> decrypts_at_send;  ///< One per request sent.
  /// Requests sent before the first reply byte was read (wire path only).
  size_t sent_before_first_read = 0;
  bool read_any = false;
  uint64_t request_bytes = 0;
};

/// Embedded recorder: one ExecuteRangeBatch per request.
class RecordingConnection final : public ServerConnection {
 public:
  RecordingConnection(engine::DbServer* server, QueryLog* log)
      : real_(server), log_(log) {}

  Result<BatchRows> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    log_->decrypts_at_send.push_back(DecryptCalls());
    return real_.ExecuteRangeBatch(table, column, ranges);
  }

  Result<Schema> GetSchema(const std::string& table) override {
    return real_.GetSchema(table);
  }

 private:
  DirectConnection real_;
  QueryLog* log_;
};

/// Wire recorder: splits the written bytes into frames and snapshots the
/// count at each complete one.
class RecordingTransport final : public net::Transport {
 public:
  RecordingTransport(std::unique_ptr<net::Transport> inner, QueryLog* log)
      : inner_(std::move(inner)), log_(log) {}

  Result<size_t> Read(char* buf, size_t max) override {
    if (!log_->read_any) {
      log_->read_any = true;
      log_->sent_before_first_read = log_->decrypts_at_send.size();
    }
    return inner_->Read(buf, max);
  }

  Status Write(const char* data, size_t n) override {
    written_.append(data, n);
    size_t consumed = 0;
    while (net::DecodeFrame(written_, &consumed).ok()) {
      log_->decrypts_at_send.push_back(DecryptCalls());
      log_->request_bytes += consumed;
      written_.erase(0, consumed);
    }
    return inner_->Write(data, n);
  }

  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  QueryLog* log_;
  std::string written_;  ///< Bytes of a frame not yet complete.
};

class SendOrderTest : public ::testing::Test {
 protected:
  /// Loads one row per day and two per even day through `system`, whose
  /// connection factory the test has set.
  void Load(MopeSystem* system) {
    std::vector<Row> rows;
    for (int64_t day = 0; day < static_cast<int64_t>(kDomain); ++day) {
      rows.push_back({day, static_cast<double>(day) * 0.5});
      if (day % 2 == 0) rows.push_back({day, static_cast<double>(day)});
    }
    EncryptedColumnSpec spec;
    spec.column = "day";
    spec.domain = kDomain;
    spec.k = kK;
    spec.mode = QueryMode::kUniform;
    spec.batch_size = 1;
    ASSERT_TRUE(system
                    ->LoadTable("days",
                                Schema({Column{"day", ValueType::kInt},
                                        Column{"amount", ValueType::kDouble}}),
                                rows, spec, &starts_)
                    .ok());
  }

  /// Runs seeded month queries, each under its own trace, and checks the
  /// invariant on what `log` recorded for it. Returns the logs.
  std::vector<QueryLog> RunQueries(MopeSystem* system, QueryLog* log) {
    const std::vector<query::RangeQuery> months = Months();
    Rng rng(kSeed + 1);
    std::vector<QueryLog> logs;
    for (int i = 0; i < kQueries; ++i) {
      const query::RangeQuery q = months[rng.UniformUint64(months.size())];
      *log = QueryLog();
      obs::Trace trace("query");
      uint64_t requests = 0;
      {
        const obs::ScopedTraceActivation active(&trace);
        auto response = system->Query("days", "day", q);
        EXPECT_TRUE(response.ok()) << response.status();
        if (!response.ok()) return logs;
        uint64_t expected = 0;
        for (uint64_t day = q.first; day <= q.last; ++day) {
          expected += day % 2 == 0 ? 2 : 1;
        }
        EXPECT_EQ(response->rows.size(), expected) << "query " << i;
        requests = response->server_requests;
      }
      EXPECT_GT(trace.cost().ope_decrypt_calls, 0u) << "query " << i;
      EXPECT_EQ(log->decrypts_at_send.size(), requests) << "query " << i;
      size_t moved = 0;
      while (moved < log->decrypts_at_send.size() &&
             log->decrypts_at_send[moved] == log->decrypts_at_send[0]) {
        ++moved;
      }
      EXPECT_EQ(moved, log->decrypts_at_send.size())
          << "query " << i << ": a decryption ran before request " << moved;
      logs.push_back(*log);
    }
    return logs;
  }

  dist::Distribution starts_ = MonthStarts();
};

TEST_F(SendOrderTest, EmbeddedPathDecryptsNothingBetweenSends) {
  MopeSystem system(kSeed);
  auto log = std::make_shared<QueryLog>();
  system.set_connection_factory(
      [&system, log]() -> Result<std::unique_ptr<ServerConnection>> {
        return std::unique_ptr<ServerConnection>(
            std::make_unique<RecordingConnection>(system.server(), log.get()));
      });
  Load(&system);
  const std::vector<QueryLog> logs = RunQueries(&system, log.get());
  ASSERT_EQ(logs.size(), static_cast<size_t>(kQueries));
}

TEST_F(SendOrderTest, WirePathWritesEveryFrameBeforeReadingAReply) {
  MopeSystem system(kSeed);
  auto log = std::make_shared<QueryLog>();
  auto dispatcher = std::make_shared<net::WireDispatcher>(system.server());
  auto channel = std::make_shared<net::InProcessChannel>(dispatcher.get());
  system.set_connection_factory(
      [dispatcher, channel,
       log]() -> Result<std::unique_ptr<ServerConnection>> {
        net::RemoteOptions options;
        options.max_retries = 0;
        options.backoff_initial_ms = 0;
        options.transport_factory =
            [channel, log]() -> Result<std::unique_ptr<net::Transport>> {
          return std::unique_ptr<net::Transport>(
              std::make_unique<RecordingTransport>(channel->NewTransport(),
                                                   log.get()));
        };
        return std::unique_ptr<ServerConnection>(
            std::make_unique<net::RemoteConnection>(std::move(options)));
      });
  Load(&system);
  const std::vector<QueryLog> logs = RunQueries(&system, log.get());
  ASSERT_EQ(logs.size(), static_cast<size_t>(kQueries));
  uint64_t requests = 0;
  for (size_t i = 0; i < logs.size(); ++i) {
    // Q14-sized: the whole query fits in the window, so every frame is out
    // before the first reply byte is read.
    ASSERT_LT(logs[i].request_bytes, net::kPipelineWindowBytes);
    EXPECT_TRUE(logs[i].read_any);
    EXPECT_EQ(logs[i].sent_before_first_read, logs[i].decrypts_at_send.size())
        << "query " << i;
    requests += logs[i].decrypts_at_send.size();
  }
  EXPECT_GT(requests, static_cast<uint64_t>(20 * kQueries));
}

}  // namespace
}  // namespace mope::proxy
