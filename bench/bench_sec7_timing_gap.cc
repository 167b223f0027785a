/// Section 7 companion — the request-timing channel.
///
/// The Section 7 games give the server the encrypted ranges. A server also
/// sees when each request arrives. If the proxy decrypted and kept rows
/// between two sends, the gap after the request whose reply held the
/// client's rows would stand out. This bench runs `q14_uniform`'s setup
/// (LINEITEM SF 0.002, QueryU over the Q14 month starts, k = 30, batch size
/// 1), records every request's send time and whether its ranges overlap the
/// encryption of the client's range, and scores attack::LongestGapAttack:
/// per query, guess the request before the longest gap. It prints the hit
/// rate against chance for two paths:
///
///   * embedded: send times taken by a connection around DirectConnection
///     (one ExecuteRangeBatch per request);
///   * loopback wire: send times taken by a transport under
///     RemoteConnection (one per request frame, as written), over the
///     in-process wire path.
///
/// The row is timing, so it is reported, not gated. EXPERIMENTS.md records
/// it for the per-reply decrypting proxy and the send-first one.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/send_gap.h"
#include "bench/bench_util.h"
#include "bench/tpch_util.h"
#include "net/dispatcher.h"
#include "net/inmem.h"
#include "net/remote_connection.h"
#include "net/wire.h"
#include "ope/ope.h"

namespace mope {
namespace {

constexpr uint64_t kK = 30;
constexpr int kQueries = 2000;

/// Send times and ranges of the current query's requests.
struct Recorder {
  std::vector<uint64_t> send_ns;
  std::vector<std::vector<ModularInterval>> ranges;
};

/// Embedded path: one call per request.
class TimestampConnection final : public proxy::ServerConnection {
 public:
  TimestampConnection(engine::DbServer* server, Recorder* recorder)
      : real_(server), recorder_(recorder) {}

  Result<proxy::BatchRows> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    recorder_->send_ns.push_back(obs::SystemClock()->NowNanos());
    recorder_->ranges.push_back(ranges);
    return real_.ExecuteRangeBatch(table, column, ranges);
  }

  Result<engine::Schema> GetSchema(const std::string& table) override {
    return real_.GetSchema(table);
  }

 private:
  proxy::DirectConnection real_;
  Recorder* recorder_;
};

/// Wire path: every range-batch request frame, stamped when it is written.
class TimestampTransport final : public net::Transport {
 public:
  TimestampTransport(std::unique_ptr<net::Transport> inner,
                     Recorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  Result<size_t> Read(char* buf, size_t max) override {
    return inner_->Read(buf, max);
  }

  Status Write(const char* data, size_t n) override {
    const uint64_t now = obs::SystemClock()->NowNanos();
    written_.append(data, n);
    size_t consumed = 0;
    for (auto frame = net::DecodeFrame(written_, &consumed); frame.ok();
         frame = net::DecodeFrame(written_, &consumed)) {
      if (frame->type ==
          static_cast<uint8_t>(net::MessageType::kRangeBatchRequest)) {
        auto request = net::DecodeRangeBatchRequest(frame->payload);
        MOPE_CHECK(request.ok(), "range batch request");
        recorder_->send_ns.push_back(now);
        recorder_->ranges.push_back(std::move(request->ranges));
      }
      written_.erase(0, consumed);
    }
    return inner_->Write(data, n);
  }

  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  Recorder* recorder_;
  std::string written_;
};

bool Overlaps(const ModularInterval& a, const ModularInterval& b) {
  return a.Contains(b.start()) || b.Contains(a.start());
}

template <typename T>
T Must(Result<T> result, const char* what) {
  MOPE_CHECK(result.ok(), what);
  return std::move(result).value();
}

/// Runs the seeded Q14 stream and scores the adversary on what `recorder`
/// saw.
attack::LongestGapResult Run(proxy::MopeSystem* system, Recorder* recorder,
                             uint64_t* requests) {
  proxy::Proxy* proxy = Must(system->GetProxy("lineitem", "l_shipdate"),
                             "proxy");
  const uint64_t cipher_range = ope::SuggestRange(proxy->config().domain);
  Rng rng(0x514);
  std::vector<attack::RequestTimeline> timelines;
  for (int i = 0; i < kQueries; ++i) {
    const query::RangeQuery q = workload::SampleQ14(&rng).shipdate;
    *recorder = Recorder();
    Must(system->Query("lineitem", "l_shipdate", q), "query");
    // The proxy's own filter interval: the encryption of the client's range.
    const ModularInterval want = ModularInterval::FromEndpoints(
        Must(proxy->EncryptValue(q.first), "encrypt"),
        Must(proxy->EncryptValue(q.last), "encrypt"), cipher_range);
    attack::RequestTimeline timeline;
    timeline.send_ns = recorder->send_ns;
    for (const auto& ranges : recorder->ranges) {
      bool real = false;
      for (const ModularInterval& r : ranges) real = real || Overlaps(r, want);
      timeline.real.push_back(real);
    }
    *requests += timeline.send_ns.size();
    timelines.push_back(std::move(timeline));
  }
  return attack::LongestGapAttack(timelines);
}

void Run() {
  workload::TpchConfig config;
  config.scale_factor = bench::kBenchScaleFactor;
  const workload::TpchData data = workload::GenerateTpch(config);
  Rng starts_rng(0x0514);
  const dist::Distribution starts = bench::TemplateStarts(
      [](BitSource* rng) { return workload::SampleQ14(rng).shipdate; }, kK,
      20000, &starts_rng);

  bench::PrintHeader("Sec. 7 (timing)",
                     "longest-gap adversary on request send times");
  std::printf("LINEITEM SF %.3f, QueryU over Q14 months, k = %llu, batch 1, "
              "%d queries per path\n",
              bench::kBenchScaleFactor, static_cast<unsigned long long>(kK),
              kQueries);
  bench::TablePrinter table({"path", "requests/q", "hit_rate", "chance"});

  struct Path {
    const char* name;
    bool wire;
  };
  for (const Path& path :
       {Path{"embedded", false}, Path{"loopback_wire", true}}) {
    Recorder recorder;
    // Declared before the system, so its connection goes first.
    std::unique_ptr<net::WireDispatcher> dispatcher;
    std::unique_ptr<net::InProcessChannel> channel;
    auto system = std::make_unique<proxy::MopeSystem>(0x79C4);
    proxy::MopeSystem* raw = system.get();
    if (path.wire) {
      dispatcher = std::make_unique<net::WireDispatcher>(raw->server());
      channel = std::make_unique<net::InProcessChannel>(dispatcher.get());
    }
    system->set_connection_factory(
        [&, raw]() -> Result<std::unique_ptr<proxy::ServerConnection>> {
          if (!path.wire) {
            return std::unique_ptr<proxy::ServerConnection>(
                std::make_unique<TimestampConnection>(raw->server(),
                                                      &recorder));
          }
          net::RemoteOptions options;
          options.max_retries = 0;
          options.transport_factory =
              [&]() -> Result<std::unique_ptr<net::Transport>> {
            return std::unique_ptr<net::Transport>(
                std::make_unique<TimestampTransport>(channel->NewTransport(),
                                                     &recorder));
          };
          return std::unique_ptr<proxy::ServerConnection>(
              std::make_unique<net::RemoteConnection>(std::move(options)));
        });
    proxy::EncryptedColumnSpec spec;
    spec.column = "l_shipdate";
    spec.domain = workload::kTpchDateDomain;
    spec.k = kK;
    spec.mode = proxy::QueryMode::kUniform;
    spec.batch_size = 1;
    MOPE_CHECK(system
                   ->LoadTable("lineitem", data.lineitem_schema,
                               data.lineitem, spec, &starts)
                   .ok(),
               "encrypted load");
    uint64_t requests = 0;
    const attack::LongestGapResult result = Run(raw, &recorder, &requests);
    char per_query[32];
    char hit[32];
    char chance[32];
    std::snprintf(per_query, sizeof(per_query), "%.1f",
                  static_cast<double>(requests) / kQueries);
    std::snprintf(hit, sizeof(hit), "%.3f", result.hit_rate);
    std::snprintf(chance, sizeof(chance), "%.3f", result.chance);
    table.Row({path.name, per_query, hit, chance});
  }
}

}  // namespace
}  // namespace mope

int main() {
  mope::Run();
  return 0;
}
