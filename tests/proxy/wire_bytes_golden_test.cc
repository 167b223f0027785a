/// Golden digest of every wire byte a seeded proxy exchanges with its
/// server: request frames as written, reply frames as read. The companion
/// traffic golden pins the ciphertext ranges; this one pins their framing
/// and the reply encoding too (row ids, value tags, lengths, CRCs), so a
/// change to how frames are built or checked — a faster CRC, a one-pass
/// reply encoder — must leave both digests unchanged. A change that moves
/// them changes what crosses the network and needs an argument.
///
/// The proxy's connection is the in-process loopback wire path
/// (net::MakeLoopbackWireConnection's wiring: RemoteConnection ->
/// InProcessChannel -> WireDispatcher) with a recording Transport between
/// the connection and the channel.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "dist/distribution.h"
#include "net/dispatcher.h"
#include "net/inmem.h"
#include "net/remote_connection.h"
#include "proxy/system.h"

namespace mope::proxy {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;

constexpr uint64_t kDomain = 365;
constexpr uint64_t kSeed = 0x3B17E5;

// Digests of the run below as produced by the byte-at-a-time CRC and the
// append-per-byte reply encoder.
constexpr uint64_t kSentDigest = 6388488513460990823ULL;
constexpr uint64_t kReceivedDigest = 5048143141019530797ULL;
constexpr uint64_t kSentBytes = 11619;
constexpr uint64_t kReceivedBytes = 68651;

/// 64-bit FNV-1a over a byte stream.
struct ByteDigest {
  void Add(const char* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      hash = (hash ^ static_cast<uint8_t>(data[i])) * 0x100000001B3ULL;
    }
    bytes += n;
  }
  uint64_t hash = 0xCBF29CE484222325ULL;
  uint64_t bytes = 0;
};

/// Passes every byte through and folds it into the digest of its direction.
class RecordingTransport final : public net::Transport {
 public:
  RecordingTransport(std::unique_ptr<net::Transport> inner, ByteDigest* sent,
                     ByteDigest* received)
      : inner_(std::move(inner)), sent_(sent), received_(received) {}

  Result<size_t> Read(char* buf, size_t max) override {
    Result<size_t> n = inner_->Read(buf, max);
    if (n.ok()) received_->Add(buf, *n);
    return n;
  }
  Status Write(const char* data, size_t n) override {
    sent_->Add(data, n);
    return inner_->Write(data, n);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  ByteDigest* sent_;
  ByteDigest* received_;
};

/// Dispatcher, channel and digests shared by every connection the system
/// opens.
struct RecordedWire {
  explicit RecordedWire(engine::DbServer* server)
      : dispatcher(server), channel(&dispatcher) {}

  std::unique_ptr<ServerConnection> Connect() {
    net::RemoteOptions options;
    options.max_retries = 0;
    options.backoff_initial_ms = 0;
    options.transport_factory =
        [this]() -> Result<std::unique_ptr<net::Transport>> {
      return std::unique_ptr<net::Transport>(
          std::make_unique<RecordingTransport>(channel.NewTransport(), &sent,
                                               &received));
    };
    return std::make_unique<net::RemoteConnection>(std::move(options));
  }

  net::WireDispatcher dispatcher;
  net::InProcessChannel channel;
  ByteDigest sent;
  ByteDigest received;
};

TEST(WireBytesGoldenTest, SeededRunKeepsEveryFrameByte) {
  // Int, double and string columns, with negative values and empty
  // strings, so replies exercise every value tag.
  std::vector<Row> rows;
  std::vector<double> weights;
  for (int64_t day = 0; day < static_cast<int64_t>(kDomain); ++day) {
    rows.push_back(Row{day, static_cast<double>(day) * -1.25 + 3.0,
                       day % 3 == 0 ? std::string()
                                    : "note-" + std::to_string(day),
                       day - 200});
    weights.push_back(1.0 + static_cast<double>(day % 5));
  }
  auto known_q = dist::Distribution::FromWeights(weights);
  ASSERT_TRUE(known_q.ok());
  const Schema schema({Column{"day", ValueType::kInt},
                       Column{"amount", ValueType::kDouble},
                       Column{"note", ValueType::kString},
                       Column{"delta", ValueType::kInt}});
  EncryptedColumnSpec spec;
  spec.column = "day";
  spec.domain = kDomain;
  spec.k = 7;
  spec.mode = QueryMode::kUniform;
  spec.batch_size = 1;

  MopeSystem system(kSeed);
  auto wire = std::make_shared<RecordedWire>(system.server());
  system.set_connection_factory(
      [wire]() -> Result<std::unique_ptr<ServerConnection>> {
        return wire->Connect();
      });
  ASSERT_TRUE(system.LoadTable("days", schema, rows, spec, &*known_q).ok());

  Rng queries(kSeed + 1);
  for (int i = 0; i < 40; ++i) {
    const uint64_t first = queries.UniformUint64(kDomain - 30);
    const query::RangeQuery q{first, first + queries.UniformUint64(30)};
    auto response = system.Query("days", "day", q);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->rows.size(), q.length()) << "query " << i;
  }

  EXPECT_EQ(wire->sent.bytes, kSentBytes);
  EXPECT_EQ(wire->received.bytes, kReceivedBytes);
  EXPECT_EQ(wire->sent.hash, kSentDigest);
  EXPECT_EQ(wire->received.hash, kReceivedDigest);
}

}  // namespace
}  // namespace mope::proxy
