#ifndef MOPE_NET_REMOTE_CONNECTION_H_
#define MOPE_NET_REMOTE_CONNECTION_H_

/// \file remote_connection.h
/// The proxy's client end of the wire protocol.
///
/// RemoteConnection implements proxy::ServerConnection over any Transport
/// factory (TCP in production, in-memory channels in tests), making the
/// proxy location-transparent: the same Proxy code runs against an embedded
/// engine, a daemon on localhost, or a server across a network.
///
/// Pipelining: ExecuteRangeBatches writes a query's request frames back to
/// back and reads the replies in order, decoding and visiting each as it is
/// read. The server answers one connection's frames in order, so no reply
/// needs an id. At most kPipelineWindowBytes of request frames are
/// unanswered at once (a frame larger than the window goes alone), and
/// a reply is read only once every frame is out or the window is full.
/// Every other request is the one-frame case of the same path.
///
/// Failure policy, in one place:
///   - transient errors (kUnavailable: timeouts, resets, mid-reply EOF) are
///     retried up to max_retries times per request with capped exponential
///     backoff, reconnecting each time and resending the failed request and
///     every later one; replies already visited are kept. Every request is
///     an idempotent read, so a retry after a half-finished exchange is
///     always safe;
///   - Corruption (CRC mismatch, bad framing) fails fast: a corrupted
///     stream is a bug or an attack, not weather;
///   - server-side application errors arrive as kStatusReply frames and are
///     returned verbatim, never retried.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "proxy/connection.h"

namespace mope::net {

struct RemoteOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  SocketOptions socket;  ///< Connect/read deadlines for TCP transports.

  /// Extra attempts after the first on transient failures.
  uint32_t max_retries = 3;
  /// Backoff before retry i is min(initial << i, max) milliseconds.
  int backoff_initial_ms = 5;
  int backoff_max_ms = 250;

  /// Where the connection's `net.client.*` counters and round-trip latency
  /// histogram live. nullptr = the process-global obs::Registry(). A
  /// MopeSystem passes its own registry so client- and server-side metrics
  /// stay separate even when both ends share one test process.
  obs::MetricsRegistry* registry = nullptr;
  /// Times round trips; nullptr = obs::SystemClock().
  obs::Clock* clock = nullptr;

  /// Opens the underlying stream; defaults to ConnectTcp(host, port).
  /// Tests substitute in-memory or fault-injecting transports here.
  std::function<Result<std::unique_ptr<Transport>>()> transport_factory;
};

/// Most request-frame bytes a connection leaves unanswered. Well below the
/// Linux loopback socket buffers (16 KiB send plus 128 KiB receive), so the
/// kernel holds every unanswered request: the client never blocks writing
/// while the server blocks writing a reply the client has not read. A
/// `q14_uniform_tcp` query's ~48 requests (~5 KB) all go out before the
/// first read.
inline constexpr size_t kPipelineWindowBytes = 32 * 1024;

class RemoteConnection final : public proxy::ServerConnection {
 public:
  explicit RemoteConnection(RemoteOptions options);

  /// The one-batch case of ExecuteRangeBatches.
  Result<proxy::BatchRows> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override;

  /// Pipelines the batches over one connection (see the file comment).
  /// `visit` runs with the connection's lock held, because the stream is
  /// mid-exchange until the last reply is read; it must not call back
  /// into this connection.
  proxy::BatchesResult ExecuteRangeBatches(
      const std::string& table, const std::string& column,
      std::span<const std::vector<ModularInterval>> batches,
      const proxy::BatchVisitor& visit) override;

  Result<uint64_t> CountRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override;

  Result<engine::Schema> GetSchema(const std::string& table) override;

  /// Asks the server for its metrics registry (kStatsRequest round trip).
  Result<std::vector<std::pair<std::string, uint64_t>>> FetchServerStats()
      override;

  /// Transport-level retry attempts performed so far (the proxy's own
  /// retries_performed() counts on top of these).
  uint64_t retries() const;
  /// Successful (re)connects, minus the none-yet state: 0 until first use.
  uint64_t connects() const;

 private:
  /// The request frames of one exchange, encoded back to back so that any
  /// suffix goes out in one write.
  struct Outgoing;
  using ReplyVisitor = std::function<Status(Frame& reply)>;

  /// Sends one request of each payload, pipelined, and hands each reply to
  /// `on_reply` in request order. A kStatusReply ends the exchange with the
  /// status it carries.
  proxy::BatchesResult Exchange(MessageType request_type,
                                std::vector<std::string> payloads,
                                MessageType expected_reply,
                                const ReplyVisitor& on_reply)
      MOPE_EXCLUDES(mutex_);
  /// Exchange of one request.
  Result<Frame> RoundTrip(MessageType request_type, std::string payload,
                          MessageType expected_reply) MOPE_EXCLUDES(mutex_);
  /// Sends what the window allows and reads request `i`'s reply, with the
  /// transport retries.
  Result<Frame> NextReplyLocked(Outgoing* out, size_t i) MOPE_REQUIRES(mutex_);
  /// Writes every unsent frame the window allows while `i` is the oldest
  /// unanswered request.
  Status SendWindowLocked(Outgoing* out, size_t i) MOPE_REQUIRES(mutex_);
  /// Accounts request `i`'s reply and checks its type.
  Status AcceptReplyLocked(const Outgoing& out, size_t i, Frame* reply,
                           MessageType expected_reply) MOPE_REQUIRES(mutex_);
  Status EnsureConnectedLocked() MOPE_REQUIRES(mutex_);
  void DisconnectLocked() MOPE_REQUIRES(mutex_);

  RemoteOptions options_;
  obs::Clock* clock_;
  mutable Mutex mutex_{
      lock_rank::kClientConnection};  ///< One exchange per connection.
  std::unique_ptr<Transport> transport_ MOPE_GUARDED_BY(mutex_);
  // Registry counters (atomic targets), deliberately *not* annotated with the
  // connection mutex: mutex_ is held across retry backoff sleeps (up to
  // seconds), and stats readers — retries()/connects() below, and any
  // registry snapshot — must never block behind a retrying request. Guarding
  // them would force those readers to take mutex_, which is exactly the
  // coupling this split exists to prevent.
  obs::Counter* retries_;
  obs::Counter* connects_;
  /// net.client.roundtrips: one per request, counted at its first send;
  /// pipelining does not change it.
  obs::Counter* roundtrips_;
  obs::Counter* bytes_sent_;
  obs::Counter* bytes_received_;
  /// net.client.roundtrip_ns: from a request's first send to the read of
  /// its reply, so a pipelined request's time includes the replies read
  /// before it.
  obs::ExpHistogram* roundtrip_ns_;
};

/// A ServerConnection that routes every request through the complete wire
/// path — encode, frame, CRC, dispatch, decode — against an in-process
/// DbServer, deterministically and without sockets. Used by benches to
/// measure honest wire bandwidth and by tests as the no-kernel baseline.
/// The returned connection owns its dispatcher and channel; `server` must
/// outlive it.
std::unique_ptr<proxy::ServerConnection> MakeLoopbackWireConnection(
    engine::DbServer* server);

}  // namespace mope::net

#endif  // MOPE_NET_REMOTE_CONNECTION_H_
