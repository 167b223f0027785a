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
/// Failure policy, in one place:
///   - transient errors (kUnavailable: timeouts, resets, mid-reply EOF) are
///     retried up to max_retries times with capped exponential backoff,
///     reconnecting each time — every request is an idempotent read, so a
///     retry after a half-finished exchange is always safe;
///   - Corruption (CRC mismatch, bad framing) fails fast: a corrupted
///     stream is a bug or an attack, not weather;
///   - server-side application errors arrive as kStatusReply frames and are
///     returned verbatim, never retried.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
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

class RemoteConnection final : public proxy::ServerConnection {
 public:
  explicit RemoteConnection(RemoteOptions options);

  Result<std::vector<std::pair<engine::RowId, engine::Row>>>
  ExecuteRangeBatch(const std::string& table, const std::string& column,
                    const std::vector<ModularInterval>& ranges) override;

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
  Result<Frame> RoundTrip(MessageType request_type, std::string payload,
                          MessageType expected_reply) MOPE_EXCLUDES(mutex_);
  Status EnsureConnectedLocked() MOPE_REQUIRES(mutex_);
  void DisconnectLocked() MOPE_REQUIRES(mutex_);

  RemoteOptions options_;
  obs::Clock* clock_;
  mutable Mutex mutex_{
      lock_rank::kClientConnection};  ///< One in-flight request per connection.
  std::unique_ptr<Transport> transport_ MOPE_GUARDED_BY(mutex_);
  // Registry counters (atomic targets), deliberately *not* annotated with the
  // connection mutex: mutex_ is held across retry backoff sleeps (up to
  // seconds), and stats readers — retries()/connects() below, and any
  // registry snapshot — must never block behind a retrying request. Guarding
  // them would force those readers to take mutex_, which is exactly the
  // coupling this split exists to prevent.
  obs::Counter* retries_;
  obs::Counter* connects_;
  obs::Counter* roundtrips_;
  obs::Counter* bytes_sent_;
  obs::Counter* bytes_received_;
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
