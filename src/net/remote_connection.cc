#include "net/remote_connection.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/inmem.h"
#include "obs/trace.h"

namespace mope::net {

namespace {

obs::MetricsRegistry* ResolveRegistry(obs::MetricsRegistry* registry) {
  return registry != nullptr ? registry : obs::Registry();
}

}  // namespace

RemoteConnection::RemoteConnection(RemoteOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : obs::SystemClock()),
      retries_(
          ResolveRegistry(options_.registry)->GetCounter("net.client.retries")),
      connects_(ResolveRegistry(options_.registry)
                    ->GetCounter("net.client.connects")),
      roundtrips_(ResolveRegistry(options_.registry)
                      ->GetCounter("net.client.roundtrips")),
      bytes_sent_(ResolveRegistry(options_.registry)
                      ->GetCounter("net.client.bytes_sent")),
      bytes_received_(ResolveRegistry(options_.registry)
                          ->GetCounter("net.client.bytes_received")),
      roundtrip_ns_(ResolveRegistry(options_.registry)
                        ->GetHistogram("net.client.roundtrip_ns")) {
  if (!options_.transport_factory) {
    options_.transport_factory =
        [host = options_.host, port = options_.port,
         socket = options_.socket]() -> Result<std::unique_ptr<Transport>> {
      MOPE_ASSIGN_OR_RETURN(std::unique_ptr<SocketTransport> transport,
                            ConnectTcp(host, port, socket));
      return std::unique_ptr<Transport>(std::move(transport));
    };
  }
}

Status RemoteConnection::EnsureConnectedLocked() {
  if (transport_ != nullptr) return Status::OK();
  MOPE_ASSIGN_OR_RETURN(transport_, options_.transport_factory());
  connects_->Increment();
  return Status::OK();
}

void RemoteConnection::DisconnectLocked() {
  if (transport_ != nullptr) {
    transport_->Close();
    transport_.reset();
  }
}

Result<Frame> RemoteConnection::RoundTrip(MessageType request_type,
                                          std::string payload,
                                          MessageType expected_reply) {
  // One span per application-level round trip (retries included): in a query
  // trace, N of these under one segment shows the real/fake batch fan-out.
  const obs::ScopedSpan span("net.roundtrip");
  obs::Trace* trace = obs::CurrentTrace();
  const uint64_t trace_id = trace != nullptr ? trace->trace_id() : 0;
  // A trace that asked for the server's cost turns on the frame's profile
  // extension: the request carries an empty section ("profile me"), the
  // reply brings back the server half of the request's cost, merged below.
  const bool want_profile =
      trace != nullptr && trace->server_cost_requested();
  const uint64_t start_ns = clock_->NowNanos();
  const MutexLock lock(&mutex_);
  roundtrips_->Increment();
  Status last = Status::Unavailable("no attempt made");
  for (uint32_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      retries_->Increment();
      obs::ChargeCost(&obs::QueryCost::net_retries);
      const int backoff = std::min(
          options_.backoff_max_ms,
          options_.backoff_initial_ms << std::min(attempt - 1, 20u));
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }

    last = EnsureConnectedLocked();
    if (!last.ok()) {
      if (IsTransient(last)) continue;
      return last;
    }
    const uint64_t sent_bytes =
        kFrameHeaderBytes + (trace_id != 0 ? kTraceIdBytes : 0) +
        (want_profile ? kProfileLengthBytes : 0) + payload.size();
    bytes_sent_->Increment(sent_bytes);
    last = WriteFrame(transport_.get(), request_type, payload, trace_id,
                      want_profile);
    if (!last.ok()) {
      DisconnectLocked();
      if (IsTransient(last)) continue;
      return last;
    }
    auto frame = ReadFrame(transport_.get());
    if (!frame.ok()) {
      // The stream is in an unknown state either way; a fresh connection is
      // the only sane base for a retry.
      DisconnectLocked();
      last = frame.status();
      if (IsTransient(last)) continue;
      return last;  // Corruption and friends: fail fast
    }
    const uint64_t received_bytes =
        kFrameHeaderBytes + (frame->trace_id != 0 ? kTraceIdBytes : 0) +
        (frame->has_profile ? kProfileLengthBytes + frame->profile.size()
                            : 0) +
        frame->payload.size();
    bytes_received_->Increment(received_bytes);
    // Every exchange that got a reply is a completed round trip, an
    // application error (kStatusReply) included.
    roundtrip_ns_->Observe(clock_->NowNanos() - start_ns);
    if (trace != nullptr) {
      obs::QueryCost& cost = trace->cost();
      cost.net_frames += 1;
      cost.net_frame_bytes_sent += sent_bytes;
      cost.net_frame_bytes_received += received_bytes;
      if (want_profile && frame->has_profile) {
        // Decoded whole before anything merges: a bad section leaves the
        // record as it was. Counts add across the query's round trips (one
        // per batch); the trace id overwrites.
        auto server_cost = DecodeProfileSection(frame->profile);
        if (!server_cost.ok()) {
          DisconnectLocked();
          return server_cost.status();
        }
        cost.Merge(*server_cost);
      }
    }
    if (frame->type == static_cast<uint8_t>(MessageType::kStatusReply)) {
      Status carried;
      MOPE_RETURN_NOT_OK(DecodeStatusReply(frame->payload, &carried));
      return carried;  // the server's answer; not a transport failure
    }
    if (frame->type != static_cast<uint8_t>(expected_reply)) {
      DisconnectLocked();
      return Status::Corruption("unexpected reply type " +
                                std::to_string(frame->type));
    }
    return *std::move(frame);
  }
  return last;
}

Result<std::vector<std::pair<engine::RowId, engine::Row>>>
RemoteConnection::ExecuteRangeBatch(const std::string& table,
                                    const std::string& column,
                                    const std::vector<ModularInterval>& ranges) {
  RangeBatchRequest request{table, column, ranges};
  MOPE_ASSIGN_OR_RETURN(
      Frame reply,
      RoundTrip(MessageType::kRangeBatchRequest,
                EncodeRangeBatchRequest(request),
                MessageType::kRangeBatchReply));
  return DecodeRangeBatchReply(reply.payload);
}

Result<uint64_t> RemoteConnection::CountRangeBatch(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges) {
  RangeBatchRequest request{table, column, ranges};
  MOPE_ASSIGN_OR_RETURN(
      Frame reply,
      RoundTrip(MessageType::kCountBatchRequest,
                EncodeRangeBatchRequest(request),
                MessageType::kCountBatchReply));
  return DecodeCountBatchReply(reply.payload);
}

Result<engine::Schema> RemoteConnection::GetSchema(const std::string& table) {
  MOPE_ASSIGN_OR_RETURN(Frame reply,
                        RoundTrip(MessageType::kSchemaRequest,
                                  EncodeSchemaRequest(table),
                                  MessageType::kSchemaReply));
  return DecodeSchemaReply(reply.payload);
}

Result<std::vector<std::pair<std::string, uint64_t>>>
RemoteConnection::FetchServerStats() {
  MOPE_ASSIGN_OR_RETURN(Frame reply,
                        RoundTrip(MessageType::kStatsRequest, std::string(),
                                  MessageType::kStatsReply));
  return DecodeStatsReply(reply.payload);
}

uint64_t RemoteConnection::retries() const { return retries_->Value(); }

uint64_t RemoteConnection::connects() const { return connects_->Value(); }

std::unique_ptr<proxy::ServerConnection> MakeLoopbackWireConnection(
    engine::DbServer* server) {
  auto dispatcher = std::make_shared<WireDispatcher>(server);
  auto channel = std::make_shared<InProcessChannel>(dispatcher.get());
  RemoteOptions options;
  options.max_retries = 0;
  options.backoff_initial_ms = 0;
  // The factory keeps dispatcher and channel alive for the connection's
  // lifetime (captured shared_ptrs).
  options.transport_factory =
      [dispatcher, channel]() -> Result<std::unique_ptr<Transport>> {
    return channel->NewTransport();
  };
  return std::make_unique<RemoteConnection>(std::move(options));
}

}  // namespace mope::net
