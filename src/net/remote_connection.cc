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

struct RemoteConnection::Outgoing {
  size_t begin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }

  std::string bytes;         ///< Every request frame, in order.
  std::vector<size_t> ends;  ///< End offset of each frame in `bytes`.
  size_t sent = 0;       ///< Frames written on the current transport.
  size_t ever_sent = 0;  ///< Frames written on any transport (>= sent).
  std::vector<uint64_t> sent_ns;  ///< First send time of each frame.
  obs::Trace* trace = nullptr;
  bool want_profile = false;
};

proxy::BatchesResult RemoteConnection::Exchange(
    MessageType request_type, std::vector<std::string> payloads,
    MessageType expected_reply, const ReplyVisitor& on_reply) {
  Outgoing out;
  out.trace = obs::CurrentTrace();
  const uint64_t trace_id = out.trace != nullptr ? out.trace->trace_id() : 0;
  // A trace that asked for the server's cost turns on the frame's profile
  // extension: the request carries an empty section ("profile me"), the
  // reply brings back the server half of the request's cost, merged below.
  out.want_profile =
      out.trace != nullptr && out.trace->server_cost_requested();
  proxy::BatchesResult result;
  for (std::string& payload : payloads) {
    auto frame = EncodeCheckedFrame(request_type, std::move(payload),
                                    trace_id, out.want_profile);
    if (!frame.ok()) {
      result.status = frame.status();
      return result;
    }
    out.bytes += *frame;
    out.ends.push_back(out.bytes.size());
  }
  out.sent_ns.resize(out.ends.size());

  const MutexLock lock(&mutex_);
  for (; result.completed < out.ends.size(); ++result.completed) {
    const size_t i = result.completed;
    Result<Frame> reply = NextReplyLocked(&out, i);
    result.status = reply.ok()
                        ? AcceptReplyLocked(out, i, &*reply, expected_reply)
                        : reply.status();
    if (result.status.ok()) result.status = on_reply(*reply);
    if (!result.status.ok()) {
      // Replies to later requests are still on their way and nobody will
      // read them, so the stream cannot serve another exchange.
      if (out.sent > i + 1) DisconnectLocked();
      return result;
    }
  }
  return result;
}

Result<Frame> RemoteConnection::NextReplyLocked(Outgoing* out, size_t i) {
  // One span per request, retries included: in a query trace, N of these
  // under one segment shows the real/fake batch fan-out.
  const obs::ScopedSpan span("net.roundtrip");
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
    last = SendWindowLocked(out, i);
    if (last.ok()) {
      auto frame = ReadFrame(transport_.get());
      if (frame.ok()) return frame;
      last = frame.status();
    }
    // The stream is in an unknown state either way; a fresh connection,
    // with request i and every later one sent again, is the only sane base
    // for a retry.
    DisconnectLocked();
    out->sent = i;
    if (!IsTransient(last)) return last;  // Corruption and friends: fail fast
  }
  return last;
}

Status RemoteConnection::SendWindowLocked(Outgoing* out, size_t i) {
  // Request i always goes; a later one only while the unanswered frames,
  // i's included, fit in the window.
  const size_t base = out->begin(i);
  size_t end = out->sent;
  while (end < out->ends.size() &&
         (end == i || out->ends[end] - base <= kPipelineWindowBytes)) {
    ++end;
  }
  if (end == out->sent) return Status::OK();
  const size_t from = out->begin(out->sent);
  const size_t to = out->ends[end - 1];
  if (end > out->ever_sent) {  // first sends: start their clocks
    std::fill(out->sent_ns.begin() + static_cast<ptrdiff_t>(out->ever_sent),
              out->sent_ns.begin() + static_cast<ptrdiff_t>(end),
              clock_->NowNanos());
    roundtrips_->Increment(end - out->ever_sent);
    out->ever_sent = end;
  }
  bytes_sent_->Increment(to - from);
  MOPE_RETURN_NOT_OK(transport_->Write(out->bytes.data() + from, to - from));
  out->sent = end;
  return Status::OK();
}

Status RemoteConnection::AcceptReplyLocked(const Outgoing& out, size_t i,
                                           Frame* reply,
                                           MessageType expected_reply) {
  const uint64_t received_bytes =
      FramePrefixBytes(reply->trace_id, reply->has_profile,
                       reply->profile.size()) +
      reply->payload.size();
  bytes_received_->Increment(received_bytes);
  // Every exchange that got a reply is a completed round trip, an
  // application error (kStatusReply) included.
  roundtrip_ns_->Observe(clock_->NowNanos() - out.sent_ns[i]);
  if (out.trace != nullptr) {
    obs::QueryCost& cost = out.trace->cost();
    cost.net_frames += 1;
    cost.net_frame_bytes_sent += out.ends[i] - out.begin(i);
    cost.net_frame_bytes_received += received_bytes;
    if (out.want_profile && reply->has_profile) {
      // Decoded whole before anything merges: a bad section leaves the
      // record as it was. Counts add across the query's requests (one per
      // batch); the trace id overwrites.
      auto server_cost = DecodeProfileSection(reply->profile);
      if (!server_cost.ok()) {
        DisconnectLocked();
        return server_cost.status();
      }
      cost.Merge(*server_cost);
    }
  }
  if (reply->type == static_cast<uint8_t>(MessageType::kStatusReply)) {
    Status carried;
    MOPE_RETURN_NOT_OK(DecodeStatusReply(reply->payload, &carried));
    return carried;  // the server's answer; not a transport failure
  }
  if (reply->type != static_cast<uint8_t>(expected_reply)) {
    DisconnectLocked();
    return Status::Corruption("unexpected reply type " +
                              std::to_string(reply->type));
  }
  return Status::OK();
}

Result<Frame> RemoteConnection::RoundTrip(MessageType request_type,
                                          std::string payload,
                                          MessageType expected_reply) {
  std::vector<std::string> payloads;
  payloads.push_back(std::move(payload));
  Frame reply;
  MOPE_RETURN_NOT_OK(Exchange(request_type, std::move(payloads),
                              expected_reply, [&reply](Frame& frame) {
                                reply = std::move(frame);
                                return Status::OK();
                              })
                         .status);
  return reply;
}

Result<proxy::BatchRows> RemoteConnection::ExecuteRangeBatch(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges) {
  proxy::BatchRows out;
  MOPE_RETURN_NOT_OK(ExecuteRangeBatches(table, column, {&ranges, 1},
                                         [&out](proxy::BatchRows& rows) {
                                           out = std::move(rows);
                                           return Status::OK();
                                         })
                         .status);
  return out;
}

proxy::BatchesResult RemoteConnection::ExecuteRangeBatches(
    const std::string& table, const std::string& column,
    std::span<const std::vector<ModularInterval>> batches,
    const proxy::BatchVisitor& visit) {
  std::vector<std::string> payloads;
  payloads.reserve(batches.size());
  for (const std::vector<ModularInterval>& ranges : batches) {
    payloads.push_back(
        EncodeRangeBatchRequest(RangeBatchRequest{table, column, ranges}));
  }
  // Each reply is decoded and visited as it is read. The next reply is
  // decoded over the rows the visitor left, so one reply's rows are held
  // at a time and their storage is reused.
  proxy::BatchRows rows;
  return Exchange(MessageType::kRangeBatchRequest, std::move(payloads),
                  MessageType::kRangeBatchReply,
                  [&](Frame& reply) -> Status {
                    MOPE_RETURN_NOT_OK(
                        DecodeRangeBatchReply(reply.payload, &rows));
                    return visit(rows);
                  });
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
