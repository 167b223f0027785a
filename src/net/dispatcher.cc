#include "net/dispatcher.h"

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace_export.h"

namespace mope::net {

namespace {

/// Encodes an application-level outcome: a reply frame on success, a
/// kStatusReply frame on error. Only called with already-validated framing.
/// A reply body over `max_payload` bytes is itself an application-level
/// outcome — EncodeFrame would MOPE_CHECK on it, and a legitimate (or
/// hostile) wide query must cost a StatusReply, not the process.
/// `trace_id` (the request's, possibly 0) is echoed on whichever frame goes
/// back so the client can attribute the reply to its span tree; likewise an
/// encoded `profile` rides on both outcomes — a failed query still reports
/// what it cost.
template <typename T, typename Encode>
std::string ReplyOrStatus(const Result<T>& result, MessageType reply_type,
                          Encode&& encode, size_t max_payload,
                          uint64_t trace_id, bool has_profile = false,
                          std::string_view profile = {}) {
  if (!result.ok()) {
    return EncodeFrame(MessageType::kStatusReply,
                       EncodeStatusReply(result.status()), trace_id,
                       has_profile, profile);
  }
  std::string body = encode(result.value());
  if (body.size() > max_payload) {
    return EncodeFrame(
        MessageType::kStatusReply,
        EncodeStatusReply(Status::InvalidArgument(
            "result too large for one frame (" +
            std::to_string(body.size()) + " > " +
            std::to_string(max_payload) +
            " bytes); narrow the ranges or lower the batch size")),
        trace_id, has_profile, profile);
  }
  return EncodeFrame(reply_type, std::move(body), trace_id, has_profile,
                     profile);
}

/// The reply's profile section: the request's cost when the client asked
/// for it, nothing otherwise (a profile-less request gets a reply without
/// the extension, whatever the server recorded for its own use).
std::string ProfileSection(const Frame& frame, const obs::QueryCost* cost) {
  return frame.has_profile ? EncodeProfileSection(*cost) : std::string();
}

/// Marks a completed dispatch in the crash flight recorder and persists the
/// black box if it has new entries. Called outside the dispatch mutex: a
/// kill -9 right after this point leaves a black box whose last event names
/// the final query the server actually finished.
void RecordDispatchDone(uint64_t trace_id) {
  if (obs::FlightRecorder* recorder = obs::FlightRecorder::Installed()) {
    recorder->Record(obs::FlightRecorder::EventKind::kEvent,
                     "server.dispatch.done", trace_id);
    // Best-effort by design: a full disk must not fail queries, and the
    // recorder already logged the write error under its own subsystem.
    (void)recorder->PersistIfDirty();
  }
}

}  // namespace

WireDispatcher::WireDispatcher(engine::DbServer* server,
                               DispatcherOptions options)
    : server_(server),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : obs::SystemClock()),
      frames_served_(
          server->metrics()->GetCounter("net.server.frames_served")),
      slow_queries_(server->metrics()->GetCounter("server.slow_queries")),
      dispatch_ns_(server->metrics()->GetHistogram("server.dispatch_ns")),
      requests_range_batch_(
          server->metrics()->GetCounter("server.requests.range_batch")),
      requests_count_batch_(
          server->metrics()->GetCounter("server.requests.count_batch")),
      requests_schema_(
          server->metrics()->GetCounter("server.requests.schema")),
      requests_stats_(server->metrics()->GetCounter("server.requests.stats")) {
}

WireDispatcher::WireDispatcher(engine::DbServer* server,
                               size_t max_reply_payload_bytes,
                               obs::Clock* clock)
    : WireDispatcher(server, [&] {
        DispatcherOptions options;
        options.max_reply_payload_bytes = max_reply_payload_bytes;
        options.clock = clock;
        return options;
      }()) {}

Result<std::string> WireDispatcher::HandleFrameBytes(std::string_view bytes,
                                                     size_t* consumed) {
  size_t frame_size = 0;
  MOPE_ASSIGN_OR_RETURN(Frame frame, DecodeFrame(bytes, &frame_size));
  if (consumed != nullptr) *consumed = frame_size;

  // Query-log sampling: every Nth data-bearing request has its cost
  // recorded as if the client had asked for it, and is emitted as an
  // `event=query` line after dispatch.
  const bool data_bearing =
      frame.type == static_cast<uint8_t>(MessageType::kRangeBatchRequest) ||
      frame.type == static_cast<uint8_t>(MessageType::kCountBatchRequest);
  const bool sampled =
      data_bearing && options_.query_log_sample > 0 &&
      query_seq_.fetch_add(1, std::memory_order_relaxed) %
              options_.query_log_sample ==
          0;

  // Slow-query mode gives every request a server-side trace, so the
  // instrumented layers underneath (storage WAL, buffer pool, checkpoint)
  // attach spans; without it ScopedSpan below records nothing. Adopting the
  // wire trace id (when the client sent one) is what lets the operator join
  // this trace against the client's own span tree.
  std::optional<obs::Trace> trace;
  std::optional<obs::ScopedTraceActivation> activation;
  if (options_.slow_query_threshold_ns > 0) {
    trace.emplace("server.dispatch", clock_, frame.trace_id);
    activation.emplace(&*trace);
  }
  // The request's own cost: on the slow-query trace when there is one (so
  // its export shows it), else only when someone will read it.
  obs::QueryCost untraced_cost;
  obs::QueryCost* cost = nullptr;
  if (trace.has_value()) {
    cost = &trace->cost();
  } else if (frame.has_profile || sampled) {
    cost = &untraced_cost;
  }
  if (cost != nullptr) cost->trace_id = frame.trace_id;

  const uint64_t start_ns = clock_->NowNanos();
  std::string reply;
  {
    const obs::ScopedSpan span("server.handle");
    const MutexLock lock(&mutex_);
    MOPE_ASSIGN_OR_RETURN(reply, HandleFrameLocked(frame, cost));
    server_->AddTransferBytes(frame_size, reply.size());
  }
  frames_served_->Increment();
  const uint64_t elapsed_ns = clock_->NowNanos() - start_ns;
  dispatch_ns_->Observe(elapsed_ns);
  if (trace.has_value() && elapsed_ns >= options_.slow_query_threshold_ns) {
    ReportSlowQuery(frame, elapsed_ns, *trace);
  }
  if (sampled) EmitQueryLog(frame, elapsed_ns, *cost);
  // The server-side trace id (== frame.trace_id when the client sent one),
  // so the done-marker joins the span events already in the ring.
  RecordDispatchDone(trace.has_value() ? trace->trace_id() : frame.trace_id);
  return reply;
}

void WireDispatcher::EmitQueryLog(const Frame& frame, uint64_t elapsed_ns,
                                  const obs::QueryCost& cost) {
  // One line per sampled query, its cost inline: grep `event=query` and the
  // server half of the request's record (what a profiled reply carries) is
  // on the line, joinable against client-side traces via trace_id. Flows
  // through the default logger, so its rate limiter has the final say.
  obs::LogEvent event(obs::Logger::Default(), obs::LogLevel::kInfo, "server",
                      "query");
  event.Arg("type", static_cast<uint64_t>(frame.type))
      .Arg("elapsed_ns", elapsed_ns)
      .Arg("trace_id", frame.trace_id);
  for (const obs::QueryCostField& field : obs::kQueryCostFields) {
    if (field.half != obs::CostHalf::kClient) {
      event.Arg(field.name, cost.*field.member);
    }
  }
}

void WireDispatcher::ReportSlowQuery(const Frame& frame, uint64_t elapsed_ns,
                                     const obs::Trace& trace) {
  slow_queries_->Increment();

  // Aggregate the span tree into a per-name time breakdown: one log line an
  // operator can read without opening the trace viewer.
  std::map<std::string, uint64_t> by_name;
  for (const obs::Span& span : trace.spans()) {
    if (span.end_ns >= span.start_ns) {
      by_name[span.name] += span.end_ns - span.start_ns;
    }
  }
  {
    obs::LogEvent event(obs::Logger::Default(), obs::LogLevel::kWarn,
                        "server", "slow_query");
    event.Arg("type", static_cast<uint64_t>(frame.type))
        .Arg("elapsed_ns", elapsed_ns)
        .Arg("threshold_ns", options_.slow_query_threshold_ns);
    for (const auto& [name, dur_ns] : by_name) {
      event.Arg(("span_ns." + name).c_str(), dur_ns);
    }
  }

  if (options_.trace_env != nullptr &&
      !options_.slow_query_trace_path.empty()) {
    const Status written = options_.trace_env->WriteFileAtomic(
        options_.slow_query_trace_path, obs::ExportChromeTrace(trace));
    if (!written.ok()) {
      MOPE_LOG(kWarn, "server", "slow_query_trace_write_failed")
          .Arg("path", options_.slow_query_trace_path)
          .Arg("error", written.message());
    }
  }
}

void WireDispatcher::MaybeCheckpointLocked(const Frame& frame) {
  if (options_.checkpoint_every == 0 || !server_->has_storage()) return;
  if (++frames_since_checkpoint_ < options_.checkpoint_every) return;
  frames_since_checkpoint_ = 0;
  // Inside the dispatch critical section: exactly the writer quiescence the
  // checkpoint protocol requires. The cost lands in this request's dispatch
  // latency (and its trace, when slow-query mode is on) by design — the
  // periodic-durability tax should be visible, not hidden.
  const obs::ScopedSpan span("server.checkpoint");
  const Status status = server_->CheckpointStorage();
  if (!status.ok()) {
    MOPE_LOG(kError, "server", "checkpoint_failed")
        .Arg("error", status.message());
  } else {
    MOPE_LOG(kDebug, "server", "checkpointed")
        .Arg("after_frames", options_.checkpoint_every)
        .Arg("trace_carried", frame.trace_id != 0);
  }
}

Result<engine::Schema> WireDispatcher::LookupSchemaLocked(
    const std::string& table) const {
  MOPE_ASSIGN_OR_RETURN(
      const engine::Table* tbl,
      static_cast<const engine::DbServer*>(server_)->catalog().GetTable(
          table));
  return tbl->schema();
}

Result<std::string> WireDispatcher::HandleFrameLocked(const Frame& frame,
                                                      obs::QueryCost* cost) {
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kRangeBatchRequest: {
      requests_range_batch_->Increment();
      auto request = DecodeRangeBatchRequest(frame.payload);
      if (!request.ok()) return request.status();
      // Rows are encoded straight from the table: the sweep collects
      // references, which stay valid because nothing mutates the table
      // before the reply is encoded under this same lock.
      RowRefs rows;
      const Result<uint64_t> swept = server_->SweepRangeBatch(
          request->table, request->column, request->ranges,
          [&rows](engine::RowId rid, const engine::Row& row) {
            rows.emplace_back(rid, &row);
          },
          cost);
      std::string reply = ReplyOrStatus(
          swept, MessageType::kRangeBatchReply,
          [&rows](uint64_t) { return EncodeRangeBatchReply(rows); },
          options_.max_reply_payload_bytes, frame.trace_id, frame.has_profile,
          ProfileSection(frame, cost));
      // A periodic checkpoint is a server policy cost, deliberately outside
      // the request's cost (it shows in the dispatch latency and the
      // slow-query trace instead).
      MaybeCheckpointLocked(frame);
      return reply;
    }
    case MessageType::kCountBatchRequest: {
      requests_count_batch_->Increment();
      auto request = DecodeRangeBatchRequest(frame.payload);
      if (!request.ok()) return request.status();
      const Result<uint64_t> count = server_->CountRangeBatch(
          request->table, request->column, request->ranges, cost);
      std::string reply = ReplyOrStatus(
          count, MessageType::kCountBatchReply,
          [](uint64_t c) { return EncodeCountBatchReply(c); },
          options_.max_reply_payload_bytes, frame.trace_id, frame.has_profile,
          ProfileSection(frame, cost));
      MaybeCheckpointLocked(frame);
      return reply;
    }
    case MessageType::kSchemaRequest: {
      requests_schema_->Increment();
      auto table = DecodeSchemaRequest(frame.payload);
      if (!table.ok()) return table.status();
      // Named helper rather than an immediately-invoked lambda: the thread
      // safety analysis treats a lambda as a separate function, so guarded
      // accesses inside one would not see the lock held here.
      const Result<engine::Schema> schema = LookupSchemaLocked(*table);
      return ReplyOrStatus(schema, MessageType::kSchemaReply,
                           [](const engine::Schema& s) {
                             return EncodeSchemaReply(s);
                           },
                           options_.max_reply_payload_bytes, frame.trace_id);
    }
    case MessageType::kStatsRequest: {
      requests_stats_->Increment();
      if (!frame.payload.empty()) {
        return Status::Corruption("stats request carries a payload");
      }
      // The snapshot covers everything credited to this server: engine.*
      // counters, wire bytes, and the net.server.* mirrors.
      return ReplyOrStatus(
          Result<StatsReply>(server_->metrics()->Snapshot()),
          MessageType::kStatsReply,
          [](const StatsReply& stats) { return EncodeStatsReply(stats); },
          options_.max_reply_payload_bytes, frame.trace_id);
    }
    case MessageType::kRangeBatchReply:
    case MessageType::kCountBatchReply:
    case MessageType::kSchemaReply:
    case MessageType::kStatsReply:
    case MessageType::kStatusReply:
      // A client sending us reply types is confused but the framing is
      // sound: answer, don't hang up.
      return EncodeFrame(MessageType::kStatusReply,
                         EncodeStatusReply(Status::InvalidArgument(
                             "reply message type in a request frame")),
                         frame.trace_id);
  }
  return EncodeFrame(MessageType::kStatusReply,
                     EncodeStatusReply(Status::InvalidArgument(
                         "unknown message type " +
                         std::to_string(frame.type))),
                     frame.trace_id);
}

}  // namespace mope::net
