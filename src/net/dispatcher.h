#ifndef MOPE_NET_DISPATCHER_H_
#define MOPE_NET_DISPATCHER_H_

/// \file dispatcher.h
/// Bridges decoded wire frames to an engine::DbServer.
///
/// One dispatcher is shared by every session of a server daemon. It owns the
/// mutex that serializes engine access (DbServer is single-threaded by
/// design — the paper's server is one unmodified DBMS) and the wire-level
/// byte accounting folded into ServerStats. Application errors (unknown
/// table, bad column, unknown message type) are *answers*, encoded as
/// kStatusReply frames; only framing violations — a stream we can no longer
/// trust — are returned as errors, upon which the session closes.
///
/// Observability: requests carrying a version-2 trace id get that id echoed
/// on their reply frame, so a client's span tree and the server's accounting
/// correlate. Per-request dispatch latency (decode + engine + encode) lands
/// in the server registry's `server.dispatch_ns` histogram, and a
/// kStatsRequest frame is answered with the full registry snapshot — the
/// live stats endpoint `mope_serverd` exposes.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/server.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "storage/env.h"

namespace mope::net {

struct DispatcherOptions {
  /// Caps the encoded reply body: a query whose result would overflow one
  /// frame is *answered* with kStatusReply(InvalidArgument) — never an
  /// abort, never a dropped session. Tests lower it to exercise the
  /// overflow path cheaply.
  size_t max_reply_payload_bytes = kMaxPayloadBytes;
  /// Times per-request dispatch latency (nullptr = SystemClock; tests
  /// inject a ManualClock for deterministic histograms).
  obs::Clock* clock = nullptr;
  /// Slow-query accounting: a request whose dispatch takes at least this
  /// long gets a server-side trace, a structured `event=slow_query` log
  /// line with a per-span time breakdown, and (when `trace_env` is set and
  /// `slow_query_trace_path` non-empty) a Chrome-trace export written
  /// atomically to that path. The server-side trace adopts the request
  /// frame's wire trace id, so the log line, the export, and the client's
  /// own span tree all correlate. 0 disables.
  uint64_t slow_query_threshold_ns = 0;
  std::string slow_query_trace_path;
  storage::Env* trace_env = nullptr;
  /// Checkpoint the attached storage after every N data-bearing requests
  /// (periodic durability without waiting for shutdown; the dispatch mutex
  /// provides the writer quiescence CheckpointStorage requires). 0 never
  /// checkpoints from the dispatcher. A slow-query trace of a request that
  /// triggered one shows exactly where the WAL/buffer-pool time went.
  uint64_t checkpoint_every = 0;
  /// Sampled query log: every Nth data-bearing request (range or count
  /// batch) has its cost recorded — as if the client had asked — and is
  /// emitted as a structured `event=query` log line carrying the server
  /// half of that cost, through the default (rate-limited) logger. The
  /// reply is unchanged. 0 disables.
  uint64_t query_log_sample = 0;
};

class WireDispatcher {
 public:
  /// `server` must outlive the dispatcher.
  WireDispatcher(engine::DbServer* server, DispatcherOptions options);

  /// Convenience form preserving the original signature.
  explicit WireDispatcher(engine::DbServer* server,
                          size_t max_reply_payload_bytes = kMaxPayloadBytes,
                          obs::Clock* clock = nullptr);

  WireDispatcher(const WireDispatcher&) = delete;
  WireDispatcher& operator=(const WireDispatcher&) = delete;

  /// Handles the complete frame at the front of `bytes` and returns the
  /// encoded reply frame; `*consumed` is set to the request frame's size.
  /// Thread-safe: the whole request (decode, engine call, encode, stats) runs
  /// under the dispatch mutex.
  Result<std::string> HandleFrameBytes(std::string_view bytes,
                                       size_t* consumed);

  /// Requests answered so far (including ones answered with a StatusReply).
  uint64_t frames_served() const { return frames_served_->Value(); }

 private:
  /// Dispatches one decoded request. A non-null `cost` receives the
  /// request's own server-side cost from the sweep; data-bearing replies to
  /// a request that asked for it (`frame.has_profile`) carry it back as the
  /// wire profile section. Other requests execute no query and attach none.
  Result<std::string> HandleFrameLocked(const Frame& frame,
                                        obs::QueryCost* cost)
      MOPE_REQUIRES(mutex_);
  /// Catalog lookup for a schema request (split out so the capability
  /// analysis sees the engine access inside the dispatch critical section).
  Result<engine::Schema> LookupSchemaLocked(const std::string& table) const
      MOPE_REQUIRES(mutex_);
  /// Periodic-checkpoint policy; called after every data-bearing request.
  void MaybeCheckpointLocked(const Frame& frame) MOPE_REQUIRES(mutex_);
  /// Slow-query aftermath: log line + Chrome-trace export. `trace` is the
  /// (still thread-activated) server-side trace of the request.
  void ReportSlowQuery(const Frame& frame, uint64_t elapsed_ns,
                       const obs::Trace& trace);
  /// Emits the sampled `event=query` structured log line.
  void EmitQueryLog(const Frame& frame, uint64_t elapsed_ns,
                    const obs::QueryCost& cost);

  /// Serializes engine access: DbServer is single-threaded by design (the
  /// paper's server is one unmodified DBMS), so the pointee is guarded even
  /// though the pointer itself is const after construction.
  mutable Mutex mutex_{lock_rank::kDispatcher};
  engine::DbServer* server_ MOPE_PT_GUARDED_BY(mutex_);
  DispatcherOptions options_;
  obs::Clock* clock_;
  uint64_t frames_since_checkpoint_ MOPE_GUARDED_BY(mutex_) = 0;
  // Handles into the server's registry (so the stats endpoint serves them).
  // Atomic targets: safe to bump without the dispatch mutex.
  obs::Counter* frames_served_;
  obs::Counter* slow_queries_;
  obs::ExpHistogram* dispatch_ns_;
  // Request totals by kind (the /statusz "queries" section).
  obs::Counter* requests_range_batch_;
  obs::Counter* requests_count_batch_;
  obs::Counter* requests_schema_;
  obs::Counter* requests_stats_;
  /// Data-bearing requests seen while query-log sampling is on (every Nth
  /// one is emitted). Atomic: bumped outside the dispatch mutex.
  std::atomic<uint64_t> query_seq_{0};
};

}  // namespace mope::net

#endif  // MOPE_NET_DISPATCHER_H_
