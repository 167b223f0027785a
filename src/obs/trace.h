#ifndef MOPE_OBS_TRACE_H_
#define MOPE_OBS_TRACE_H_

/// \file trace.h
/// Per-query trace spans: one user query becomes one span tree.
///
/// A Trace is created at a query entry point (EncryptedSqlSession::Execute,
/// or any caller that wants a profile), activated for the current thread,
/// and then every instrumented layer underneath — the SQL parser, the
/// fake-query sampling, MOPE encryption, each server round trip, the
/// decrypt/filter pass — contributes spans without any plumbing through
/// signatures: `ScopedSpan span("proxy.encrypt")` reads the thread-local
/// active trace and is a no-op (two branches, no allocation) when tracing is
/// off, which is what keeps the hot paths honest.
///
/// The trace also carries the query's cost record (obs/query_cost.h): counts
/// too fine-grained to be spans (OPE calls, HGD draws, wire frames) and the
/// server's half of the cost. Its 64-bit trace id is what RemoteConnection
/// stamps into the wire frame header so a server can correlate its own
/// accounting with the client's span tree (see net/wire.h, version 2
/// frames).
///
/// Timing comes from an injectable Clock (obs/clock.h): production traces
/// use SystemClock(), tests use a ManualClock with auto-advance so span
/// trees are byte-stable. Ids are drawn from a process-wide counter — no
/// wall clock, no randomness.

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/query_cost.h"

namespace mope::obs {

/// One timed operation in a trace. `parent` is the index+1 of the enclosing
/// span (0 for roots), so the vector is the tree.
struct Span {
  std::string name;
  uint32_t parent = 0;       ///< 1-based index of parent span; 0 = root.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;       ///< 0 while the span is open.
};

class Trace {
 public:
  /// `clock` must outlive the trace; nullptr selects SystemClock().
  /// `forced_id` adopts an externally assigned trace id (a server picking up
  /// the id a client stamped into the wire frame header); 0 draws a fresh id
  /// from the process-wide counter.
  explicit Trace(std::string name, Clock* clock = nullptr,
                 uint64_t forced_id = 0);

  uint64_t trace_id() const { return trace_id_; }
  const std::string& name() const { return name_; }

  /// Opens a span as a child of the innermost open span (so nesting follows
  /// call structure). Returns the 1-based span id for EndSpan.
  uint32_t StartSpan(std::string span_name);
  void EndSpan(uint32_t id);

  /// The query's cost record. Unlocked: only the thread the trace is
  /// active on writes it, so read it once the traced work has returned.
  QueryCost& cost() { return cost_; }
  const QueryCost& cost() const { return cost_; }

  /// Makes every server round trip under this trace ask for the server's
  /// half of the cost (EXPLAIN ANALYZE). Set before activation.
  void RequestServerCost() { server_cost_requested_ = true; }
  bool server_cost_requested() const { return server_cost_requested_; }

  // --- Inspection (safe after, or concurrently with, recording) -----------
  std::vector<Span> spans() const;

  /// Number of spans whose name is exactly `span_name`.
  size_t CountSpans(const std::string& span_name) const;

  /// True if every span's timestamps are monotone (start <= end, children
  /// within [start, end] of their parent, and siblings ordered by start).
  bool TimingsMonotone() const;

  /// Indented ASCII rendering of the tree with durations in microseconds,
  /// followed by every cost field.
  std::string RenderTree() const;

 private:
  const std::string name_;
  Clock* const clock_;
  const uint64_t trace_id_;

  mutable Mutex mutex_{lock_rank::kTrace};
  std::vector<Span> spans_ MOPE_GUARDED_BY(mutex_);
  /// 1-based ids of open spans.
  std::vector<uint32_t> open_stack_ MOPE_GUARDED_BY(mutex_);
  QueryCost cost_;
  bool server_cost_requested_ = false;
};

// --- Thread-local activation ---------------------------------------------

/// The trace active on this thread, or nullptr. Instrumented code calls
/// this (via ScopedSpan / ChargeCost) instead of taking a Trace
/// parameter.
Trace* CurrentTrace();

/// Trace id of the active trace, 0 when tracing is off. This is what the
/// wire layer stamps into outgoing frame headers.
uint64_t CurrentTraceId();

/// Installs `trace` as the thread's active trace for the scope's lifetime
/// and restores the previous one (traces may nest) on destruction.
class ScopedTraceActivation {
 public:
  explicit ScopedTraceActivation(Trace* trace);
  ~ScopedTraceActivation();

  ScopedTraceActivation(const ScopedTraceActivation&) = delete;
  ScopedTraceActivation& operator=(const ScopedTraceActivation&) = delete;

 private:
  Trace* previous_;
};

/// RAII span against the thread's active trace; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : trace_(CurrentTrace()) {
    if (trace_ != nullptr) id_ = trace_->StartSpan(name);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  uint32_t id_ = 0;
};

/// Adds `n` to one field of the active trace's cost record; no-op (one
/// branch) when tracing is off.
inline void ChargeCost(uint64_t QueryCost::*field, uint64_t n = 1) {
  Trace* trace = CurrentTrace();
  if (trace != nullptr) trace->cost().*field += n;
}

}  // namespace mope::obs

#endif  // MOPE_OBS_TRACE_H_
