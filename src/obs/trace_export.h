#ifndef MOPE_OBS_TRACE_EXPORT_H_
#define MOPE_OBS_TRACE_EXPORT_H_

/// \file trace_export.h
/// Chrome trace-event JSON export for Trace span trees, loadable in
/// chrome://tracing and Perfetto (ui.perfetto.dev).
///
/// The emitted document follows the Trace Event Format's "JSON object"
/// flavor: {"displayTimeUnit": "ms", "traceEvents": [...]} where every span
/// becomes one complete ("ph": "X") event with microsecond ts/dur, nesting
/// reconstructed by the viewer from timestamps on a single thread track, a
/// metadata ("ph": "M") event names the track after the trace, and each
/// field of the trace's cost record (obs/query_cost.h, in table order)
/// becomes one counter ("ph": "C") event at the trace's end so the viewer
/// shows final totals.
///
/// Output is deterministic: events are emitted in span-vector order (which
/// is start order), keys in a fixed order, and nothing but the trace's own
/// clock readings enters the document — a ManualClock therefore produces
/// byte-identical files run to run (the golden-file test relies on it).

#include <string>

#include "obs/trace.h"

namespace mope::obs {

/// Renders `trace` as a Chrome trace-event JSON document. `pid`/`tid`
/// identify the process/thread track the events land on (the defaults put
/// everything on one track, which is right for a single query's tree).
std::string ExportChromeTrace(const Trace& trace, int pid = 1, int tid = 1);

}  // namespace mope::obs

#endif  // MOPE_OBS_TRACE_EXPORT_H_
