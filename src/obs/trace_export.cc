#include "obs/trace_export.h"

#include <cstdio>
#include <sstream>
#include <vector>

namespace mope::obs {

namespace {

/// JSON string escaping for the small charset that can appear in trace and
/// span names (they are C string literals in practice, but the format must
/// stay valid for anything).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ExportChromeTrace(const Trace& trace, int pid, int tid) {
  const std::vector<Span> spans = trace.spans();

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Track metadata: name the (pid, tid) lane after the trace.
  out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
      << JsonEscape(trace.name()) << "\"}}";

  // Spans as complete events; ts/dur in integer microseconds (the format's
  // native unit). An open span (end_ns == 0) exports with dur 0 — visible
  // as an instant at its start rather than silently dropped.
  uint64_t last_end_us = 0;
  for (const Span& span : spans) {
    const uint64_t ts_us = span.start_ns / 1000;
    const uint64_t end_us = span.end_ns / 1000;
    const uint64_t dur_us = end_us > ts_us ? end_us - ts_us : 0;
    if (end_us > last_end_us) last_end_us = end_us;
    out << ",{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"" << JsonEscape(span.name) << "\",\"ts\":" << ts_us
        << ",\"dur\":" << dur_us << "}";
  }

  // Cost fields as one final sample each, so the viewer's counter track
  // shows the query's totals at the point it finished.
  for (const QueryCostField& field : kQueryCostFields) {
    out << ",{\"ph\":\"C\",\"pid\":" << pid << ",\"name\":\""
        << field.name << "\",\"ts\":" << last_end_us
        << ",\"args\":{\"value\":" << trace.cost().*field.member << "}}";
  }

  // The trace id rides along so an exported file can be joined against the
  // structured log line (`trace=<id>`) that pointed at it.
  out << "],\"otherData\":{\"trace_id\":\"" << trace.trace_id() << "\"}}";
  return out.str();
}

}  // namespace mope::obs
