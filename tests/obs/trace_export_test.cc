#include "obs/trace_export.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/clock.h"
#include "obs/trace.h"

namespace mope::obs {
namespace {

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(MOPE_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The exporter's output is a wire format consumed by an external tool
// (chrome://tracing / Perfetto), so its exact bytes are contract: a golden
// file catches accidental format drift that structural asserts would miss.
// The trace is driven by a ManualClock, so the bytes are fully determined.
TEST(TraceExportTest, ChromeTraceMatchesGoldenFile) {
  ManualClock clock(0, 1000);  // every clock read is 1us after the previous
  // Forced trace id: the golden bytes must not depend on how many traces
  // other tests created before this one.
  Trace trace("q:0 sales.day [3,17]", &clock, /*forced_id=*/9000);
  const uint32_t outer = trace.StartSpan("proxy.query");
  const uint32_t inner = trace.StartSpan("net.roundtrip");
  trace.cost().srv_rows_returned = 42;
  trace.cost().proxy_retries = 7;
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  trace.StartSpan("abandoned");  // left open: must export with dur 0

  EXPECT_EQ(ExportChromeTrace(trace),
            ReadGolden("trace_export_golden.json"));
}

TEST(TraceExportTest, EscapesControlAndQuoteCharacters) {
  ManualClock clock(0, 1000);
  Trace trace("tab\there \"quoted\"\n", &clock);
  const uint32_t span = trace.StartSpan("back\\slash");
  trace.EndSpan(span);
  const std::string json = ExportChromeTrace(trace);
  EXPECT_NE(json.find("tab\\there \\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single-line JSON
}

TEST(TraceExportTest, EmptyTraceIsStillValidJson) {
  ManualClock clock(0, 1000);
  Trace trace("empty", &clock);
  const std::string json = ExportChromeTrace(trace);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("],\"otherData\":{\"trace_id\":\""),
            std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace mope::obs
