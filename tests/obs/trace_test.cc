#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.h"

namespace mope::obs {
namespace {

TEST(TraceTest, SpansNestByCallStructure) {
  ManualClock clock(0, 10);
  Trace trace("q", &clock);
  const uint32_t outer = trace.StartSpan("outer");
  const uint32_t inner = trace.StartSpan("inner");
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  const uint32_t sibling = trace.StartSpan("sibling");
  trace.EndSpan(sibling);

  const std::vector<Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);  // root
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, 0u);  // outer closed before it started
  EXPECT_TRUE(trace.TimingsMonotone());
}

TEST(TraceTest, ManualClockTimingsAreExact) {
  // auto_advance=10: every clock read is 10ns after the previous one, so
  // durations are fully determined by the number of reads in between.
  ManualClock clock(100, 10);
  Trace trace("q", &clock);
  const uint32_t a = trace.StartSpan("a");  // start 110
  const uint32_t b = trace.StartSpan("b");  // start 120
  trace.EndSpan(b);                         // end 130
  trace.EndSpan(a);                         // end 140
  const std::vector<Span> spans = trace.spans();
  EXPECT_EQ(spans[0].start_ns, 110u);
  EXPECT_EQ(spans[0].end_ns, 140u);
  EXPECT_EQ(spans[1].start_ns, 120u);
  EXPECT_EQ(spans[1].end_ns, 130u);
}

TEST(TraceTest, CountSpansMatchesExactNames) {
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  for (int i = 0; i < 3; ++i) {
    const uint32_t id = trace.StartSpan("net.roundtrip");
    trace.EndSpan(id);
  }
  const uint32_t other = trace.StartSpan("net.roundtrip.extra");
  trace.EndSpan(other);
  EXPECT_EQ(trace.CountSpans("net.roundtrip"), 3u);
  EXPECT_EQ(trace.CountSpans("net.roundtrip.extra"), 1u);
  EXPECT_EQ(trace.CountSpans("absent"), 0u);
}

TEST(TraceTest, CountersAccumulate) {
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  const ScopedTraceActivation activate(&trace);
  ChargeCost(&QueryCost::ope_hgd_draws, 5);
  ChargeCost(&QueryCost::ope_hgd_draws);
  ChargeCost(&QueryCost::net_retries, 2);
  EXPECT_EQ(trace.cost().ope_hgd_draws, 6u);
  EXPECT_EQ(trace.cost().net_retries, 2u);
}

TEST(TraceTest, TraceIdsAreUniqueAndIncreasing) {
  ManualClock clock(0, 1);
  Trace first("a", &clock);
  Trace second("b", &clock);
  EXPECT_GT(first.trace_id(), 0u);
  EXPECT_GT(second.trace_id(), first.trace_id());
}

TEST(TraceTest, RenderTreeShowsNestingAndCounters) {
  ManualClock clock(0, 1000);  // 1us per clock read — durations land on .000
  Trace trace("sql.execute", &clock);
  const uint32_t outer = trace.StartSpan("parse");
  const uint32_t inner = trace.StartSpan("lex");
  trace.EndSpan(inner);
  trace.EndSpan(outer);
  trace.cost().ope_encrypt_calls = 7;

  const std::string tree = trace.RenderTree();
  EXPECT_NE(tree.find("\"sql.execute\"\n"), std::string::npos);
  EXPECT_NE(tree.find("  parse  3.000us\n"), std::string::npos);
  EXPECT_NE(tree.find("    lex  1.000us\n"), std::string::npos);  // indented
  EXPECT_NE(tree.find("  #ope.encrypt_calls = 7\n"), std::string::npos);
}

TEST(TraceActivationTest, CurrentTraceFollowsScopes) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  EXPECT_EQ(CurrentTraceId(), 0u);
  ManualClock clock(0, 1);
  Trace outer("outer", &clock);
  {
    ScopedTraceActivation activate_outer(&outer);
    EXPECT_EQ(CurrentTrace(), &outer);
    EXPECT_EQ(CurrentTraceId(), outer.trace_id());
    {
      // Traces nest: the inner activation wins, then the outer is restored.
      Trace inner("inner", &clock);
      ScopedTraceActivation activate_inner(&inner);
      EXPECT_EQ(CurrentTrace(), &inner);
      EXPECT_EQ(CurrentTraceId(), inner.trace_id());
    }
    EXPECT_EQ(CurrentTrace(), &outer);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceActivationTest, ScopedSpanAndBumpAreNoOpsWhenOff) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  {
    ScopedSpan span("orphan");  // must not crash or record anywhere
    ChargeCost(&QueryCost::net_frames, 3);
  }
  // And with a trace active, the same code records against it.
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  {
    ScopedTraceActivation activate(&trace);
    ScopedSpan span("work");
    ChargeCost(&QueryCost::net_frames, 2);
  }
  EXPECT_EQ(trace.CountSpans("work"), 1u);
  EXPECT_EQ(trace.cost().net_frames, 2u);
}

TEST(TraceTest, OutOfOrderEndDoesNotWedgeTheStack) {
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  const uint32_t outer = trace.StartSpan("outer");
  const uint32_t inner = trace.StartSpan("inner");
  trace.EndSpan(outer);  // closes outer (and pops inner from the stack)
  trace.EndSpan(inner);
  const uint32_t next = trace.StartSpan("next");
  trace.EndSpan(next);
  EXPECT_EQ(trace.spans()[2].parent, 0u);  // stack recovered: next is a root
}

}  // namespace
}  // namespace mope::obs
