/// QueryCost semantics: one field table with unique names, counts that
/// accumulate across a query's requests, a trace id that overwrites, the
/// wire profile section round trip (unknown names dropped), and trace
/// activation being per-thread, which is what keeps one thread's record
/// out of another's query.

#include "obs/query_cost.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "net/wire.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace mope::obs {
namespace {

TEST(QueryCostTest, FieldNamesAreUnique) {
  std::set<std::string> names;
  for (const QueryCostField& field : kQueryCostFields) {
    EXPECT_TRUE(names.insert(field.name).second) << field.name;
  }
  EXPECT_EQ(names.size(), kQueryCostFields.size());
}

TEST(QueryCostTest, ValuesAccumulate) {
  QueryCost total;
  QueryCost request;
  request.srv_rows_returned = 10;
  request.net_frames = 1;
  total.Merge(request);
  request.srv_rows_returned = 5;
  total.Merge(request);
  EXPECT_EQ(total.srv_rows_returned, 15u);
  EXPECT_EQ(total.net_frames, 2u);
  EXPECT_EQ(total.srv_segments_scanned, 0u);
}

TEST(QueryCostTest, TraceIdOverwrites) {
  QueryCost total;
  QueryCost request;
  request.trace_id = 7;
  total.Merge(request);
  request.trace_id = 9;
  total.Merge(request);
  // Ids are identities, not counts: a multi-request query ends with one
  // trace id, not their sum, and a record without one keeps the last.
  EXPECT_EQ(total.trace_id, 9u);
  total.Merge(QueryCost{});
  EXPECT_EQ(total.trace_id, 9u);
}

TEST(QueryCostTest, ProfileSectionRoundTripsTheServerHalf) {
  QueryCost cost;
  uint64_t value = 1;
  for (const QueryCostField& field : kQueryCostFields) {
    cost.*field.member = value++;
  }
  auto decoded = net::DecodeProfileSection(net::EncodeProfileSection(cost));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  for (const QueryCostField& field : kQueryCostFields) {
    // The client half never travels: the section carries what the server
    // computed and the trace it belongs to.
    const uint64_t want =
        field.half == CostHalf::kClient ? 0 : cost.*field.member;
    EXPECT_EQ((*decoded).*field.member, want) << field.name;
  }
}

TEST(QueryCostTest, UnknownNamesAreIgnored) {
  const std::string section = net::EncodeStatsReply({
      {"srv.engine.rows_returned", 3},
      {"srv.storage.pool.misses", 99},  // an older server's extra field
      {"net.frames", 1000},             // client half: not the server's
      {"bogus\n  srv.engine.batches_received=0", 5},
      {"profile.trace_id", 42},
      {"srv.engine.rows_returned", 4},  // repeated count adds
  });
  auto decoded = net::DecodeProfileSection(section);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  QueryCost want;
  want.srv_rows_returned = 7;
  want.trace_id = 42;
  EXPECT_EQ(*decoded, want);
  EXPECT_TRUE(net::DecodeProfileSection("\x01").status().IsCorruption());
}

TEST(TraceActivationTest, ActivationIsPerThread) {
  ManualClock clock(0, 1);
  Trace trace("q", &clock);
  const ScopedTraceActivation scope(&trace);
  Trace* seen = &trace;
  // Another thread must not observe this thread's trace: a concurrent
  // untraced query can't leak cost into someone's EXPLAIN ANALYZE.
  std::thread([&seen] {
    seen = CurrentTrace();
    ChargeCost(&QueryCost::ope_encrypt_calls);
  }).join();
  EXPECT_EQ(seen, nullptr);
  EXPECT_EQ(trace.cost().ope_encrypt_calls, 0u);
}

}  // namespace
}  // namespace mope::obs
