/// EXPLAIN ANALYZE's measurement layer: the OpStats block every operator
/// fills when profiling is on, the off-path guarantee (no stats traffic at
/// all), per-sweep B+-tree node attribution for multi-range index scans,
/// and the fold into per-operator-type registry histograms.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "engine/table.h"
#include "obs/clock.h"
#include "obs/registry.h"

namespace mope::engine {
namespace {

std::unique_ptr<Table> NumbersTable(int64_t n) {
  auto t = std::make_unique<Table>(
      "numbers", Schema({Column{"v", ValueType::kInt},
                         Column{"d", ValueType::kDouble}}));
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(t->Insert({i, static_cast<double>(i) / 2.0}).ok());
  }
  EXPECT_TRUE(t->CreateIndex("v").ok());
  return t;
}

TEST(OpStatsTest, UnprofiledExecutionLeavesStatsZero) {
  auto t = NumbersTable(20);
  SeqScanOp scan(t.get());
  ASSERT_TRUE(Collect(&scan).ok());
  // Profiling off: the hook is a single branch, so nothing accumulates —
  // not even the free counters (rows_out / next_calls).
  EXPECT_EQ(scan.stats().rows_out, 0u);
  EXPECT_EQ(scan.stats().next_calls, 0u);
  EXPECT_EQ(scan.stats().open_ns, 0u);
  EXPECT_EQ(scan.stats().next_ns, 0u);
}

TEST(OpStatsTest, ProfiledScanCountsRowsCallsAndTime) {
  auto t = NumbersTable(10);
  SeqScanOp scan(t.get());
  obs::ManualClock clock(/*start_ns=*/0, /*auto_advance_ns=*/5);
  ProfileContext ctx;
  ctx.clock = &clock;
  scan.EnableProfiling(&ctx);
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  EXPECT_EQ(scan.stats().rows_out, 10u);
  // One Next() per row plus the final exhausted call.
  EXPECT_EQ(scan.stats().next_calls, 11u);
  // The auto-advancing clock ticks 5ns per read, so each timed interval
  // (two reads) measures exactly 5ns.
  EXPECT_EQ(scan.stats().open_ns, 5u);
  EXPECT_EQ(scan.stats().next_ns, 11u * 5u);
}

TEST(OpStatsTest, TimingsAreInclusiveOfChildren) {
  auto t = NumbersTable(10);
  auto scan = std::make_unique<SeqScanOp>(t.get());
  FilterOp filter(std::move(scan), [](const Row& row) -> Result<bool> {
    return std::get<int64_t>(row[0]) % 2 == 0;
  });
  obs::ManualClock clock(0, 5);
  ProfileContext ctx;
  ctx.clock = &clock;
  filter.EnableProfiling(&ctx);
  auto rows = Collect(&filter);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);

  const OpStats& parent = filter.stats();
  const OpStats& child = filter.children()[0]->stats();
  EXPECT_EQ(parent.rows_out, 5u);
  EXPECT_EQ(child.rows_out, 10u);
  // PostgreSQL-style inclusive accounting: the filter's time covers the
  // scan's time (every child clock read happened inside a parent interval).
  EXPECT_GE(parent.open_ns + parent.next_ns, child.open_ns + child.next_ns);
}

TEST(OpStatsTest, EnableProfilingRecursesAndReExecutionResets) {
  auto t = NumbersTable(8);
  auto scan = std::make_unique<SeqScanOp>(t.get());
  FilterOp filter(std::move(scan), [](const Row&) -> Result<bool> {
    return true;
  });
  obs::ManualClock clock(0, 1);
  ProfileContext ctx;
  ctx.clock = &clock;
  filter.EnableProfiling(&ctx);
  ASSERT_TRUE(Collect(&filter).ok());
  EXPECT_EQ(filter.children()[0]->stats().rows_out, 8u);  // recursed

  // A second profiled run reports that run, not the sum of both.
  ASSERT_TRUE(Collect(&filter).ok());
  EXPECT_EQ(filter.stats().rows_out, 8u);
  EXPECT_EQ(filter.stats().next_calls, 9u);
}

TEST(OpStatsTest, IndexScanAttributesEntriesAndNodes) {
  auto t = NumbersTable(200);
  IndexRangeScanOp scan(t.get(), *t->GetIndex("v"), {{10, 29}});
  obs::ManualClock clock(0, 1);
  ProfileContext ctx;
  ctx.clock = &clock;
  scan.EnableProfiling(&ctx);
  ASSERT_TRUE(Collect(&scan).ok());
  EXPECT_EQ(scan.stats().rows_out, 20u);
  EXPECT_EQ(scan.stats().entries_visited, 20u);
  EXPECT_GT(scan.stats().nodes_visited, 0u);
  EXPECT_EQ(scan.stats().entries_visited, scan.entries_visited());
  EXPECT_EQ(scan.stats().nodes_visited, scan.nodes_visited());
}

TEST(OpStatsTest, EverySweepOfAMultiRangeScanIsAttributed) {
  auto t = NumbersTable(500);
  // Three disjoint segments: three sweeps, each with its own node count.
  IndexRangeScanOp scan(t.get(), *t->GetIndex("v"),
                        {{0, 9}, {200, 249}, {400, 499}});
  ASSERT_TRUE(Collect(&scan).ok());
  ASSERT_EQ(scan.segments_scanned(), 3u);
  const std::vector<uint64_t>& per_sweep = scan.nodes_per_sweep();
  ASSERT_EQ(per_sweep.size(), 3u);
  uint64_t sum = 0;
  for (uint64_t n : per_sweep) {
    EXPECT_GT(n, 0u) << "a sweep contributed no nodes";
    sum += n;
  }
  // The total is the sum over sweeps — not just the first range's nodes.
  EXPECT_EQ(sum, scan.nodes_visited());
  // The 100-key sweep must touch more leaves than the 10-key sweep.
  EXPECT_GT(per_sweep[2], per_sweep[0]);
}

TEST(FoldOpStatsTest, ProfiledTreeFoldsIntoPerTypeHistograms) {
  auto t = NumbersTable(10);
  auto scan = std::make_unique<SeqScanOp>(t.get());
  FilterOp filter(std::move(scan), [](const Row&) -> Result<bool> {
    return true;
  });
  obs::ManualClock clock(0, 1);
  ProfileContext ctx;
  ctx.clock = &clock;
  filter.EnableProfiling(&ctx);
  ASSERT_TRUE(Collect(&filter).ok());

  obs::MetricsRegistry registry;
  FoldOpStatsIntoRegistry(&filter, &registry);
  EXPECT_EQ(registry.GetHistogram("executor.op.Filter.ns")->Count(), 1u);
  EXPECT_EQ(registry.GetHistogram("executor.op.Filter.rows")->Count(), 1u);
  EXPECT_EQ(registry.GetHistogram("executor.op.SeqScan.ns")->Count(), 1u);
}

TEST(FoldOpStatsTest, UnprofiledTreeFoldsNothing) {
  auto t = NumbersTable(10);
  SeqScanOp scan(t.get());
  ASSERT_TRUE(Collect(&scan).ok());
  obs::MetricsRegistry registry;
  FoldOpStatsIntoRegistry(&scan, &registry);
  // All-zero stats are skipped so unprofiled runs can't skew distributions.
  EXPECT_EQ(registry.GetHistogram("executor.op.SeqScan.ns")->Count(), 0u);
}

}  // namespace
}  // namespace mope::engine
