#include "engine/server.h"

#include <gtest/gtest.h>

namespace mope::engine {
namespace {

/// A server with one table "data"(key int, tag string), keys 0..99, indexed.
DbServer MakeServer() {
  DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt},
                      Column{"tag", ValueType::kString}}));
  EXPECT_TRUE(table.ok());
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE((*table)->Insert({k, std::string("row")}).ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("key").ok());
  return server;
}

TEST(DbServerTest, SimpleRangeBatch) {
  DbServer server = MakeServer();
  auto rows = server.ExecuteRangeBatchWithIds("data", "key",
                                              {ModularInterval(10, 5, 100)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(server.stats().batches_received, 1u);
  EXPECT_EQ(server.stats().ranges_received, 1u);
  EXPECT_EQ(server.stats().rows_returned, 5u);
}

TEST(DbServerTest, WrapAroundRange) {
  DbServer server = MakeServer();
  // {95..99, 0..4}: the MOPE wrap-around dummy-query shape.
  auto rows = server.ExecuteRangeBatchWithIds("data", "key",
                                              {ModularInterval(95, 10, 100)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
}

TEST(DbServerTest, MultiRangeSharedSweepDeduplicates) {
  DbServer server = MakeServer();
  // Two overlapping ranges answered in one coalesced sweep.
  auto rows = server.ExecuteRangeBatchWithIds(
      "data", "key",
      {ModularInterval(10, 20, 100), ModularInterval(20, 20, 100)});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 30u);  // 10..39 once
  EXPECT_EQ(server.stats().segments_scanned, 1u);
  EXPECT_EQ(server.stats().ranges_received, 2u);
}

TEST(DbServerTest, BatchOfDisjointRanges) {
  DbServer server = MakeServer();
  std::vector<ModularInterval> ranges;
  for (uint64_t s = 0; s < 100; s += 20) {
    ranges.push_back(ModularInterval(s, 5, 100));
  }
  auto rows = server.ExecuteRangeBatchWithIds("data", "key", ranges);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 25u);
  EXPECT_EQ(server.stats().segments_scanned, 5u);
}

TEST(DbServerTest, WithIdsReturnsStableRowIds) {
  DbServer server = MakeServer();
  auto rows = server.ExecuteRangeBatchWithIds("data", "key",
                                              {ModularInterval(7, 3, 100)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  for (const auto& [rid, row] : *rows) {
    EXPECT_EQ(static_cast<int64_t>(rid), std::get<int64_t>(row[0]));
  }
}

TEST(DbServerTest, UnknownTableOrColumn) {
  DbServer server = MakeServer();
  EXPECT_TRUE(
      server.ExecuteRangeBatchWithIds("nope", "key", {}).status().IsNotFound());
  EXPECT_TRUE(
      server.ExecuteRangeBatchWithIds("data", "tag", {}).status().IsNotFound());
}

TEST(DbServerTest, CountRangeBatchMatchesExecute) {
  DbServer server = MakeServer();
  auto count = server.CountRangeBatch(
      "data", "key", {ModularInterval(90, 15, 100)});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 15u);
}

TEST(DbServerTest, StatsAccumulateAndReset) {
  DbServer server = MakeServer();
  ASSERT_TRUE(server
                  .ExecuteRangeBatchWithIds("data", "key",
                                            {ModularInterval(0, 10, 100)})
                  .ok());
  ASSERT_TRUE(server
                  .ExecuteRangeBatchWithIds("data", "key",
                                            {ModularInterval(5, 10, 100)})
                  .ok());
  EXPECT_EQ(server.stats().batches_received, 2u);
  EXPECT_EQ(server.stats().rows_returned, 20u);
  server.ResetStats();
  EXPECT_EQ(server.stats().batches_received, 0u);
}

TEST(DbServerTest, EmptyBatchIsValid) {
  DbServer server = MakeServer();
  auto rows = server.ExecuteRangeBatchWithIds("data", "key", {});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

// A range whose (client-supplied) interval domain exceeds the audit space
// can carry a start point past it. With --audit on that used to CHECK-abort
// the daemon — the auditor must skip and count such starts instead.
TEST(DbServerTest, AuditSurvivesStartsBeyondAuditSpace) {
  DbServer server = MakeServer();
  obs::LeakageAuditConfig config;
  config.space = 100;
  config.buckets = 8;
  config.window = 16;
  ASSERT_TRUE(server.EnableLeakageAudit(config).ok());

  // Interval domain 1000 >> audit space 100, start 500 >= space.
  auto rows = server.ExecuteRangeBatchWithIds("data", "key",
                                              {ModularInterval(500, 5, 1000),
                                               ModularInterval(10, 5, 100)});
  ASSERT_TRUE(rows.ok());

  uint64_t out_of_space = 0, observations = 0;
  for (const auto& [name, value] : server.metrics()->Snapshot()) {
    if (name == obs::LeakageAuditor::kGaugeOutOfSpace) out_of_space = value;
    if (name == obs::LeakageAuditor::kGaugeObservations) observations = value;
  }
  EXPECT_EQ(out_of_space, 1u);
  EXPECT_EQ(observations, 1u);  // the in-space range still feeds the audit
}

}  // namespace
}  // namespace mope::engine
