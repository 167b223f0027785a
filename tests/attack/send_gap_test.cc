#include "attack/send_gap.h"

#include <gtest/gtest.h>

#include <vector>

namespace mope::attack {
namespace {

TEST(SendGapTest, LongestGapAfterTheRealRequestIsAHit) {
  // Gaps 10, 50, 10: the longest follows request 1, the real one.
  const std::vector<RequestTimeline> queries = {
      {{0, 10, 60, 70}, {false, true, false, false}}};
  const LongestGapResult result = LongestGapAttack(queries);
  EXPECT_EQ(result.queries, 1u);
  EXPECT_DOUBLE_EQ(result.hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(result.chance, 1.0 / 3.0);
}

TEST(SendGapTest, EvenSpacingPicksTheFirstGap) {
  // Every request leaves at once: the guess is request 0, a hit only when
  // request 0 is real.
  const std::vector<RequestTimeline> queries = {
      {{5, 5, 5}, {true, false, false}}, {{5, 5, 5}, {false, true, false}}};
  const LongestGapResult result = LongestGapAttack(queries);
  EXPECT_EQ(result.queries, 2u);
  EXPECT_DOUBLE_EQ(result.hit_rate, 0.5);
  EXPECT_DOUBLE_EQ(result.chance, 0.5);
}

TEST(SendGapTest, LastRequestHasNoGapAndShortQueriesAreSkipped) {
  // The real request is last, so no gap follows it; a one-request query
  // has no gap at all.
  const std::vector<RequestTimeline> queries = {
      {{0, 1, 100}, {false, false, true}}, {{7}, {true}}, {{}, {}}};
  const LongestGapResult result = LongestGapAttack(queries);
  EXPECT_EQ(result.queries, 1u);
  EXPECT_DOUBLE_EQ(result.hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(result.chance, 0.0);
}

TEST(SendGapTest, NoQueriesScoresZero) {
  const LongestGapResult result = LongestGapAttack({});
  EXPECT_EQ(result.queries, 0u);
  EXPECT_DOUBLE_EQ(result.hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(result.chance, 0.0);
}

}  // namespace
}  // namespace mope::attack
