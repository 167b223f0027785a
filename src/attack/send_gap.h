#ifndef MOPE_ATTACK_SEND_GAP_H_
#define MOPE_ATTACK_SEND_GAP_H_

/// \file send_gap.h
/// The longest-gap timing adversary.
///
/// The server sees when each of a query's requests arrives. If the proxy
/// does extra work after a reply that held rows of the client's range (a
/// decryption, a move into the answer) before it sends the next request,
/// the gap after the request that carried the real query is longer than
/// the rest. This adversary guesses, for each query, that the request
/// before the longest gap carried the real query, and reports how often
/// that guess is right against the rate a guess that ignores timing gets.
/// It needs only arrival times; the labels are for scoring.

#include <cstdint>
#include <vector>

namespace mope::attack {

/// One query's requests in send order, as the server saw them.
struct RequestTimeline {
  std::vector<uint64_t> send_ns;  ///< When each request was sent.
  /// Whether each request carried the real query: its ranges overlap the
  /// client's range, so its reply holds rows the proxy keeps.
  std::vector<bool> real;
};

struct LongestGapResult {
  uint64_t queries = 0;  ///< Queries with at least one gap.
  /// Share of those queries whose longest gap follows a real request (the
  /// first longest gap, on ties).
  double hit_rate = 0;
  /// The same share for a guess that ignores timing: per query, the share
  /// of gaps that follow a real request, averaged over queries.
  double chance = 0;
};

/// Scores the adversary over `queries`. Queries with fewer than two
/// requests have no gap and are skipped. Precondition: each timeline's
/// `send_ns` is non-decreasing and as long as its `real`.
LongestGapResult LongestGapAttack(const std::vector<RequestTimeline>& queries);

}  // namespace mope::attack

#endif  // MOPE_ATTACK_SEND_GAP_H_
