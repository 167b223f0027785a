#include "attack/send_gap.h"

#include "common/status.h"

namespace mope::attack {

LongestGapResult LongestGapAttack(const std::vector<RequestTimeline>& queries) {
  LongestGapResult result;
  uint64_t hits = 0;
  double chance_sum = 0;
  for (const RequestTimeline& query : queries) {
    MOPE_CHECK(query.send_ns.size() == query.real.size(),
               "one label per request");
    const size_t gaps = query.send_ns.size() < 2 ? 0 : query.send_ns.size() - 1;
    if (gaps == 0) continue;
    size_t longest = 0;
    uint64_t real_gaps = 0;
    for (size_t i = 0; i < gaps; ++i) {
      if (query.send_ns[i + 1] - query.send_ns[i] >
          query.send_ns[longest + 1] - query.send_ns[longest]) {
        longest = i;
      }
      if (query.real[i]) ++real_gaps;
    }
    ++result.queries;
    if (query.real[longest]) ++hits;
    chance_sum += static_cast<double>(real_gaps) / static_cast<double>(gaps);
  }
  if (result.queries > 0) {
    result.hit_rate =
        static_cast<double>(hits) / static_cast<double>(result.queries);
    result.chance = chance_sum / static_cast<double>(result.queries);
  }
  return result;
}

}  // namespace mope::attack
