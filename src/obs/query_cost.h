#ifndef MOPE_OBS_QUERY_COST_H_
#define MOPE_OBS_QUERY_COST_H_

/// \file query_cost.h
/// One query's cost record: what it cost on each side of the trust
/// boundary, as fixed fields.
///
/// The active obs::Trace holds one QueryCost. The proxy side fills the
/// client half (OPE calls and HGD draws, retries, wire frames and bytes)
/// through ChargeCost (obs/trace.h). The server half is what
/// engine::DbServer::SweepRangeBatch computed for the query's own batches:
/// over the wire the dispatcher returns it in the frame's profile section
/// (net/wire.h) and RemoteConnection merges it; in process DirectConnection
/// adds it directly. Either way the record is field-identical except
/// `net.*`, which only a wire path pays.
///
/// kQueryCostFields is the one description of the record. Merging,
/// Trace::RenderTree, ExportChromeTrace, the EXPLAIN ANALYZE resource lines
/// and the wire profile section all walk it, in its order.

#include <array>
#include <cstdint>

namespace mope::obs {

struct QueryCost {
  // Client half.
  uint64_t ope_encrypt_calls = 0;
  uint64_t ope_decrypt_calls = 0;
  uint64_t ope_hgd_draws = 0;
  uint64_t proxy_retries = 0;
  uint64_t net_retries = 0;
  uint64_t net_frames = 0;
  uint64_t net_frame_bytes_sent = 0;
  uint64_t net_frame_bytes_received = 0;
  // Server half.
  uint64_t srv_batches_received = 0;
  uint64_t srv_segments_scanned = 0;
  uint64_t srv_entries_visited = 0;
  uint64_t srv_index_nodes_visited = 0;
  uint64_t srv_rows_returned = 0;
  /// The trace the server attributed its half to (an id, not a count).
  uint64_t trace_id = 0;

  /// Adds every count of `other`; a non-zero trace id overwrites.
  void Merge(const QueryCost& other);

  bool operator==(const QueryCost&) const = default;
};

/// Which side of the trust boundary fills a field.
enum class CostHalf : uint8_t { kClient, kServer, kId };

struct QueryCostField {
  const char* name;
  uint64_t QueryCost::*member;
  CostHalf half;
};

inline constexpr std::array<QueryCostField, 14> kQueryCostFields = {{
    {"ope.encrypt_calls", &QueryCost::ope_encrypt_calls, CostHalf::kClient},
    {"ope.decrypt_calls", &QueryCost::ope_decrypt_calls, CostHalf::kClient},
    {"ope.hgd_draws", &QueryCost::ope_hgd_draws, CostHalf::kClient},
    {"proxy.retries", &QueryCost::proxy_retries, CostHalf::kClient},
    {"net.retries", &QueryCost::net_retries, CostHalf::kClient},
    {"net.frames", &QueryCost::net_frames, CostHalf::kClient},
    {"net.frame_bytes_sent", &QueryCost::net_frame_bytes_sent,
     CostHalf::kClient},
    {"net.frame_bytes_received", &QueryCost::net_frame_bytes_received,
     CostHalf::kClient},
    {"srv.engine.batches_received", &QueryCost::srv_batches_received,
     CostHalf::kServer},
    {"srv.engine.segments_scanned", &QueryCost::srv_segments_scanned,
     CostHalf::kServer},
    {"srv.engine.entries_visited", &QueryCost::srv_entries_visited,
     CostHalf::kServer},
    {"srv.engine.index_nodes_visited", &QueryCost::srv_index_nodes_visited,
     CostHalf::kServer},
    {"srv.engine.rows_returned", &QueryCost::srv_rows_returned,
     CostHalf::kServer},
    {"profile.trace_id", &QueryCost::trace_id, CostHalf::kId},
}};

inline void QueryCost::Merge(const QueryCost& other) {
  for (const QueryCostField& field : kQueryCostFields) {
    if (field.half != CostHalf::kId) {
      this->*field.member += other.*field.member;
    } else if (other.*field.member != 0) {
      this->*field.member = other.*field.member;
    }
  }
}

}  // namespace mope::obs

#endif  // MOPE_OBS_QUERY_COST_H_
