#include "engine/server.h"

#include <array>

namespace mope::engine {

DbServer::DbServer()
    : catalog_(std::make_unique<Catalog>()),
      metrics_(std::make_unique<obs::MetricsRegistry>()),
      batches_received_(metrics_->GetCounter("engine.batches_received")),
      ranges_received_(metrics_->GetCounter("engine.ranges_received")),
      segments_scanned_(metrics_->GetCounter("engine.segments_scanned")),
      entries_visited_(metrics_->GetCounter("engine.entries_visited")),
      index_nodes_visited_(metrics_->GetCounter("engine.index_nodes_visited")),
      rows_returned_(metrics_->GetCounter("engine.rows_returned")),
      bytes_received_(metrics_->GetCounter("engine.bytes_received")),
      bytes_sent_(metrics_->GetCounter("engine.bytes_sent")),
      batch_ranges_hist_(metrics_->GetHistogram("engine.batch_ranges")) {}

ServerStats DbServer::stats() const {
  ServerStats s;
  s.batches_received = batches_received_->Value();
  s.ranges_received = ranges_received_->Value();
  s.segments_scanned = segments_scanned_->Value();
  s.entries_visited = entries_visited_->Value();
  s.index_nodes_visited = index_nodes_visited_->Value();
  s.rows_returned = rows_returned_->Value();
  s.bytes_received = bytes_received_->Value();
  s.bytes_sent = bytes_sent_->Value();
  return s;
}

Status DbServer::OpenStorage(const std::string& data_dir,
                             const DurableCatalog::Options& options) {
  if (durable_ != nullptr) {
    return Status::InvalidArgument("storage is already attached");
  }
  DurableCatalog::Options opts = options;
  if (opts.metrics == nullptr) opts.metrics = metrics_.get();
  MOPE_ASSIGN_OR_RETURN(durable_,
                        DurableCatalog::Open(data_dir, catalog_.get(), opts));
  return Status::OK();
}

Status DbServer::CheckpointStorage() {
  if (durable_ == nullptr) {
    return Status::InvalidArgument("no storage attached");
  }
  return durable_->Checkpoint();
}

Status DbServer::SyncStorage() {
  if (durable_ == nullptr) {
    return Status::InvalidArgument("no storage attached");
  }
  return durable_->Sync();
}

Status DbServer::EnableLeakageAudit(const obs::LeakageAuditConfig& config) {
  MOPE_ASSIGN_OR_RETURN(leakage_auditor_,
                        obs::LeakageAuditor::Create(config, metrics_.get()));
  return Status();
}

Result<uint64_t> DbServer::SweepRangeBatch(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges, const RowVisitor& visit,
    obs::QueryCost* cost) {
  MOPE_ASSIGN_OR_RETURN(Table * tbl, catalog_->GetTable(table));
  MOPE_ASSIGN_OR_RETURN(const BPlusTree* index, tbl->GetIndex(column));

  std::vector<Segment> segments;
  segments.reserve(ranges.size());
  for (const ModularInterval& range : ranges) {
    std::array<Segment, 2> parts;
    const int n = range.ToSegments(&parts);
    for (int i = 0; i < n; ++i) segments.push_back(parts[i]);
  }

  batches_received_->Increment();
  ranges_received_->Increment(ranges.size());
  batch_ranges_hist_->Observe(ranges.size());
  if (leakage_auditor_ != nullptr) {
    for (const ModularInterval& range : ranges) {
      leakage_auditor_->ObserveStart(range.start());
    }
    leakage_auditor_->Publish();
  }

  const std::function<void(uint64_t, uint64_t)> on_entry =
      [&visit, tbl](uint64_t, uint64_t rid) {
        if (visit) visit(rid, tbl->row(rid));
      };
  const std::vector<Segment> sweeps = CoalesceSegments(std::move(segments));
  uint64_t count = 0;
  BPlusTree::ScanStats scan_stats;  // accumulates over every sweep
  for (const Segment& seg : sweeps) {
    count += index->ScanRange(seg.lo, seg.hi, on_entry, &scan_stats);
  }
  // Every qualifying row is one index entry, so entries and rows agree.
  segments_scanned_->Increment(sweeps.size());
  entries_visited_->Increment(count);
  index_nodes_visited_->Increment(scan_stats.nodes_visited);
  rows_returned_->Increment(count);
  if (cost != nullptr) {
    cost->srv_batches_received += 1;
    cost->srv_segments_scanned += sweeps.size();
    cost->srv_entries_visited += count;
    cost->srv_index_nodes_visited += scan_stats.nodes_visited;
    cost->srv_rows_returned += count;
  }
  return count;
}

Result<std::vector<std::pair<RowId, Row>>> DbServer::ExecuteRangeBatchWithIds(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges, obs::QueryCost* cost) {
  std::vector<std::pair<RowId, Row>> rows;
  MOPE_RETURN_NOT_OK(SweepRangeBatch(table, column, ranges,
                                     [&rows](RowId rid, const Row& row) {
                                       rows.emplace_back(rid, row);
                                     },
                                     cost)
                         .status());
  return rows;
}

Result<uint64_t> DbServer::CountRangeBatch(
    const std::string& table, const std::string& column,
    const std::vector<ModularInterval>& ranges, obs::QueryCost* cost) {
  return SweepRangeBatch(table, column, ranges, nullptr, cost);
}

Result<std::vector<Row>> DbServer::ExecutePlan(Operator* plan) {
  MOPE_ASSIGN_OR_RETURN(std::vector<Row> rows, Collect(plan));
  batches_received_->Increment();
  rows_returned_->Increment(rows.size());
  // Profiled plans contribute per-operator-type latency/row distributions
  // to this server's /metrics; unprofiled ones skip out immediately.
  FoldOpStatsIntoRegistry(plan, metrics_.get());
  return rows;
}

}  // namespace mope::engine
