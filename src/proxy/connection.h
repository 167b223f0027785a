#ifndef MOPE_PROXY_CONNECTION_H_
#define MOPE_PROXY_CONNECTION_H_

/// \file connection.h
/// The proxy's view of the database server.
///
/// In the paper's deployment the server is a remote, unmodified DBMS; the
/// proxy only needs two capabilities from it: execute batches of range
/// predicates over an indexed column, and describe a table. Abstracting
/// them behind ServerConnection lets tests inject transient failures (a
/// real network does fail) and makes the proxy location-transparent: the
/// wire protocol lives behind net::RemoteConnection (src/net/), which slots
/// in here without touching the proxy logic.

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "engine/server.h"
#include "engine/table.h"
#include "obs/trace.h"

namespace mope::proxy {

/// One range batch's rows, each with its stable row id.
using BatchRows = std::vector<std::pair<engine::RowId, engine::Row>>;

/// Receives one batch's rows; it may move rows out. A non-OK status stops
/// the call that is visiting.
using BatchVisitor = std::function<Status(BatchRows& rows)>;

/// How far ExecuteRangeBatches got: the first `completed` batches were
/// visited, then `status` stopped it. `status` is OK iff every batch was.
struct BatchesResult {
  size_t completed = 0;
  Status status;
};

class ServerConnection {
 public:
  virtual ~ServerConnection() = default;

  /// Executes a batch of (possibly wrapping) ciphertext ranges against the
  /// index on `column` of `table`; rows come back with stable row ids.
  virtual Result<BatchRows> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) = 0;

  /// Executes every range batch of one query and hands each batch's rows to
  /// `visit`, in batch order. An implementation may send later batches
  /// before it visits earlier ones (RemoteConnection pipelines them), so
  /// the visitor must not decide what is sent. The default runs one
  /// ExecuteRangeBatch per batch.
  virtual BatchesResult ExecuteRangeBatches(
      const std::string& table, const std::string& column,
      std::span<const std::vector<ModularInterval>> batches,
      const BatchVisitor& visit) {
    BatchesResult result;
    for (const std::vector<ModularInterval>& ranges : batches) {
      auto rows = ExecuteRangeBatch(table, column, ranges);
      result.status = rows.ok() ? visit(*rows) : rows.status();
      if (!result.status.ok()) break;
      ++result.completed;
    }
    return result;
  }

  /// Schema of a server table (catalog lookup).
  virtual Result<engine::Schema> GetSchema(const std::string& table) = 0;

  /// Number of rows the batch would return, without shipping them. The
  /// default fetches and counts; connections with a cheaper path (the wire
  /// protocol's count-only message, DbServer::CountRangeBatch) override it.
  virtual Result<uint64_t> CountRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) {
    MOPE_ASSIGN_OR_RETURN(auto rows, ExecuteRangeBatch(table, column, ranges));
    return static_cast<uint64_t>(rows.size());
  }

  /// The server's metrics snapshot (sorted name/value pairs, histogram
  /// buckets flattened): the live stats endpoint. Connections to servers
  /// that expose one override this; the default reports NotSupported.
  virtual Result<std::vector<std::pair<std::string, uint64_t>>>
  FetchServerStats() {
    return Status::NotSupported("this connection has no stats endpoint");
  }
};

/// In-process connection to an embedded DbServer.
///
/// Cost parity with the wire path: when the active trace asked for the
/// server's cost (EXPLAIN ANALYZE), each data-bearing call adds the sweep's
/// own counts to the trace's record and stamps it with the trace id, which
/// is what RemoteConnection merges from a reply's profile section. So an
/// embedded query's record is field-identical to one collected across TCP.
class DirectConnection final : public ServerConnection {
 public:
  explicit DirectConnection(engine::DbServer* server) : server_(server) {}

  Result<BatchRows> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    return server_->ExecuteRangeBatchWithIds(table, column, ranges,
                                             RequestedServerCost());
  }

  Result<engine::Schema> GetSchema(const std::string& table) override {
    MOPE_ASSIGN_OR_RETURN(const engine::Table* tbl,
                          static_cast<const engine::DbServer*>(server_)
                              ->catalog()
                              .GetTable(table));
    return tbl->schema();
  }

  Result<uint64_t> CountRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    return server_->CountRangeBatch(table, column, ranges,
                                    RequestedServerCost());
  }

  Result<std::vector<std::pair<std::string, uint64_t>>> FetchServerStats()
      override {
    return server_->metrics()->Snapshot();
  }

 private:
  /// The active trace's cost record, stamped with its id, when the trace
  /// asked for the server's cost; nullptr otherwise.
  static obs::QueryCost* RequestedServerCost() {
    obs::Trace* trace = obs::CurrentTrace();
    if (trace == nullptr || !trace->server_cost_requested()) return nullptr;
    trace->cost().trace_id = trace->trace_id();
    return &trace->cost();
  }

  engine::DbServer* server_;
};

}  // namespace mope::proxy

#endif  // MOPE_PROXY_CONNECTION_H_
