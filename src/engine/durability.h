#ifndef MOPE_ENGINE_DURABILITY_H_
#define MOPE_ENGINE_DURABILITY_H_

/// \file durability.h
/// DurableCatalog: re-homes the in-memory Catalog/Table engine onto the
/// storage subsystem (src/storage/) without changing any caller.
///
/// Architecture — one durable representation, WAL-first:
///
///   - The in-memory Catalog stays the serving path: every query keeps
///     reading the same Table rows and BPlusTree indexes it always did.
///   - Durability rides the hook interfaces (TableDurabilityHooks /
///     CatalogDurabilityHooks): each mutation is logged to the WAL and
///     applied to the heap pages *before* the in-memory apply. Rows live
///     in slotted heap pages (storage::TableHeap); DDL, including each
///     CREATE INDEX, is logged as kCatalog records. Nothing on disk holds
///     an index: an index is a function of the rows, so only the list of
///     indexed columns is durable.
///   - Recovery inverts the flow: page-level WAL redo (done by
///     storage::StorageEngine::Open) makes the heap pages right, then this
///     layer replays DDL records, scans each heap to rebuild the rows and
///     builds every recorded index from them — the same path after a
///     clean shutdown and after a crash. A crash additionally checkpoints
///     to retire the replayed WAL. It costs an index build, never a
///     re-encryption: everything on disk is MOPE ciphertext, so the proxy
///     and its keys are not involved at all.
///
/// Trust boundary: this file lives in src/engine/ — server side. It moves
/// Values that are already ciphertext (or non-sensitive plaintext columns)
/// between memory and pages. Linter rule R8 keeps key material out of here,
/// and R10 keeps all file I/O below the storage::Env seam.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/table.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/storage_engine.h"
#include "storage/table_heap.h"

namespace mope::engine {

class DurableCatalog : public CatalogDurabilityHooks {
 public:
  struct Options {
    size_t pool_frames = 256;
    uint64_t wal_sync_every = 32;
    storage::Env* env = nullptr;            // default: Env::Posix()
    obs::MetricsRegistry* metrics = nullptr;  // default: global registry
    obs::Clock* clock = nullptr;              // default: SystemClock()
  };

  /// Opens `dir` (running recovery), rebuilds `*catalog` from the durable
  /// state and installs the hooks. `catalog` must be empty and must outlive
  /// the returned object; from here on every mutation through it is
  /// persisted.
  static Result<std::unique_ptr<DurableCatalog>> Open(const std::string& dir,
                                                      Catalog* catalog,
                                                      const Options& options);

  ~DurableCatalog() override;

  /// Checkpoints: flushes everything, persists the catalog blob (schemas,
  /// heap heads, indexed columns) and truncates the WAL. Call from the thread
  /// that owns writes (the protocol needs quiescence, which the engine's
  /// existing write serialization provides).
  Status Checkpoint();

  /// Group-commit barrier: everything logged so far becomes durable.
  Status Sync();

  storage::StorageEngine* storage() { return engine_.get(); }

  /// True when the last Open replayed WAL records (crash recovery).
  bool recovered_from_crash() const { return recovered_from_crash_; }

  // CatalogDurabilityHooks:
  Result<TableDurabilityHooks*> OnCreateTable(const std::string& name,
                                              const Schema& schema) override;
  Status OnDropTable(const std::string& name) override;

 private:
  struct TableState;

  DurableCatalog(Catalog* catalog, std::unique_ptr<storage::StorageEngine> e);

  Status Recover();
  Result<std::string> EncodeCatalogBlob() const;

  Catalog* const catalog_;
  std::unique_ptr<storage::StorageEngine> engine_;
  std::map<std::string, std::unique_ptr<TableState>> tables_;
  bool recovered_from_crash_ = false;
};

/// The keyless handoff: writes every table, row and index of `catalog` into
/// a fresh data dir at `dir` through a hooked DurableCatalog (so each row is
/// WAL-logged like any other mutation), then checkpoints. A server that
/// later calls DbServer::OpenStorage(dir) serves the same ciphertext without
/// any key. AlreadyExists, and nothing is copied, when `dir` already holds
/// tables.
Status ExportToDataDir(const Catalog& catalog, const std::string& dir,
                       const DurableCatalog::Options& options = {});

}  // namespace mope::engine

#endif  // MOPE_ENGINE_DURABILITY_H_
