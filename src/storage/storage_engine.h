#ifndef MOPE_STORAGE_STORAGE_ENGINE_H_
#define MOPE_STORAGE_STORAGE_ENGINE_H_

/// \file storage_engine.h
/// The storage subsystem's front door: owns the data directory (page file,
/// WAL, meta), runs page-level redo at open, and implements the checkpoint
/// protocol.
///
/// Data directory layout:
///   pages.db       page file (DiskManager)
///   wal.log        write-ahead log (Wal)
///   storage.meta   checkpoint metadata, replaced atomically:
///                  magic "MOPEMET2", u64 checkpoint_lsn, u64 next_lsn,
///                  u64 page_count, u64 blob_len, blob, u32 CRC-32 of all
///                  preceding bytes. The blob is the engine's serialized
///                  durable catalog (table schemas, heap head page ids,
///                  indexed columns) — opaque at this layer. A meta with
///                  any other magic, such as an older layout's, fails
///                  Open with Corruption.
///
/// Open = recovery. Read the meta (if any), replay every WAL record with
/// LSN > checkpoint_lsn against the page file (images verbatim, heap
/// records through the same heap_page primitives the forward path uses,
/// each guarded by the page's LSN), sync, and hand the recovered kCatalog
/// records to the engine. If anything was replayed the run is flagged
/// crash_recovered(), and the engine checkpoints to retire the replayed
/// log. Only heap pages live in the page file: the engine derives every
/// index from the recovered rows, after a crash and a clean shutdown alike.
///
/// Checkpoint protocol (the order is the correctness argument):
///   1. WAL Sync        — every logged record is durable.
///   2. Pool FlushAll   — every dirty page reaches the page file.
///   3. Disk Sync       — ... durably.
///   4. Meta write      — atomic rename flips the checkpoint LSN and the
///                        catalog blob in one step.
///   5. WAL Restart     — truncate + fsync; the old records are dead
///                        (and if the truncate is lost to a crash, the
///                        checkpoint LSN filter ignores them anyway).
///   6. New FPW epoch   — next modification of each page logs a new image.
///
/// A crash between any two steps recovers correctly: before 4 the old meta
/// replays the old epoch's records over the old pages; after 4 the new
/// meta sees an empty (or stale-and-filtered) log.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "storage/wal_logger.h"

namespace mope::storage {

struct StorageOptions {
  /// Buffer pool frames (minimum 8: a heap append holds up to two pins, the
  /// tail page and a fresh one, and checkpointing must always find a
  /// victim).
  size_t pool_frames = 256;
  /// WAL group-commit policy: fsync every N records (1 = every record,
  /// 0 = only explicit Sync/Checkpoint).
  uint64_t wal_sync_every = 32;
  /// Defaults to Env::Posix(); tests inject InMemEnv / FaultyEnv.
  Env* env = nullptr;
  /// Defaults to the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Times the fsync / miss-stall latency histograms. Defaults to
  /// SystemClock(); tests inject a ManualClock for deterministic buckets.
  obs::Clock* clock = nullptr;
};

class StorageEngine {
 public:
  /// Opens (creating if needed) the data directory and runs recovery.
  static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& dir, const StorageOptions& options);

  BufferPool* pool() { return pool_.get(); }
  Wal* wal() { return wal_.get(); }
  WalLogger* logger() { return &logger_; }
  DiskManager* disk() { return disk_.get(); }
  Env* env() { return env_; }

  /// The catalog blob from the last checkpoint (empty for a fresh dir).
  const std::string& catalog_blob() const { return catalog_blob_; }

  /// kCatalog records recovered from the WAL, in LSN order, for the engine
  /// to replay on top of catalog_blob(). Emptied by the call.
  std::vector<WalRecord> TakeCatalogRecords() {
    return std::move(catalog_records_);
  }

  /// True when Open replayed any WAL record (a crash, not a clean
  /// shutdown). The engine checkpoints after its recovery to retire the
  /// replayed log; operators see the flag on /statusz.
  bool crash_recovered() const { return crash_recovered_; }

  /// Number of WAL records redone at Open (for logs/metrics).
  uint64_t recovered_records() const { return recovered_records_; }

  /// Runs the checkpoint protocol, persisting `catalog_blob` as the new
  /// durable catalog state.
  Status Checkpoint(std::string_view catalog_blob);

  /// Group-commit flush point: makes everything logged so far durable
  /// without the full checkpoint.
  Status Sync() { return wal_->Sync(); }

 private:
  StorageEngine(Env* env, std::string dir,
                std::unique_ptr<DiskManager> disk, std::unique_ptr<Wal> wal,
                const StorageOptions& options);

  static Status RedoRecords(DiskManager* disk,
                            const std::vector<WalRecord>& records,
                            std::vector<WalRecord>* catalog_records);

  Env* const env_;
  const std::string dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<Wal> wal_;
  WalLogger logger_;
  std::unique_ptr<BufferPool> pool_;

  std::string catalog_blob_;
  std::vector<WalRecord> catalog_records_;
  bool crash_recovered_ = false;
  uint64_t recovered_records_ = 0;

  obs::Counter* recoveries_;
  obs::Counter* recovered_records_counter_;
  obs::Counter* checkpoints_;
};

}  // namespace mope::storage

#endif  // MOPE_STORAGE_STORAGE_ENGINE_H_
