#ifndef MOPE_STORAGE_WAL_H_
#define MOPE_STORAGE_WAL_H_

/// \file wal.h
/// Write-ahead log: append, group fsync, torn-tail-tolerant replay.
///
/// Record framing (little-endian):
///
///   offset  size  field
///        0     4  CRC-32 of everything after this field
///        4     4  payload length
///        8     8  LSN (monotone across the log's lifetime, never reused)
///       16     1  record type (WalRecordType)
///       17     n  payload
///
/// Appends are buffered in user space and pushed to the medium in groups:
/// one write + one fsync per `sync_every` records (group commit). A buffer
/// that reaches kMaxPendingBytes before its fsync is written out early
/// without one, so a deferred policy (large or 0 `sync_every`) holds at
/// most that much in memory; commit points do not move. A record
/// is *committed* once Sync() has covered it; a crash loses at most the
/// un-synced suffix, and replay recovers exactly the committed prefix —
/// ReadAll stops at the first truncated or checksum-bad record, which is
/// what a torn tail looks like.
///
/// Record types: the page-level records (full page image, heap append, heap
/// slot update) are owned by this layer — recovery redoes them without
/// knowing what a table is. kCatalog records are opaque here; the engine
/// encodes its DDL in them (engine/durability.h).
///
/// Idempotence contract: every record's LSN is stamped into the page it
/// touches; redo applies a record only when the page's LSN is older. A
/// checkpoint writes the durable meta *before* truncating the log, so a
/// crash between the two replays stale records — which the LSN guard (and
/// the meta's checkpoint LSN passed to ReadAll) turns into no-ops.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/env.h"

namespace mope::storage {

enum class WalRecordType : uint8_t {
  /// Opaque to storage; the engine's catalog/DDL records.
  kCatalog = 1,
  /// [u64 page_id][u16 slot][u16 len][len bytes] — slot appended to a heap
  /// page.
  kHeapAppend = 2,
  /// Same layout — slot rewritten in place (same or smaller size).
  kHeapUpdate = 3,
  /// [u64 page_id][kPageSize bytes] — full page image, logged on the first
  /// modification of a page in each checkpoint epoch so a torn page can be
  /// rebuilt from its image plus the records after it.
  kPageImage = 4,
  /// [u64 page_id][u64 next_page_id] — heap chain link: `page_id`'s `next`
  /// header field now points at a freshly allocated tail page.
  kHeapLink = 5,
};

struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kCatalog;
  std::string payload;
};

class Wal {
 public:
  /// Buffered bytes past which Append writes them to the file (no fsync).
  static constexpr size_t kMaxPendingBytes = size_t{256} << 10;

  /// Opens the log for appending (keeping existing contents — recovery
  /// reads them first via ReadAll). `next_lsn` must be greater than every
  /// LSN already in the file. `sync_every` = N groups N appends per fsync
  /// (1 = sync every record; 0 = only explicit Sync calls). `clock` times
  /// the per-fsync latency histogram (nullptr = SystemClock).
  static Result<std::unique_ptr<Wal>> Open(Env* env, const std::string& path,
                                           uint64_t next_lsn,
                                           uint64_t sync_every,
                                           obs::MetricsRegistry* metrics,
                                           obs::Clock* clock = nullptr);

  /// Appends one record, returns its LSN. May auto-Sync per policy.
  Result<uint64_t> Append(WalRecordType type, std::string_view payload)
      MOPE_EXCLUDES(mutex_);

  /// Flushes buffered appends and fsyncs: everything appended so far is
  /// committed when this returns OK. The group-commit point.
  Status Sync() MOPE_EXCLUDES(mutex_);

  /// WAL-ahead hook for the buffer pool: make every record with LSN <=
  /// `lsn` durable before a page stamped with that LSN hits the disk.
  Status SyncTo(uint64_t lsn) MOPE_EXCLUDES(mutex_);

  /// Truncates the log after a checkpoint and fsyncs the truncation. LSNs
  /// continue from where they were (never reused).
  Status Restart() MOPE_EXCLUDES(mutex_);

  uint64_t next_lsn() MOPE_EXCLUDES(mutex_);

  /// Replays the log at `path`: returns every well-formed record with
  /// LSN > `after_lsn`, stopping (not failing) at the first torn record.
  static Result<std::vector<WalRecord>> ReadAll(Env* env,
                                                const std::string& path,
                                                uint64_t after_lsn);

 private:
  Wal(Env* env, std::string path, std::unique_ptr<AppendFile> file,
      uint64_t next_lsn, uint64_t sync_every, obs::MetricsRegistry* metrics,
      obs::Clock* clock);

  Status SyncLocked() MOPE_REQUIRES(mutex_);

  Env* env_;
  const std::string path_;
  mutable Mutex mutex_{lock_rank::kStorageWal};
  std::unique_ptr<AppendFile> file_ MOPE_GUARDED_BY(mutex_);
  std::string pending_ MOPE_GUARDED_BY(mutex_);
  uint64_t next_lsn_ MOPE_GUARDED_BY(mutex_);
  uint64_t last_synced_lsn_ MOPE_GUARDED_BY(mutex_);
  uint64_t unsynced_records_ MOPE_GUARDED_BY(mutex_) = 0;
  const uint64_t sync_every_;

  obs::Clock* clock_;
  obs::Counter* records_;
  obs::Counter* bytes_;
  obs::Counter* syncs_;
  /// Latency of each fsync covering a commit group (`storage.wal.fsync_ns`):
  /// the number an operator watches when group commit is mistuned.
  obs::ExpHistogram* fsync_ns_;
};

}  // namespace mope::storage

#endif  // MOPE_STORAGE_WAL_H_
