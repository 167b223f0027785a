#ifndef MOPE_STORAGE_ENV_H_
#define MOPE_STORAGE_ENV_H_

/// \file env.h
/// File-system abstraction for the storage engine (LevelDB-style Env).
///
/// Everything in src/storage/ — and, by linter rule R10, everything in src/
/// outside this directory — does file I/O through this interface instead of
/// raw open/fstream calls. Three implementations:
///
///   - Env::Posix(): the real thing (pread/pwrite/fsync/rename).
///   - InMemEnv: a deterministic in-memory file system for tests. It tracks,
///     per file, which bytes have been fsync'd, so SimulateCrash() models a
///     kill -9 / power cut exactly: every file reverts to its last-synced
///     contents. A durability claim that survives InMemEnv's crash is a
///     claim about fsync discipline, not luck.
///   - FaultyEnv: wraps another Env and injects the failures disks actually
///     produce — short (torn) writes, failed writes, failed fsyncs — after a
///     configurable countdown, so recovery paths are tested against the
///     exact byte states a mid-write crash leaves behind.
///
/// The trust boundary note that applies to all of src/storage/: this layer
/// moves opaque bytes. MOPE ciphertexts arrive already encrypted by the
/// proxy; no key material or plaintext ever reaches an Env.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mope::storage {

/// Random-access file handle (the page file). Offsets are absolute; writes
/// past the current size extend the file.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads exactly `n` bytes at `offset` into `*out` (resized). Reading past
  /// EOF is OutOfRange — the caller tracks sizes, a short read is a bug or a
  /// truncated file, never silently padded.
  virtual Status Read(uint64_t offset, size_t n, std::string* out) = 0;

  virtual Status Write(uint64_t offset, std::string_view data) = 0;
  virtual Status Sync() = 0;
  virtual Result<uint64_t> Size() = 0;
};

/// Append-only file handle (the write-ahead log).
class AppendFile {
 public:
  virtual ~AppendFile() = default;

  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
  virtual Result<uint64_t> Size() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  /// Opens (creating if absent) a random-access read/write file.
  virtual Result<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) = 0;

  /// Opens a file for appending; `truncate` discards existing contents.
  virtual Result<std::unique_ptr<AppendFile>> OpenAppend(
      const std::string& path, bool truncate) = 0;

  /// Whole-file read; NotFound when absent.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Durable whole-file replace: writes `contents` to a temp file in the
  /// same directory, fsyncs it, renames it over `path`, and fsyncs the
  /// directory. A crash at any point leaves either the old file or the new
  /// one, never a prefix of the new one. The storage meta file, trace and
  /// metrics exports and the flight recorder use it.
  virtual Status WriteFileAtomic(const std::string& path,
                                 std::string_view contents) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;

  /// Creates a directory (OK if it already exists; parents must exist).
  virtual Status CreateDir(const std::string& path) = 0;

  /// The process-wide POSIX environment.
  static Env* Posix();
};

// ---------------------------------------------------------------------------
// In-memory environment (tests). Not thread-safe: storage-layer callers are
// serialized by the BufferPool/Wal locks above it, and tests are
// single-threaded by construction.
// ---------------------------------------------------------------------------

class InMemEnv : public Env {
 public:
  Result<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  Result<std::unique_ptr<AppendFile>> OpenAppend(const std::string& path,
                                                 bool truncate) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFileAtomic(const std::string& path,
                         std::string_view contents) override;
  bool FileExists(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;

  /// Models kill -9 / power loss: every file reverts to its last-synced
  /// contents and open handles keep working against the reverted state.
  /// WriteFileAtomic is journaled (rename is metadata): it survives whole.
  void SimulateCrash();

  /// Test introspection.
  uint64_t sync_count() const { return sync_count_; }

 private:
  friend class InMemRandomAccessFile;
  friend class InMemAppendFile;

  struct FileState {
    std::string data;         // current (possibly unsynced) contents
    std::string synced_data;  // contents as of the last fsync
  };

  std::map<std::string, std::shared_ptr<FileState>> files_;
  uint64_t sync_count_ = 0;
};

// ---------------------------------------------------------------------------
// Fault-injecting environment (tests). Wraps another Env; all handles opened
// through it share one failure countdown, so "the 7th write to any file
// fails" is expressible regardless of which component issues it.
// ---------------------------------------------------------------------------

class FaultyEnv : public Env {
 public:
  struct Faults {
    /// After this many successful data writes (Write/Append calls), the
    /// next one fails — and every one after it (the disk stays dead, like
    /// a crashed machine). Negative: never.
    int fail_after_writes = -1;
    /// When a write fails, first persist a prefix of the data (a torn
    /// write: the kernel got half a page out before power died).
    bool torn = false;
    /// Fraction of the failing write that still reaches the medium when
    /// torn (default: half).
    double torn_fraction = 0.5;
    /// Every Sync() fails (fsync returning EIO — the dreaded fsyncgate).
    bool fail_sync = false;
  };

  explicit FaultyEnv(Env* base) : base_(base) {}

  void set_faults(const Faults& faults) { faults_ = faults; }
  int writes_issued() const { return writes_issued_; }

  Result<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  Result<std::unique_ptr<AppendFile>> OpenAppend(const std::string& path,
                                                 bool truncate) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFileAtomic(const std::string& path,
                         std::string_view contents) override;
  bool FileExists(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;

 private:
  friend class FaultyRandomAccessFile;
  friend class FaultyAppendFile;

  /// Returns the number of bytes of `n` that may be written (n = all, a
  /// torn prefix, or 0), or an error if the write must fail outright.
  /// Increments the write counter.
  Result<size_t> AdmitWrite(size_t n);
  Status AdmitSync();

  Env* base_;
  Faults faults_;
  int writes_issued_ = 0;
  bool dead_ = false;
};

}  // namespace mope::storage

#endif  // MOPE_STORAGE_ENV_H_
