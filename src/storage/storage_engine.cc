#include "storage/storage_engine.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/crc32.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "storage/page.h"
#include "storage/table_heap.h"

namespace mope::storage {

namespace {

constexpr char kMetaMagic[8] = {'M', 'O', 'P', 'E', 'M', 'E', 'T', '2'};

obs::MetricsRegistry* OrGlobal(obs::MetricsRegistry* metrics) {
  return metrics != nullptr ? metrics : obs::Registry();
}

std::string PagesPath(const std::string& dir) { return dir + "/pages.db"; }
std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }
std::string MetaPath(const std::string& dir) { return dir + "/storage.meta"; }

struct Meta {
  uint64_t checkpoint_lsn = 0;
  uint64_t next_lsn = 1;
  uint64_t page_count = 0;
  std::string blob;
};

std::string EncodeMeta(const Meta& meta) {
  std::string out;
  out.reserve(8 + 32 + meta.blob.size() + 4);
  out.append(kMetaMagic, 8);
  char nums[32];
  StoreU64(nums, meta.checkpoint_lsn);
  StoreU64(nums + 8, meta.next_lsn);
  StoreU64(nums + 16, meta.page_count);
  StoreU64(nums + 24, meta.blob.size());
  out.append(nums, 32);
  out.append(meta.blob);
  char crc[4];
  StoreU32(crc, Crc32(out));
  out.append(crc, 4);
  return out;
}

Result<Meta> DecodeMeta(const std::string& bytes) {
  if (bytes.size() < 8 + 32 + 4 ||
      std::memcmp(bytes.data(), kMetaMagic, 8) != 0) {
    return Status::Corruption("storage.meta: bad magic or truncated");
  }
  const uint32_t stored = LoadU32(bytes.data() + bytes.size() - 4);
  if (stored != Crc32(std::string_view(bytes.data(), bytes.size() - 4))) {
    return Status::Corruption("storage.meta: checksum mismatch");
  }
  Meta meta;
  meta.checkpoint_lsn = LoadU64(bytes.data() + 8);
  meta.next_lsn = LoadU64(bytes.data() + 16);
  meta.page_count = LoadU64(bytes.data() + 24);
  const uint64_t blob_len = LoadU64(bytes.data() + 32);
  if (bytes.size() != 8 + 32 + blob_len + 4) {
    return Status::Corruption("storage.meta: blob length mismatch");
  }
  meta.blob = bytes.substr(40, blob_len);
  return meta;
}

}  // namespace

StorageEngine::StorageEngine(Env* env, std::string dir,
                             std::unique_ptr<DiskManager> disk,
                             std::unique_ptr<Wal> wal,
                             const StorageOptions& options)
    : env_(env),
      dir_(std::move(dir)),
      disk_(std::move(disk)),
      wal_(std::move(wal)),
      logger_(wal_.get()),
      recoveries_(
          OrGlobal(options.metrics)->GetCounter("storage.engine.recoveries")),
      recovered_records_counter_(OrGlobal(options.metrics)
                                     ->GetCounter(
                                         "storage.engine.recovered_records")),
      checkpoints_(OrGlobal(options.metrics)
                       ->GetCounter("storage.engine.checkpoints")) {
  pool_ = std::make_unique<BufferPool>(
      disk_.get(), std::max<size_t>(options.pool_frames, 8),
      [wal = wal_.get()](uint64_t lsn) { return wal->SyncTo(lsn); },
      options.metrics, options.clock);
}

Status StorageEngine::RedoRecords(DiskManager* disk,
                                  const std::vector<WalRecord>& records,
                                  std::vector<WalRecord>* catalog_records) {
  // Redo works on a private in-memory page cache and writes everything back
  // at the end: one read + one write per touched page, not per record.
  std::unordered_map<PageId, std::unique_ptr<char[]>> pages;
  auto get_page = [&](PageId id) -> Result<char*> {
    auto it = pages.find(id);
    if (it != pages.end()) return it->second.get();
    auto buf = std::make_unique<char[]>(kPageSize);
    // Every logged page modification is preceded by that page's full image
    // in the same epoch, so a redo target is either cached already or
    // readable on disk (it was flushed after the records now being redone).
    MOPE_RETURN_NOT_OK(disk->ReadPage(id, buf.get()));
    char* raw = buf.get();
    pages.emplace(id, std::move(buf));
    return raw;
  };

  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case WalRecordType::kCatalog:
        catalog_records->push_back(rec);
        break;
      case WalRecordType::kPageImage: {
        if (rec.payload.size() != 8 + kPageSize) {
          return Status::Corruption("page-image WAL record of wrong size");
        }
        const PageId id = LoadU64(rec.payload.data());
        auto buf = std::make_unique<char[]>(kPageSize);
        std::memcpy(buf.get(), rec.payload.data() + 8, kPageSize);
        pages[id] = std::move(buf);
        disk->ReserveThrough(id);
        break;
      }
      case WalRecordType::kHeapAppend: {
        MOPE_ASSIGN_OR_RETURN(HeapSlotPayload p,
                              DecodeHeapSlotPayload(rec.payload));
        MOPE_ASSIGN_OR_RETURN(char* raw, get_page(p.page_id));
        PageView page(raw);
        if (page.lsn() >= rec.lsn) break;  // already reflected on disk
        if (p.slot != page.count() ||
            !heap_page::HasRoom(page, p.record.size())) {
          return Status::Corruption("heap append redo does not fit page " +
                                    std::to_string(p.page_id));
        }
        heap_page::AppendSlot(page, p.record);
        page.set_lsn(rec.lsn);
        break;
      }
      case WalRecordType::kHeapUpdate: {
        MOPE_ASSIGN_OR_RETURN(HeapSlotPayload p,
                              DecodeHeapSlotPayload(rec.payload));
        MOPE_ASSIGN_OR_RETURN(char* raw, get_page(p.page_id));
        PageView page(raw);
        if (page.lsn() >= rec.lsn) break;
        MOPE_RETURN_NOT_OK(heap_page::UpdateSlot(page, p.slot, p.record));
        page.set_lsn(rec.lsn);
        break;
      }
      case WalRecordType::kHeapLink: {
        MOPE_ASSIGN_OR_RETURN(HeapLinkPayload p,
                              DecodeHeapLinkPayload(rec.payload));
        MOPE_ASSIGN_OR_RETURN(char* raw, get_page(p.page_id));
        PageView page(raw);
        if (page.lsn() >= rec.lsn) break;
        page.set_next(p.next);
        page.set_lsn(rec.lsn);
        disk->ReserveThrough(p.next);
        break;
      }
    }
  }
  for (auto& [id, buf] : pages) {
    MOPE_RETURN_NOT_OK(disk->WritePage(id, buf.get()));
  }
  return Status::OK();
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const std::string& dir, const StorageOptions& options) {
  const obs::ScopedSpan open_span("storage.recovery");
  Env* env = options.env != nullptr ? options.env : Env::Posix();
  MOPE_RETURN_NOT_OK(env->CreateDir(dir));

  Meta meta;
  if (env->FileExists(MetaPath(dir))) {
    MOPE_ASSIGN_OR_RETURN(std::string bytes, env->ReadFile(MetaPath(dir)));
    MOPE_ASSIGN_OR_RETURN(meta, DecodeMeta(bytes));
  }

  MOPE_ASSIGN_OR_RETURN(
      std::vector<WalRecord> records,
      Wal::ReadAll(env, WalPath(dir), meta.checkpoint_lsn));
  MOPE_ASSIGN_OR_RETURN(std::unique_ptr<DiskManager> disk,
                        DiskManager::Open(env, PagesPath(dir),
                                          options.metrics));
  if (meta.page_count > 0) disk->ReserveThrough(meta.page_count - 1);

  std::vector<WalRecord> catalog_records;
  if (!records.empty()) {
    const obs::ScopedSpan redo_span("storage.wal.redo");
    MOPE_RETURN_NOT_OK(RedoRecords(disk.get(), records, &catalog_records));
    MOPE_RETURN_NOT_OK(disk->Sync());
  }

  uint64_t next_lsn = meta.next_lsn;
  if (!records.empty()) {
    next_lsn = std::max(next_lsn, records.back().lsn + 1);
  }
  if (next_lsn == 0) next_lsn = 1;  // LSN 0 is "never logged" on pages

  MOPE_ASSIGN_OR_RETURN(
      std::unique_ptr<Wal> wal,
      Wal::Open(env, WalPath(dir), next_lsn, options.wal_sync_every,
                options.metrics, options.clock));

  std::unique_ptr<StorageEngine> engine(new StorageEngine(
      env, dir, std::move(disk), std::move(wal), options));
  engine->catalog_blob_ = std::move(meta.blob);
  engine->catalog_records_ = std::move(catalog_records);
  engine->crash_recovered_ = !records.empty();
  engine->recovered_records_ = records.size();
  if (!records.empty()) {
    engine->recoveries_->Increment();
    engine->recovered_records_counter_->Increment(
        static_cast<int64_t>(records.size()));
    // Crash recovery is the event an operator grep'd the old fprintf lines
    // for; it stays info-level. Clean opens log at debug below.
    MOPE_LOG(kInfo, "storage", "wal_replayed")
        .Arg("dir", dir)
        .Arg("records", records.size())
        .Arg("checkpoint_lsn", meta.checkpoint_lsn);
  } else {
    MOPE_LOG(kDebug, "storage", "opened").Arg("dir", dir);
  }
  return engine;
}

Status StorageEngine::Checkpoint(std::string_view catalog_blob) {
  const obs::ScopedSpan span("storage.checkpoint");
  // Callers quiesce writers across the call (the engine's own write
  // serialization does this): a record logged concurrently with steps 1-5
  // could land after the Sync yet before the Restart and be lost.
  MOPE_RETURN_NOT_OK(wal_->Sync());
  MOPE_RETURN_NOT_OK(pool_->FlushAll());
  MOPE_RETURN_NOT_OK(disk_->Sync());
  Meta meta;
  meta.next_lsn = wal_->next_lsn();
  meta.checkpoint_lsn = meta.next_lsn - 1;
  meta.page_count = disk_->page_count();
  meta.blob.assign(catalog_blob);
  MOPE_RETURN_NOT_OK(env_->WriteFileAtomic(MetaPath(dir_), EncodeMeta(meta)));
  MOPE_RETURN_NOT_OK(wal_->Restart());
  logger_.ResetEpoch();
  catalog_blob_.assign(catalog_blob);
  checkpoints_->Increment();
  return Status::OK();
}

}  // namespace mope::storage
