/// Storage engine costs on a real file system: what durability charges
/// the serving path.
///
/// Three experiments, all against the posix Env in a scratch directory:
///
///  1. "wal_fsync": inserts/sec through DurableCatalog as the group-commit
///     interval varies. sync_every=1 fsyncs per insert (the durability
///     ceiling), larger groups amortize it, 0 defers every fsync to one
///     final Sync — the gap between the rows IS the fsync cost.
///  2. "heap_scan": full TableHeap::Scan latency over an on-disk heap as
///     the buffer pool shrinks from fits-everything to 8 frames. The cold
///     pass is what a restart pays (TableHeap::Open walks the chain, then
///     Scan reads every record through a fresh pool — the recovery
///     pattern); the warm pass is a second Scan, showing the pool's hit
///     rate doing its job.
///  3. "recovery": WAL replay time for a crash-state directory — the
///     price of restarting without a checkpoint.
///
/// Wall-time rows carry "ms". Next to them, rows with a deterministic
/// count in "value" (WAL syncs, pool misses, page writes) give
/// tools/bench_compare.py something to gate that host noise cannot move.

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "engine/durability.h"
#include "engine/table.h"
#include "obs/registry.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/env.h"
#include "storage/table_heap.h"
#include "storage/wal_logger.h"

namespace mope {
namespace {

std::string ScratchDir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                    "/mope_bench_storage_" + std::to_string(::getpid());
  MOPE_CHECK(storage::Env::Posix()->CreateDir(dir).ok(),
             "cannot create scratch dir");
  return dir;
}

void WipeDir(const std::string& dir) {
  storage::Env* env = storage::Env::Posix();
  for (const char* f : {"pages.db", "wal.log", "storage.meta"}) {
    const std::string path = dir + "/" + f;
    if (env->FileExists(path)) {
      MOPE_CHECK(env->RemoveFile(path).ok(), "cannot wipe scratch file");
    }
  }
}

engine::Schema BenchSchema() {
  return engine::Schema({engine::Column{"c", engine::ValueType::kInt},
                         engine::Column{"payload",
                                        engine::ValueType::kString}});
}

engine::Row BenchRow(uint64_t i) {
  return {static_cast<int64_t>(i * 2654435761u % 100000),
          "payload-" + std::to_string(i) + std::string(40, 'x')};
}

/// Experiment 1: insert throughput vs the WAL group-commit interval.
void RunWalFsyncSweep(const std::string& dir, bench::JsonReport* report) {
  constexpr uint64_t kRows = 2000;
  std::printf("\nInsert throughput vs WAL group commit (%llu rows, indexed "
              "int + ~60B string per row):\n\n",
              static_cast<unsigned long long>(kRows));
  bench::TablePrinter table(
      {"sync_every", "elapsed", "inserts/sec", "wal syncs"});

  for (const uint64_t sync_every : {uint64_t{1}, uint64_t{8}, uint64_t{64},
                                    uint64_t{0}}) {
    WipeDir(dir);
    obs::MetricsRegistry metrics;
    engine::Catalog catalog;
    engine::DurableCatalog::Options options;
    options.wal_sync_every = sync_every;
    options.metrics = &metrics;
    auto durable = engine::DurableCatalog::Open(dir, &catalog, options);
    MOPE_CHECK(durable.ok(), "open scratch catalog");
    auto table_ptr = catalog.CreateTable("bench", BenchSchema());
    MOPE_CHECK(table_ptr.ok(), "create table");
    MOPE_CHECK((*table_ptr)->CreateIndex("c").ok(), "create index");

    bench::Stopwatch watch;
    for (uint64_t i = 0; i < kRows; ++i) {
      MOPE_CHECK((*table_ptr)->Insert(BenchRow(i)).ok(), "insert");
    }
    // Deferred-group runs still pay one final fsync so every row compares
    // durable-to-durable.
    MOPE_CHECK((*durable)->Sync().ok(), "final sync");
    const double ms = watch.ElapsedMs();

    const uint64_t syncs = metrics.GetCounter("storage.wal.syncs")->Value();
    const double per_sec = static_cast<double>(kRows) / (ms / 1000.0);
    table.Row({sync_every == 0 ? "deferred" : std::to_string(sync_every),
               bench::FmtMs(ms), bench::Fmt(per_sec, 0),
               std::to_string(syncs)});
    report->BeginRow()
        .Field("case", "wal_fsync")
        .Field("sync_every", sync_every)
        .Field("rows", kRows)
        .Field("ms", ms);
    report->BeginRow()
        .Field("case", "wal_fsync_syncs")
        .Field("sync_every", sync_every)
        .Field("rows", kRows)
        .Field("value", syncs);
  }
}

/// Experiment 2: heap-scan latency vs buffer pool size, cold and warm.
void RunHeapScanSweep(const std::string& dir, bench::JsonReport* report) {
  constexpr uint64_t kRecords = 60000;
  WipeDir(dir);
  const std::string pages_path = dir + "/pages.db";
  // No WAL: this experiment measures the pool, not durability.
  storage::WalLogger no_wal(nullptr);
  const auto no_sync = [](uint64_t) { return Status::OK(); };

  // Build the heap once and flush it to disk; every pool size then reopens
  // the same file.
  storage::PageId head = storage::kInvalidPageId;
  uint64_t heap_pages = 0;
  {
    obs::MetricsRegistry metrics;
    auto disk = storage::DiskManager::Open(storage::Env::Posix(), pages_path,
                                           &metrics);
    MOPE_CHECK(disk.ok(), "open page file");
    storage::BufferPool pool(disk->get(), 4096, no_sync, &metrics);
    auto heap = storage::TableHeap::Open(&pool, &no_wal,
                                         storage::kInvalidPageId);
    MOPE_CHECK(heap.ok(), "create heap");
    for (uint64_t i = 0; i < kRecords; ++i) {
      const std::string record = "record-" + std::to_string(i) +
                                 std::string(48, 'x');
      MOPE_CHECK((*heap)->Append(record).ok(), "heap append");
    }
    head = (*heap)->head();
    heap_pages = (*disk)->page_count();
    MOPE_CHECK(pool.FlushAll().ok(), "flush heap");
    MOPE_CHECK((*disk)->Sync().ok(), "sync heap");
  }

  std::printf("\nFull heap scan latency vs buffer pool size (%llu records, "
              "%llu heap pages):\n\n",
              static_cast<unsigned long long>(kRecords),
              static_cast<unsigned long long>(heap_pages));
  bench::TablePrinter table(
      {"frames", "cold scan", "warm scan", "cold misses", "warm misses"});

  for (const size_t frames : {size_t{8}, size_t{64}, size_t{256},
                              size_t{4096}}) {
    obs::MetricsRegistry metrics;
    obs::Counter* misses = metrics.GetCounter("storage.pool.misses");
    auto disk = storage::DiskManager::Open(storage::Env::Posix(), pages_path,
                                           &metrics);
    MOPE_CHECK(disk.ok(), "reopen page file");
    storage::BufferPool pool(disk->get(), frames, no_sync, &metrics);

    bench::Stopwatch cold_watch;
    auto heap = storage::TableHeap::Open(&pool, &no_wal, head);
    MOPE_CHECK(heap.ok(), "reopen heap");
    const auto scan_all = [&heap] {
      uint64_t seen = 0;
      MOPE_CHECK((*heap)
                     ->Scan([&seen](storage::RecordId, std::string_view) {
                       ++seen;
                       return Status::OK();
                     })
                     .ok(),
                 "heap scan");
      MOPE_CHECK(seen == kRecords, "heap scan mismatch");
    };
    scan_all();
    const double cold_ms = cold_watch.ElapsedMs();
    const uint64_t cold_misses = misses->Value();

    bench::Stopwatch warm_watch;
    scan_all();
    const double warm_ms = warm_watch.ElapsedMs();
    const uint64_t warm_misses = misses->Value() - cold_misses;

    table.Row({std::to_string(frames), bench::FmtMs(cold_ms),
               bench::FmtMs(warm_ms), std::to_string(cold_misses),
               std::to_string(warm_misses)});
    const auto emit = [&](const std::string& pass, double ms,
                          uint64_t pool_misses) {
      report->BeginRow()
          .Field("case", "heap_scan_" + pass)
          .Field("frames", static_cast<uint64_t>(frames))
          .Field("records", kRecords)
          .Field("ms", ms);
      report->BeginRow()
          .Field("case", "heap_scan_" + pass + "_misses")
          .Field("frames", static_cast<uint64_t>(frames))
          .Field("records", kRecords)
          .Field("value", pool_misses);
    };
    emit("cold", cold_ms, cold_misses);
    emit("warm", warm_ms, warm_misses);
  }
}

/// Experiment 3: WAL replay cost — reopen a crash-state directory.
void RunRecoveryCost(const std::string& dir, bench::JsonReport* report) {
  constexpr uint64_t kRows = 4000;
  WipeDir(dir);
  uint64_t seed_page_writes = 0;
  {
    obs::MetricsRegistry metrics;
    engine::Catalog catalog;
    engine::DurableCatalog::Options options;
    options.wal_sync_every = 0;  // build the crash state fast
    options.metrics = &metrics;
    auto durable = engine::DurableCatalog::Open(dir, &catalog, options);
    MOPE_CHECK(durable.ok(), "open for seed");
    auto table = catalog.CreateTable("bench", BenchSchema());
    MOPE_CHECK(table.ok(), "create table");
    MOPE_CHECK((*table)->CreateIndex("c").ok(), "create index");
    for (uint64_t i = 0; i < kRows; ++i) {
      MOPE_CHECK((*table)->Insert(BenchRow(i)).ok(), "insert");
    }
    MOPE_CHECK((*durable)->Sync().ok(), "make the WAL durable");
    seed_page_writes =
        metrics.GetCounter("storage.disk.page_writes")->Value();
    // No checkpoint and no clean shutdown: the next Open must replay.
  }

  obs::MetricsRegistry metrics;
  engine::Catalog catalog;
  engine::DurableCatalog::Options options;
  options.metrics = &metrics;
  bench::Stopwatch watch;
  auto durable = engine::DurableCatalog::Open(dir, &catalog, options);
  const double ms = watch.ElapsedMs();
  MOPE_CHECK(durable.ok(), "recovery open");
  MOPE_CHECK((*durable)->recovered_from_crash(), "must be a crash state");
  auto table = catalog.GetTable("bench");
  MOPE_CHECK(table.ok() && (*table)->row_count() == kRows,
             "recovery must restore every row");

  const uint64_t recovery_page_writes =
      metrics.GetCounter("storage.disk.page_writes")->Value();

  std::printf("\nCrash recovery: replayed %llu rows (WAL + index rebuild) "
              "in %s. Page writes: %llu to build the crash state, %llu to "
              "recover it.\n",
              static_cast<unsigned long long>(kRows),
              bench::FmtMs(ms).c_str(),
              static_cast<unsigned long long>(seed_page_writes),
              static_cast<unsigned long long>(recovery_page_writes));
  report->BeginRow()
      .Field("case", "recovery")
      .Field("rows", kRows)
      .Field("ms", ms);
  report->BeginRow()
      .Field("case", "recovery_seed_page_writes")
      .Field("rows", kRows)
      .Field("value", seed_page_writes);
  report->BeginRow()
      .Field("case", "recovery_page_writes")
      .Field("rows", kRows)
      .Field("value", recovery_page_writes);
}

}  // namespace
}  // namespace mope

int main() {
  mope::bench::PrintHeader("Storage engine",
                           "WAL fsync cost, buffer pool heap-scan latency, "
                           "crash recovery replay");
  mope::bench::JsonReport report("storage");
  const std::string dir = mope::ScratchDir();
  mope::RunWalFsyncSweep(dir, &report);
  mope::RunHeapScanSweep(dir, &report);
  mope::RunRecoveryCost(dir, &report);
  mope::WipeDir(dir);
  report.Write();
  return 0;
}
