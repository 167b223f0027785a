#include "engine/durability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "engine/btree.h"
#include "engine/server.h"
#include "engine/table.h"
#include "obs/registry.h"
#include "storage/env.h"
#include "storage/page.h"

namespace mope::engine {
namespace {

DurableCatalog::Options TestOptions(storage::Env* env,
                                    obs::MetricsRegistry* metrics) {
  DurableCatalog::Options options;
  options.env = env;
  options.metrics = metrics;
  options.pool_frames = 16;
  options.wal_sync_every = 1;  // every mutation commits before returning
  return options;
}

Schema ItemsSchema() {
  return Schema({Column{"c", ValueType::kInt},
                 Column{"label", ValueType::kString}});
}

Status FillItems(Table* table, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    MOPE_RETURN_NOT_OK(
        table->Insert({i * 11 % 257, "item " + std::to_string(i)}).status());
  }
  return Status::OK();
}

void ExpectItemsEqual(const Catalog& catalog, int64_t n) {
  auto table = catalog.GetTable("items");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->row_count(), static_cast<uint64_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const Row& row = (*table)->row(static_cast<RowId>(i));
    EXPECT_EQ(row[0], Value(i * 11 % 257)) << i;
    EXPECT_EQ(row[1], Value("item " + std::to_string(i))) << i;
  }
}

TEST(DurableCatalogTest, CrashRecoveryRestoresRowsAndIndexes) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok()) << durable.status();
    EXPECT_FALSE((*durable)->recovered_from_crash());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 300).ok());
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    // No checkpoint, no clean shutdown: kill -9.
  }
  env.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_TRUE((*durable)->recovered_from_crash());
  ExpectItemsEqual(recovered, 300);

  auto table = recovered.GetTable("items");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->HasIndex("c"));
  auto index = (*table)->GetIndex("c");
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  // The index answers queries over the recovered rows.
  EXPECT_EQ((*index)->CountRange(0, 256), 300u);
}

TEST(DurableCatalogTest, MutationsAfterRecoveryKeepWorking) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 50).ok());
  }
  env.SimulateCrash();
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.GetTable("items");
    ASSERT_TRUE(table.ok());
    // Keep writing through the re-installed hooks, then crash again.
    for (int64_t i = 50; i < 80; ++i) {
      ASSERT_TRUE(
          (*table)->Insert({i * 11 % 257, "item " + std::to_string(i)}).ok());
    }
  }
  env.SimulateCrash();
  Catalog final_catalog;
  auto durable = DurableCatalog::Open("/db", &final_catalog,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  ExpectItemsEqual(final_catalog, 80);
}

TEST(DurableCatalogTest, CheckpointMakesReopenClean) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 200).ok());
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());
  }
  env.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  // Clean reopen: nothing replayed; the index is rebuilt from the heap
  // rows exactly as after a crash.
  EXPECT_FALSE((*durable)->recovered_from_crash());
  ExpectItemsEqual(recovered, 200);
  auto table = recovered.GetTable("items");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->HasIndex("c"));
  EXPECT_EQ((*(*table)->GetIndex("c"))->CountRange(0, 256), 200u);
}

// The recovered index must equal one built fresh over the recovered rows:
// the same count and the same (key, row id) entries over every range.
void ExpectIndexMatchesFreshBuild(const Table& table,
                                  const std::string& column) {
  auto col = table.schema().IndexOf(column);
  ASSERT_TRUE(col.ok()) << col.status();
  auto index = table.GetIndex(column);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  BPlusTree fresh;
  for (RowId id = 0; id < table.row_count(); ++id) {
    fresh.Insert(static_cast<uint64_t>(std::get<int64_t>(table.row(id)[*col])),
                 id);
  }
  using Entries = std::vector<std::pair<uint64_t, uint64_t>>;
  const auto scan = [](const BPlusTree& tree, uint64_t lo, uint64_t hi) {
    Entries entries;
    tree.ScanRange(lo, hi, [&entries](uint64_t key, uint64_t id) {
      entries.emplace_back(key, id);
    });
    std::sort(entries.begin(), entries.end());
    return entries;
  };
  const std::pair<uint64_t, uint64_t> ranges[] = {
      {0, ~uint64_t{0}}, {0, 0}, {40, 200}, {256, 5000}, {9999, 9999}};
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ((*index)->CountRange(lo, hi), fresh.CountRange(lo, hi))
        << lo << ".." << hi;
    EXPECT_EQ(scan(**index, lo, hi), scan(fresh, lo, hi)) << lo << ".." << hi;
  }
}

TEST(DurableCatalogTest, UpdateValueSurvivesCrash) {
  // The key-rotation pattern (rewrite indexed ciphertexts in place), then a
  // reopen after a crash and after a clean checkpoint: both rebuild the
  // index from the heap rows.
  for (const bool crash : {true, false}) {
    SCOPED_TRACE(crash ? "crash reopen" : "clean reopen");
    storage::InMemEnv env;
    obs::MetricsRegistry metrics;
    {
      Catalog catalog;
      auto durable = DurableCatalog::Open("/db", &catalog,
                                          TestOptions(&env, &metrics));
      ASSERT_TRUE(durable.ok());
      auto table = catalog.CreateTable("items", ItemsSchema());
      ASSERT_TRUE(table.ok());
      ASSERT_TRUE(FillItems(*table, 120).ok());
      ASSERT_TRUE((*table)->CreateIndex("c").ok());
      for (RowId id = 0; id < 120; id += 3) {
        ASSERT_TRUE(
            (*table)->UpdateValue(id, 0, Value(int64_t(1000 + id))).ok());
      }
      // Row 7 moves twice; only the last value may survive.
      ASSERT_TRUE((*table)->UpdateValue(7, 0, Value(int64_t{4242})).ok());
      ASSERT_TRUE((*table)->UpdateValue(7, 0, Value(int64_t{9999})).ok());
      if (!crash) {
        ASSERT_TRUE((*durable)->Checkpoint().ok());
      }
    }
    if (crash) env.SimulateCrash();

    Catalog recovered;
    auto durable = DurableCatalog::Open("/db", &recovered,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok()) << durable.status();
    EXPECT_EQ((*durable)->recovered_from_crash(), crash);
    auto table = recovered.GetTable("items");
    ASSERT_TRUE(table.ok());
    ASSERT_EQ((*table)->row_count(), 120u);
    for (RowId id = 0; id < 120; ++id) {
      const int64_t want = id == 7        ? 9999
                           : id % 3 == 0 ? int64_t(1000 + id)
                                         : int64_t(id) * 11 % 257;
      EXPECT_EQ((*table)->row(id)[0], Value(want)) << id;
    }
    auto index = (*table)->GetIndex("c");
    ASSERT_TRUE(index.ok());
    EXPECT_EQ((*index)->CountRange(9999, 9999), 1u);
    EXPECT_EQ((*index)->CountRange(4242, 4242), 0u);
    ExpectIndexMatchesFreshBuild(**table, "c");
  }
}

TEST(DurableCatalogTest, DropTableSurvivesCrash) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto keep = catalog.CreateTable("keep", ItemsSchema());
    auto drop = catalog.CreateTable("doomed", ItemsSchema());
    ASSERT_TRUE(keep.ok() && drop.ok());
    ASSERT_TRUE(FillItems(*keep, 10).ok());
    ASSERT_TRUE(FillItems(*drop, 10).ok());
    ASSERT_TRUE(catalog.DropTable("doomed").ok());
  }
  env.SimulateCrash();
  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered,
                                      TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_TRUE(recovered.GetTable("keep").ok());
  EXPECT_TRUE(recovered.GetTable("doomed").status().IsNotFound());
}

TEST(DurableCatalogTest, OpenRequiresEmptyCatalog) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("preexisting", ItemsSchema()).ok());
  auto durable =
      DurableCatalog::Open("/db", &catalog, TestOptions(&env, &metrics));
  EXPECT_FALSE(durable.ok());
}

TEST(DurableCatalogTest, StorageMetricsLandInProvidedRegistry) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  Catalog catalog;
  auto durable =
      DurableCatalog::Open("/db", &catalog, TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok());
  auto table = catalog.CreateTable("items", ItemsSchema());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(FillItems(*table, 100).ok());
  EXPECT_GT(metrics.GetCounter("storage.wal.records")->Value(), 0u);
  EXPECT_GT(metrics.GetCounter("storage.wal.bytes")->Value(), 0u);
}

TEST(DbServerStorageTest, OpenStorageRecoversServedData) {
  storage::InMemEnv env;
  {
    DbServer server;
    EXPECT_FALSE(server.has_storage());
    DurableCatalog::Options options;
    options.env = &env;
    options.wal_sync_every = 1;
    ASSERT_TRUE(server.OpenStorage("/db", options).ok());
    EXPECT_TRUE(server.has_storage());
    auto table = server.catalog()->CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 40).ok());
    ASSERT_TRUE((*table)->CreateIndex("c").ok());
    ASSERT_TRUE(server.SyncStorage().ok());
    // Double-attach is rejected.
    EXPECT_FALSE(server.OpenStorage("/db", options).ok());
  }
  env.SimulateCrash();

  DbServer server;
  DurableCatalog::Options options;
  options.env = &env;
  ASSERT_TRUE(server.OpenStorage("/db", options).ok());
  ASSERT_TRUE(server.durable_catalog() != nullptr);
  EXPECT_TRUE(server.durable_catalog()->recovered_from_crash());
  ExpectItemsEqual(*server.catalog(), 40);
  // The recovered server answers range queries over the rebuilt index.
  auto rows = server.ExecuteRangeBatchWithIds(
      "items", "c", {ModularInterval(0, 257, 1024)});
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 40u);
  ASSERT_TRUE(server.CheckpointStorage().ok());
}

TEST(DbServerStorageTest, StorageCallsWithoutAttachFail) {
  DbServer server;
  EXPECT_TRUE(server.CheckpointStorage().IsInvalidArgument());
  EXPECT_TRUE(server.SyncStorage().IsInvalidArgument());
  EXPECT_EQ(server.durable_catalog(), nullptr);
}

TEST(DurableCatalogTest, ExportToDataDirSurvivesCrash) {
  // The keyless handoff: an in-memory catalog exported into a data dir must
  // be durable the moment ExportToDataDir returns, even with a WAL that
  // would not have synced a single row on its own.
  Catalog source;
  auto src_table = source.CreateTable("items", ItemsSchema());
  ASSERT_TRUE(src_table.ok());
  ASSERT_TRUE(FillItems(*src_table, 60).ok());
  ASSERT_TRUE((*src_table)->CreateIndex("c").ok());

  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  DurableCatalog::Options options = TestOptions(&env, &metrics);
  options.wal_sync_every = 1u << 20;
  ASSERT_TRUE(ExportToDataDir(source, "/db", options).ok());
  env.SimulateCrash();

  Catalog recovered;
  auto durable = DurableCatalog::Open("/db", &recovered, options);
  ASSERT_TRUE(durable.ok()) << durable.status();
  // The export ended with a checkpoint: nothing left to replay.
  EXPECT_FALSE((*durable)->recovered_from_crash());
  ExpectItemsEqual(recovered, 60);
  EXPECT_TRUE((*recovered.GetTable("items"))->HasIndex("c"));
}

TEST(DurableCatalogTest, ExportToDataDirRefusesDirWithTables) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    auto table = catalog.CreateTable("items", ItemsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(FillItems(*table, 5).ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());
  }

  Catalog source;
  auto items = source.CreateTable("items", ItemsSchema());
  ASSERT_TRUE(items.ok());
  ASSERT_TRUE(FillItems(*items, 60).ok());
  ASSERT_TRUE(source.CreateTable("other", ItemsSchema()).ok());
  const Status exported =
      ExportToDataDir(source, "/db", TestOptions(&env, &metrics));
  EXPECT_TRUE(exported.IsAlreadyExists()) << exported;

  Catalog reopened;
  auto durable =
      DurableCatalog::Open("/db", &reopened, TestOptions(&env, &metrics));
  ASSERT_TRUE(durable.ok()) << durable.status();
  EXPECT_EQ(reopened.TableNames(), std::vector<std::string>{"items"});
  ExpectItemsEqual(reopened, 5);
}

TEST(DurableCatalogTest, DuplicateColumnInCatalogBlobIsCorruption) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog,
                                        TestOptions(&env, &metrics));
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE(catalog
                    .CreateTable("t", Schema({Column{"colx", ValueType::kInt},
                                              Column{"coly", ValueType::kInt}}))
                    .ok());
    ASSERT_TRUE((*durable)->Checkpoint().ok());
  }
  // Rename coly to colx inside the checkpointed blob and re-stamp the meta
  // CRC, so only the schema check can catch it.
  auto meta = env.ReadFile("/db/storage.meta");
  ASSERT_TRUE(meta.ok());
  std::string tampered = *meta;
  const size_t pos = tampered.find("coly");
  ASSERT_NE(pos, std::string::npos);
  tampered[pos + 3] = 'x';
  storage::StoreU32(tampered.data() + tampered.size() - 4,
                    Crc32(std::string_view(tampered).substr(
                        0, tampered.size() - 4)));
  ASSERT_TRUE(env.WriteFileAtomic("/db/storage.meta", tampered).ok());

  Catalog catalog;
  auto durable =
      DurableCatalog::Open("/db", &catalog, TestOptions(&env, &metrics));
  ASSERT_FALSE(durable.ok());
  EXPECT_TRUE(durable.status().IsCorruption()) << durable.status();
}

}  // namespace
}  // namespace mope::engine
