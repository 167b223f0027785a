#include "engine/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace mope::engine {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  auto items = catalog.CreateTable(
      "items", Schema({Column{"k", ValueType::kInt},
                       Column{"price", ValueType::kDouble},
                       Column{"label", ValueType::kString}}));
  EXPECT_TRUE(items.ok());
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_TRUE((*items)
                    ->Insert({i % 37, static_cast<double>(i) * 0.5,
                              "row " + std::to_string(i)})
                    .ok());
  }
  EXPECT_TRUE((*items)->CreateIndex("k").ok());
  auto empty = catalog.CreateTable(
      "empty", Schema({Column{"x", ValueType::kInt}}));
  EXPECT_TRUE(empty.ok());
  return catalog;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  const Catalog original = MakeCatalog();
  auto bytes = SerializeCatalog(original);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = DeserializeCatalog(bytes.value());
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ(restored->TableNames(), original.TableNames());
  auto orig_items = original.GetTable("items");
  auto rest_items = restored->GetTable("items");
  ASSERT_TRUE(orig_items.ok() && rest_items.ok());
  ASSERT_EQ((*rest_items)->row_count(), (*orig_items)->row_count());
  for (RowId r = 0; r < (*orig_items)->row_count(); ++r) {
    EXPECT_EQ((*rest_items)->row(r), (*orig_items)->row(r)) << r;
  }
  // Index rebuilt and usable.
  EXPECT_TRUE((*rest_items)->HasIndex("k"));
  auto index = (*rest_items)->GetIndex("k");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->CountRange(5, 5), (*(*orig_items)->GetIndex("k"))->CountRange(5, 5));
  EXPECT_TRUE((*index)->CheckInvariants().ok());
  // Empty table survives.
  EXPECT_EQ((*restored->GetTable("empty"))->row_count(), 0u);
}

TEST(SnapshotTest, RejectsBadMagic) {
  EXPECT_TRUE(DeserializeCatalog("NOTASNAP....").status().IsCorruption());
  EXPECT_TRUE(DeserializeCatalog("").status().IsCorruption());
}

TEST(SnapshotTest, RejectsTruncation) {
  auto bytes = SerializeCatalog(MakeCatalog());
  ASSERT_TRUE(bytes.ok());
  for (size_t cut : {bytes->size() - 1, bytes->size() / 2, size_t{9}}) {
    EXPECT_TRUE(DeserializeCatalog(bytes->substr(0, cut))
                    .status()
                    .IsCorruption())
        << cut;
  }
}

TEST(SnapshotTest, RejectsTrailingGarbage) {
  auto bytes = SerializeCatalog(MakeCatalog());
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(
      DeserializeCatalog(*bytes + "extra").status().IsCorruption());
}

TEST(SnapshotTest, RejectsDuplicateColumnName) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .CreateTable("t", Schema({Column{"colx", ValueType::kInt},
                                            Column{"coly", ValueType::kInt}}))
                  .ok());
  auto bytes = SerializeCatalog(catalog);
  ASSERT_TRUE(bytes.ok());
  const size_t pos = bytes->find("coly");
  ASSERT_NE(pos, std::string::npos);
  (*bytes)[pos + 3] = 'x';
  EXPECT_TRUE(DeserializeCatalog(*bytes).status().IsCorruption());
}

TEST(SnapshotTest, SaveIsAtomicUnderWriteFailure) {
  storage::InMemEnv base;
  storage::FaultyEnv env(&base);
  const Catalog original = MakeCatalog();
  ASSERT_TRUE(SaveCatalog(original, "/snap", &env).ok());

  // Every subsequent write fails (torn, even): the failed save must leave
  // the previous snapshot byte-for-byte intact — never a prefix.
  Catalog bigger = MakeCatalog();
  ASSERT_TRUE((*bigger.GetTable("items"))->Insert({1, 2.0, "extra"}).ok());
  storage::FaultyEnv::Faults faults;
  faults.fail_after_writes = 0;
  faults.torn = true;
  env.set_faults(faults);
  EXPECT_FALSE(SaveCatalog(bigger, "/snap", &env).ok());

  faults = storage::FaultyEnv::Faults{};
  env.set_faults(faults);
  auto restored = LoadCatalog("/snap", &env);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored->GetTable("items"))->row_count(), 200u);
}

TEST(SnapshotTest, SaveSurvivesCrashWhole) {
  storage::InMemEnv env;
  ASSERT_TRUE(SaveCatalog(MakeCatalog(), "/snap", &env).ok());
  // kill -9 right after the save returns: the rename already happened and
  // was made durable by SaveCatalog itself, not a later sync.
  env.SimulateCrash();
  auto restored = LoadCatalog("/snap", &env);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored->GetTable("items"))->row_count(), 200u);
}

TEST(SnapshotTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mope_snapshot_test.bin";
  ASSERT_TRUE(SaveCatalog(MakeCatalog(), path).ok());
  auto restored = LoadCatalog(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored->GetTable("items"))->row_count(), 200u);
  std::remove(path.c_str());
  EXPECT_TRUE(LoadCatalog(path).status().IsNotFound());
}

}  // namespace
}  // namespace mope::engine
