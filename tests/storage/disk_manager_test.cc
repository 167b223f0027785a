#include "storage/disk_manager.h"

#include <gtest/gtest.h>

#include <cstring>

#include "obs/registry.h"
#include "storage/env.h"
#include "storage/page.h"

namespace mope::storage {
namespace {

TEST(DiskManagerTest, WriteReadRoundTrip) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  auto dm = DiskManager::Open(&env, "/pages", &metrics);
  ASSERT_TRUE(dm.ok()) << dm.status();

  const PageId id = (*dm)->AllocatePage();
  char page[kPageSize];
  PageView view(page);
  view.Format(PageType::kHeap);
  view.set_count(7);
  view.set_lsn(42);
  ASSERT_TRUE((*dm)->WritePage(id, page).ok());

  char back[kPageSize];
  ASSERT_TRUE((*dm)->ReadPage(id, back).ok());
  PageView bview(back);
  EXPECT_EQ(bview.type(), PageType::kHeap);
  EXPECT_EQ(bview.count(), 7);
  EXPECT_EQ(bview.lsn(), 42u);
  EXPECT_EQ(metrics.GetCounter("storage.disk.page_writes")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("storage.disk.page_reads")->Value(), 1u);
}

TEST(DiskManagerTest, ChecksumDetectsCorruption) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  auto dm = DiskManager::Open(&env, "/pages", &metrics);
  ASSERT_TRUE(dm.ok());
  const PageId id = (*dm)->AllocatePage();
  char page[kPageSize];
  PageView(page).Format(PageType::kHeap);
  ASSERT_TRUE((*dm)->WritePage(id, page).ok());

  // Flip one payload byte behind the manager's back.
  auto file = env.OpenRandomAccess("/pages");
  ASSERT_TRUE(file.ok());
  std::string byte;
  ASSERT_TRUE((*file)->Read(id * kPageSize + 100, 1, &byte).ok());
  byte[0] = static_cast<char>(byte[0] ^ 0xFF);
  ASSERT_TRUE((*file)->Write(id * kPageSize + 100, byte).ok());

  char back[kPageSize];
  EXPECT_TRUE((*dm)->ReadPage(id, back).IsCorruption());
  EXPECT_EQ(metrics.GetCounter("storage.disk.read_corruptions")->Value(), 1u);
}

TEST(DiskManagerTest, ReadPastEndIsOutOfRange) {
  InMemEnv env;
  auto dm = DiskManager::Open(&env, "/pages", nullptr);
  ASSERT_TRUE(dm.ok());
  char back[kPageSize];
  EXPECT_TRUE((*dm)->ReadPage(3, back).IsOutOfRange());
}

TEST(DiskManagerTest, TornFileTailRoundedDown) {
  InMemEnv env;
  {
    auto dm = DiskManager::Open(&env, "/pages", nullptr);
    ASSERT_TRUE(dm.ok());
    char page[kPageSize];
    PageView(page).Format(PageType::kHeap);
    ASSERT_TRUE((*dm)->WritePage((*dm)->AllocatePage(), page).ok());
    ASSERT_TRUE((*dm)->WritePage((*dm)->AllocatePage(), page).ok());
    ASSERT_TRUE((*dm)->Sync().ok());
  }
  // A crash mid-extension leaves a non-multiple size.
  auto file = env.OpenRandomAccess("/pages");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(2 * kPageSize, "torn tail").ok());

  auto dm = DiskManager::Open(&env, "/pages", nullptr);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ((*dm)->page_count(), 2u);
  // The next allocation reuses the torn slot; a full write repairs it.
  EXPECT_EQ((*dm)->AllocatePage(), 2u);
}

TEST(DiskManagerTest, ReserveThroughExtendsAllocation) {
  InMemEnv env;
  auto dm = DiskManager::Open(&env, "/pages", nullptr);
  ASSERT_TRUE(dm.ok());
  (*dm)->ReserveThrough(9);
  EXPECT_EQ((*dm)->page_count(), 10u);
  EXPECT_EQ((*dm)->AllocatePage(), 10u);
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  InMemEnv env;
  PageId id = kInvalidPageId;
  {
    auto dm = DiskManager::Open(&env, "/pages", nullptr);
    ASSERT_TRUE(dm.ok());
    id = (*dm)->AllocatePage();
    char page[kPageSize];
    PageView view(page);
    view.Format(PageType::kHeap);
    view.set_aux(1234);
    ASSERT_TRUE((*dm)->WritePage(id, page).ok());
    ASSERT_TRUE((*dm)->Sync().ok());
  }
  env.SimulateCrash();
  auto dm = DiskManager::Open(&env, "/pages", nullptr);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ((*dm)->page_count(), 1u);
  char back[kPageSize];
  ASSERT_TRUE((*dm)->ReadPage(id, back).ok());
  EXPECT_EQ(PageView(back).aux(), 1234u);
}

}  // namespace
}  // namespace mope::storage
