#include "storage/storage_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/crc32.h"
#include "obs/registry.h"
#include "storage/env.h"
#include "storage/page.h"
#include "storage/table_heap.h"

namespace mope::storage {
namespace {

StorageOptions TestOptions(Env* env, obs::MetricsRegistry* metrics,
                           uint64_t sync_every = 1) {
  StorageOptions options;
  options.env = env;
  options.metrics = metrics;
  options.pool_frames = 8;
  options.wal_sync_every = sync_every;
  return options;
}

std::string EncodeHead(PageId head) {
  std::string blob(8, '\0');
  StoreU64(blob.data(), head);
  return blob;
}

PageId DecodeHead(std::string_view blob) {
  EXPECT_EQ(blob.size(), 8u);
  return LoadU64(blob.data());
}

TEST(StorageEngineTest, FreshDirectoryOpensEmpty) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_FALSE((*engine)->crash_recovered());
  EXPECT_TRUE((*engine)->catalog_blob().empty());
  EXPECT_TRUE((*engine)->TakeCatalogRecords().empty());
}

TEST(StorageEngineTest, CrashRecoveryReplaysCommittedRecords) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  PageId head = kInvalidPageId;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    auto heap = TableHeap::Open((*engine)->pool(), (*engine)->logger(),
                                kInvalidPageId);
    ASSERT_TRUE(heap.ok());
    head = (*heap)->head();
    // The engine's DDL record referencing the head page.
    ASSERT_TRUE((*engine)
                    ->logger()
                    ->Log(WalRecordType::kCatalog, EncodeHead(head))
                    .ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*heap)->Append("row " + std::to_string(i)).ok());
    }
    // sync_every=1: every record is committed. No flush, no checkpoint —
    // the page file may contain nothing at all.
  }
  env.SimulateCrash();

  obs::MetricsRegistry metrics2;
  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics2));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->crash_recovered());
  EXPECT_GT((*engine)->recovered_records(), 0u);
  EXPECT_EQ(metrics2.GetCounter("storage.engine.recoveries")->Value(), 1u);

  auto catalog_records = (*engine)->TakeCatalogRecords();
  ASSERT_EQ(catalog_records.size(), 1u);
  EXPECT_EQ(DecodeHead(catalog_records[0].payload), head);

  auto heap = TableHeap::Open((*engine)->pool(), (*engine)->logger(), head);
  ASSERT_TRUE(heap.ok()) << heap.status();
  int count = 0;
  ASSERT_TRUE((*heap)
                  ->Scan([&count](RecordId, std::string_view bytes) {
                    EXPECT_EQ(bytes, "row " + std::to_string(count));
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 50);
}

TEST(StorageEngineTest, CheckpointThenCrashIsCleanReopen) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  PageId head = kInvalidPageId;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    auto heap = TableHeap::Open((*engine)->pool(), (*engine)->logger(),
                                kInvalidPageId);
    ASSERT_TRUE(heap.ok());
    head = (*heap)->head();
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE((*heap)->Append("checkpointed " + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*engine)->Checkpoint(EncodeHead(head)).ok());
  }
  env.SimulateCrash();

  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
  ASSERT_TRUE(engine.ok()) << engine.status();
  // Nothing to replay: the WAL was truncated at the checkpoint.
  EXPECT_FALSE((*engine)->crash_recovered());
  EXPECT_EQ(DecodeHead((*engine)->catalog_blob()), head);

  auto heap = TableHeap::Open((*engine)->pool(), (*engine)->logger(), head);
  ASSERT_TRUE(heap.ok());
  int count = 0;
  ASSERT_TRUE((*heap)
                  ->Scan([&count](RecordId, std::string_view) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 30);
}

TEST(StorageEngineTest, WorkAfterCheckpointAlsoRecovers) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  PageId head = kInvalidPageId;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    auto heap = TableHeap::Open((*engine)->pool(), (*engine)->logger(),
                                kInvalidPageId);
    ASSERT_TRUE(heap.ok());
    head = (*heap)->head();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*heap)->Append("before").ok());
    }
    ASSERT_TRUE((*engine)->Checkpoint(EncodeHead(head)).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*heap)->Append("after").ok());
    }
  }
  env.SimulateCrash();

  auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE((*engine)->crash_recovered());
  auto heap = TableHeap::Open((*engine)->pool(), (*engine)->logger(), head);
  ASSERT_TRUE(heap.ok());
  int before = 0, after = 0;
  ASSERT_TRUE((*heap)
                  ->Scan([&](RecordId, std::string_view bytes) {
                    (bytes == "before" ? before : after)++;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(before, 10);
  EXPECT_EQ(after, 10);
}

TEST(StorageEngineTest, RecoveryIsIdempotentAcrossRepeatedCrashes) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  PageId head = kInvalidPageId;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    auto heap = TableHeap::Open((*engine)->pool(), (*engine)->logger(),
                                kInvalidPageId);
    ASSERT_TRUE(heap.ok());
    head = (*heap)->head();
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE((*heap)->Append("stable " + std::to_string(i)).ok());
    }
  }
  // Crash, recover, crash again without checkpointing, recover again: the
  // same records replay over already-recovered pages (LSN guard).
  for (int round = 0; round < 3; ++round) {
    env.SimulateCrash();
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok()) << "round " << round << ": " << engine.status();
    auto heap = TableHeap::Open((*engine)->pool(), (*engine)->logger(), head);
    ASSERT_TRUE(heap.ok());
    int count = 0;
    ASSERT_TRUE((*heap)
                    ->Scan([&count](RecordId, std::string_view bytes) {
                      EXPECT_EQ(bytes, "stable " + std::to_string(count));
                      ++count;
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(count, 25) << "round " << round;
  }
}

/// The exhaustive harness: run a deterministic mixed workload (appends,
/// same-size updates, one mid-way checkpoint), kill the process after every
/// possible prefix, and require recovery to produce exactly that prefix's
/// state. With sync_every=1 each completed operation is committed, so the
/// recovered state must match the in-memory model byte for byte.
TEST(StorageEngineTest, CrashAtEveryPointRecoversExactPrefix) {
  constexpr int kSteps = 36;
  constexpr int kCheckpointAt = 18;

  for (int crash_at = 0; crash_at <= kSteps; ++crash_at) {
    InMemEnv env;
    obs::MetricsRegistry metrics;
    PageId head = kInvalidPageId;
    std::vector<std::string> expected;

    {
      auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
      ASSERT_TRUE(engine.ok());
      auto heap = TableHeap::Open((*engine)->pool(), (*engine)->logger(),
                                  kInvalidPageId);
      ASSERT_TRUE(heap.ok());
      head = (*heap)->head();
      ASSERT_TRUE((*engine)
                      ->logger()
                      ->Log(WalRecordType::kCatalog, EncodeHead(head))
                      .ok());
      std::vector<RecordId> rids;
      for (int i = 0; i < crash_at; ++i) {
        if (i == kCheckpointAt) {
          ASSERT_TRUE((*engine)->Checkpoint(EncodeHead(head)).ok());
        }
        if (i % 7 == 3 && !rids.empty()) {
          // Same-length in-place update (the rotation pattern). Large
          // enough records that the chain grows a few pages.
          const size_t victim = static_cast<size_t>(i) % rids.size();
          std::string updated(expected[victim].size(), 'U');
          ASSERT_TRUE((*heap)->Update(rids[victim], updated).ok());
          expected[victim] = updated;
        } else {
          std::string record(120 + i, static_cast<char>('a' + i % 26));
          auto rid = (*heap)->Append(record);
          ASSERT_TRUE(rid.ok());
          rids.push_back(*rid);
          expected.push_back(record);
        }
      }
    }
    env.SimulateCrash();

    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok()) << "crash_at=" << crash_at << ": "
                             << engine.status();
    // Head comes from the blob (post-checkpoint) or the replayed DDL
    // record (pre-checkpoint) — exactly how the engine layer finds it.
    PageId recovered_head = kInvalidPageId;
    if (!(*engine)->catalog_blob().empty()) {
      recovered_head = DecodeHead((*engine)->catalog_blob());
    } else {
      auto records = (*engine)->TakeCatalogRecords();
      ASSERT_FALSE(records.empty()) << "crash_at=" << crash_at;
      recovered_head = DecodeHead(records[0].payload);
    }
    ASSERT_EQ(recovered_head, head) << "crash_at=" << crash_at;

    auto heap =
        TableHeap::Open((*engine)->pool(), (*engine)->logger(), recovered_head);
    ASSERT_TRUE(heap.ok()) << "crash_at=" << crash_at;
    std::vector<std::string> recovered;
    ASSERT_TRUE((*heap)
                    ->Scan([&recovered](RecordId, std::string_view bytes) {
                      recovered.emplace_back(bytes);
                      return Status::OK();
                    })
                    .ok())
        << "crash_at=" << crash_at;
    EXPECT_EQ(recovered, expected) << "crash_at=" << crash_at;
  }
}

TEST(StorageEngineTest, MetaCorruptionIsDetected) {
  InMemEnv env;
  obs::MetricsRegistry metrics;
  {
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Checkpoint("blob!").ok());
  }
  auto meta = env.ReadFile("/db/storage.meta");
  ASSERT_TRUE(meta.ok());
  std::string flipped = *meta;
  flipped[flipped.size() / 2] ^= 0x40;
  // A well-formed meta of the previous layout ("MOPEMET1", whose blob also
  // held index root page ids) with a valid CRC: rejected by its magic.
  std::string old_layout = *meta;
  ASSERT_EQ(old_layout.substr(0, 8), "MOPEMET2");
  old_layout[7] = '1';
  StoreU32(old_layout.data() + old_layout.size() - 4,
           Crc32(std::string_view(old_layout).substr(
               0, old_layout.size() - 4)));
  for (const std::string& tampered : {flipped, old_layout}) {
    ASSERT_TRUE(env.WriteFileAtomic("/db/storage.meta", tampered).ok());
    auto engine = StorageEngine::Open("/db", TestOptions(&env, &metrics));
    ASSERT_FALSE(engine.ok());
    EXPECT_TRUE(engine.status().IsCorruption()) << engine.status();
  }
}

}  // namespace
}  // namespace mope::storage
