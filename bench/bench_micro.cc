/// Micro-benchmarks (google-benchmark): primitive costs underlying the
/// figure benches, plus ablations of two design choices called out in
/// DESIGN.md §4 — the geometric fast path for fake-query counts and the
/// coalesced shared sweep for disjunctive range batches — and the per-round
/// trip wire codec costs of DESIGN.md §5.

#include <benchmark/benchmark.h>

#include <string>

#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/hgd.h"
#include "dist/completion.h"
#include "engine/btree.h"
#include "engine/executor.h"
#include "net/transport.h"
#include "net/wire.h"
#include "ope/mope.h"
#include "ope/ope.h"
#include "proxy/system.h"
#include "workload/tpch.h"

namespace mope {
namespace {

void BM_AesEncryptBlock(benchmark::State& state) {
  crypto::Key128 key{};
  key[0] = 0x42;
  const crypto::Aes128 aes(key);
  crypto::Block block{};
  for (auto _ : state) {
    block = aes.EncryptBlock(block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_AesEncryptBlock);

void BM_HgdSample(benchmark::State& state) {
  const uint64_t total = static_cast<uint64_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::SampleHypergeometric(total, total / 4, total / 2, &rng));
  }
}
BENCHMARK(BM_HgdSample)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_OpeEncrypt(benchmark::State& state) {
  const uint64_t domain = static_cast<uint64_t>(state.range(0));
  Rng rng(2);
  auto scheme = ope::OpeScheme::Create({domain, ope::SuggestRange(domain)},
                                       ope::OpeKey::Generate(&rng));
  uint64_t m = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->Encrypt(m).value());
    m = (m + 7919) % domain;
  }
}
// Domains up to ope::kMaxTableDomain (1 << 14) encrypt by table lookup;
// 1 << 18 is above the budget and measures the lazy tree walk.
BENCHMARK(BM_OpeEncrypt)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

/// Cost of materialising one key's OPF table (one full walk of the sampling
/// tree), paid at key creation and on every key rotation.
void BM_OpeTableBuild(benchmark::State& state) {
  const uint64_t domain = static_cast<uint64_t>(state.range(0));
  Rng rng(5);
  const ope::OpeKey key = ope::OpeKey::Generate(&rng);
  for (auto _ : state) {
    auto scheme =
        ope::OpeScheme::Create({domain, ope::SuggestRange(domain)}, key);
    MOPE_CHECK(scheme.ok(), "table build");
    benchmark::DoNotOptimize(scheme->Encrypt(domain - 1).value());
  }
}
// TPC-H dates (2,880) and the Uniform/Zipf/SanFran domain (10,000).
BENCHMARK(BM_OpeTableBuild)->Arg(2880)->Arg(10000)->Unit(
    benchmark::kMillisecond);

void BM_MopeDecrypt(benchmark::State& state) {
  const uint64_t domain = static_cast<uint64_t>(state.range(0));
  Rng rng(3);
  auto scheme =
      ope::MopeScheme::Create({domain, ope::SuggestRange(domain)},
                              ope::MopeKey::Generate(domain, &rng));
  std::vector<uint64_t> ciphers;
  for (uint64_t m = 0; m < 64; ++m) {
    ciphers.push_back(scheme->Encrypt(m * (domain / 64)).value());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->Decrypt(ciphers[i]).value());
    i = (i + 1) % ciphers.size();
  }
}
BENCHMARK(BM_MopeDecrypt)->Arg(1 << 10)->Arg(1 << 14);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    state.PauseTiming();
    engine::BPlusTree tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(rng.UniformUint64(1 << 20), static_cast<uint64_t>(i));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(10000);

void BM_BTreeRangeScan(benchmark::State& state) {
  engine::BPlusTree tree;
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    tree.Insert(rng.UniformUint64(1 << 20), static_cast<uint64_t>(i));
  }
  for (auto _ : state) {
    uint64_t sink = 0;
    tree.ScanRange(1 << 18, (1 << 18) + (1 << 16),
                   [&sink](uint64_t k, uint64_t) { sink += k; });
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_BTreeRangeScan);

/// Ablation: per-trial Bernoulli loop vs one geometric draw for the number
/// of fake queries (identical distribution; Section 5).
void BM_FakeCountBernoulliLoop(benchmark::State& state) {
  Rng rng(6);
  const double alpha = 1.0 / 200.0;
  for (auto _ : state) {
    uint64_t fakes = 0;
    while (!rng.Bernoulli(alpha)) ++fakes;
    benchmark::DoNotOptimize(fakes);
  }
}
BENCHMARK(BM_FakeCountBernoulliLoop);

void BM_FakeCountGeometric(benchmark::State& state) {
  Rng rng(7);
  const double alpha = 1.0 / 200.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Geometric(alpha));
  }
}
BENCHMARK(BM_FakeCountGeometric);

/// Ablation: answering a 200-range disjunctive batch with one coalesced
/// sweep vs one index scan per range (Section 5.1).
class MultiRangeFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (table_) return;
    table_ = std::make_unique<engine::Table>(
        "t", engine::Schema({{"k", engine::ValueType::kInt}}));
    for (int64_t i = 0; i < 200000; ++i) {
      (void)table_->Insert({i % 4096});
    }
    (void)table_->CreateIndex("k");
    Rng rng(8);
    for (int i = 0; i < 200; ++i) {
      const uint64_t lo = rng.UniformUint64(4000);
      segments_.push_back(Segment{lo, lo + 60});
    }
  }

 protected:
  std::unique_ptr<engine::Table> table_;
  std::vector<Segment> segments_;
};

BENCHMARK_F(MultiRangeFixture, CoalescedSharedSweep)(benchmark::State& state) {
  const auto* index = table_->GetIndex("k").value();
  for (auto _ : state) {
    uint64_t rows = 0;
    for (const Segment& seg : engine::CoalesceSegments(segments_)) {
      rows += index->ScanRange(seg.lo, seg.hi, [](uint64_t, uint64_t) {});
    }
    benchmark::DoNotOptimize(rows);
  }
}

BENCHMARK_F(MultiRangeFixture, OneScanPerRange)(benchmark::State& state) {
  const auto* index = table_->GetIndex("k").value();
  for (auto _ : state) {
    uint64_t rows = 0;
    for (const Segment& seg : segments_) {
      rows += index->ScanRange(seg.lo, seg.hi, [](uint64_t, uint64_t) {});
    }
    benchmark::DoNotOptimize(rows);
  }
}

/// Ablation: mean-anchored HGD inversion vs the linear reference sampler
/// (identical distribution; the anchored sweep is O(stddev) instead of
/// O(support) — DESIGN.md §4).
void BM_HgdAnchored(benchmark::State& state) {
  const uint64_t total = static_cast<uint64_t>(state.range(0));
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::SampleHypergeometric(total, total / 2, total / 2, &rng));
  }
}
BENCHMARK(BM_HgdAnchored)->Arg(1 << 12)->Arg(1 << 16);

void BM_HgdLinearReference(benchmark::State& state) {
  const uint64_t total = static_cast<uint64_t>(state.range(0));
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::SampleHypergeometricLinear(total, total / 2, total / 2, &rng));
  }
}
BENCHMARK(BM_HgdLinearReference)->Arg(1 << 12)->Arg(1 << 16);

/// Key rotation throughput: full-column re-encryption (decrypt + encrypt +
/// index maintenance per row).
void BM_KeyRotation(benchmark::State& state) {
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    proxy::MopeSystem system(state.iterations());
    proxy::EncryptedColumnSpec spec;
    spec.column = "v";
    spec.domain = 4096;
    spec.k = 16;
    spec.mode = proxy::QueryMode::kAdaptiveUniform;
    std::vector<engine::Row> data;
    for (uint64_t r = 0; r < rows; ++r) {
      data.push_back(engine::Row{static_cast<int64_t>(r % 4096)});
    }
    (void)system.LoadTable("t",
                           engine::Schema({{"v", engine::ValueType::kInt}}),
                           data, spec);
    state.ResumeTiming();
    benchmark::DoNotOptimize(system.RotateKey("t", "v").value());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_KeyRotation)->Arg(2000)->Unit(benchmark::kMillisecond);

/// Completion-plan construction cost (the adaptive algorithm pays this once
/// per incoming query piece).
void BM_UniformPlanBuild(benchmark::State& state) {
  const uint64_t m = static_cast<uint64_t>(state.range(0));
  std::vector<double> w(m);
  for (uint64_t i = 0; i < m; ++i) w[i] = 1.0 / static_cast<double>(1 + i);
  auto q = dist::Distribution::FromWeights(std::move(w));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::MakeUniformPlan(*q).value().alpha);
  }
}
BENCHMARK(BM_UniformPlanBuild)->Arg(1000)->Arg(10000);

// --- Wire codec (DESIGN.md §5): the work every server round trip pays ----

std::string RandomBuffer(size_t n) {
  Rng rng(11);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformUint64(256));
  return bytes;
}

/// The dispatched CRC (PCLMULQDQ folding where the CPU has it).
void BM_Crc32(benchmark::State& state) {
  const std::string bytes = RandomBuffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(65536)->Arg(512 << 10);

/// The slicing-by-8 reference kernel, for comparison with BM_Crc32.
void BM_Crc32Portable(benchmark::State& state) {
  const std::string bytes = RandomBuffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32_internal::ContinuePortable(0, bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Portable)->Arg(4096)->Arg(65536)->Arg(512 << 10);

/// The first `n` rows of generated TPC-H LINEITEM at SF 0.002 (the
/// perfbench data set), with ids: a q14_uniform_tcp reply carries ~126.
net::RowsWithIds LineitemReply(size_t n) {
  workload::TpchConfig config;
  config.scale_factor = 0.002;
  const workload::TpchData data = workload::GenerateTpch(config);
  net::RowsWithIds rows;
  for (size_t i = 0; i < n && i < data.lineitem.size(); ++i) {
    rows.emplace_back(i, data.lineitem[i]);
  }
  return rows;
}

void BM_EncodeRangeBatchReply(benchmark::State& state) {
  const net::RowsWithIds rows =
      LineitemReply(static_cast<size_t>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string payload = net::EncodeRangeBatchReply(rows);
    bytes = payload.size();
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_EncodeRangeBatchReply)->Arg(126);

void BM_DecodeRangeBatchReply(benchmark::State& state) {
  const std::string payload = net::EncodeRangeBatchReply(
      LineitemReply(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    auto rows = net::DecodeRangeBatchReply(payload);
    benchmark::DoNotOptimize(rows.ok());
    benchmark::DoNotOptimize(rows->data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_DecodeRangeBatchReply)->Arg(126);

/// A client reading one range-batch reply frame (~12 KB of LINEITEM rows)
/// off a transport: header, payload straight into the Frame, CRC in place.
/// The figure includes StringTransport taking its own copy of the frame
/// each iteration, standing in for the socket's kernel buffer.
void BM_ReadFrame(benchmark::State& state) {
  const std::string frame = net::EncodeFrame(
      net::MessageType::kRangeBatchReply,
      net::EncodeRangeBatchReply(
          LineitemReply(static_cast<size_t>(state.range(0)))));
  for (auto _ : state) {
    net::StringTransport transport(frame);
    auto read = net::ReadFrame(&transport);
    benchmark::DoNotOptimize(read.ok());
    benchmark::DoNotOptimize(read->payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_ReadFrame)->Arg(126);

}  // namespace
}  // namespace mope

BENCHMARK_MAIN();
