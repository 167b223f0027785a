/// A profiled reply is untrusted input. The server's profile section can
/// only fill the server half of the client's cost record: names outside the
/// field table are dropped, so a corrupt or hostile server can neither
/// forge EXPLAIN ANALYZE resource lines nor grow the record. And a mangled
/// section is all or nothing: every truncation and byte rewrite of a valid
/// profiled reply gives a Status or a whole merged record, never an abort
/// or a half-merged one.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/server.h"
#include "net/dispatcher.h"
#include "net/inmem.h"
#include "net/remote_connection.h"
#include "net/wire.h"
#include "obs/query_cost.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "proxy/sql_session.h"
#include "proxy/system.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;

/// Serves the inner transport's replies with two hostile entries appended
/// to every profile section: a name no field has, and a name that embeds a
/// newline followed by a forged resource line.
class ForgingTransport final : public Transport {
 public:
  explicit ForgingTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  Result<size_t> Read(char* buf, size_t max) override {
    if (pos_ == pending_.size()) {
      MOPE_ASSIGN_OR_RETURN(Frame frame, ReadFrame(inner_.get()));
      if (frame.has_profile) {
        MOPE_ASSIGN_OR_RETURN(StatsReply entries,
                              DecodeStatsReply(frame.profile));
        entries.emplace_back("bogus.unknown", 12345);
        entries.emplace_back("x\n  srv.engine.batches_received=0", 1);
        frame.profile = EncodeStatsReply(entries);
      }
      pending_ = EncodeFrame(static_cast<MessageType>(frame.type),
                             std::move(frame.payload), frame.trace_id,
                             frame.has_profile, frame.profile);
      pos_ = 0;
    }
    const size_t n = std::min(max, pending_.size() - pos_);
    pending_.copy(buf, n, pos_);
    pos_ += n;
    return n;
  }
  Status Write(const char* data, size_t n) override {
    return inner_->Write(data, n);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::string pending_;
  size_t pos_ = 0;
};

TEST(ProfileReplyTest, ServerCannotForgeResourceLines) {
  constexpr uint64_t kSeed = 0xF0263;
  constexpr uint64_t kDomain = 365;
  const Schema schema({Column{"day", ValueType::kInt},
                       Column{"amount", ValueType::kDouble}});
  std::vector<Row> rows;
  for (int64_t day = 0; day < static_cast<int64_t>(kDomain); ++day) {
    rows.push_back({day, day * 1.5});
  }
  proxy::EncryptedColumnSpec spec;
  spec.column = "day";
  spec.domain = kDomain;
  spec.k = 7;
  spec.mode = proxy::QueryMode::kAdaptiveUniform;
  spec.batch_size = 8;

  proxy::MopeSystem owner(kSeed);
  ASSERT_TRUE(owner.LoadTable("sales", schema, rows, spec).ok());
  WireDispatcher dispatcher(owner.server());
  InProcessChannel channel(&dispatcher);

  proxy::MopeSystem client(kSeed);
  RemoteOptions options;
  options.max_retries = 0;
  options.backoff_initial_ms = 0;
  options.transport_factory = [&channel]()
      -> Result<std::unique_ptr<Transport>> {
    return std::unique_ptr<Transport>(
        std::make_unique<ForgingTransport>(channel.NewTransport()));
  };
  ASSERT_TRUE(client
                  .AttachRemoteTable("sales", spec,
                                     std::make_unique<RemoteConnection>(
                                         std::move(options)))
                  .ok());
  proxy::EncryptedSqlSession session(&client);
  auto result = session.Execute(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM sales "
      "WHERE day BETWEEN 40 AND 80");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // What a terminal shows: every result row, split at its newlines.
  std::vector<std::string> lines;
  for (const auto& row : result->rows) {
    std::istringstream text(std::get<std::string>(row[0]));
    for (std::string line; std::getline(text, line);) lines.push_back(line);
  }
  size_t at = 0;
  while (at < lines.size() && lines[at] != "Resources:") ++at;
  ASSERT_LT(at + 1, lines.size());
  ASSERT_EQ(lines[at + 1].rfind("  session: ", 0), 0u) << lines[at + 1];
  const std::vector<std::string> resources(lines.begin() + at + 2,
                                           lines.end());

  // Exactly the field table's lines, in its order, with numeric values.
  ASSERT_EQ(resources.size(), obs::kQueryCostFields.size());
  for (size_t i = 0; i < resources.size(); ++i) {
    const std::string prefix =
        std::string("  ") + obs::kQueryCostFields[i].name + "=";
    ASSERT_EQ(resources[i].rfind(prefix, 0), 0u) << resources[i];
    const std::string value = resources[i].substr(prefix.size());
    EXPECT_FALSE(value.empty());
    EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos)
        << resources[i];
  }
  const obs::QueryCost& cost = session.last_trace()->cost();
  EXPECT_GT(cost.srv_batches_received, 0u);
  EXPECT_EQ(cost.trace_id, session.last_trace()->trace_id());
}

// --- Mutation coverage of the profile section -----------------------------

/// A valid profiled range-batch reply, as the dispatcher encodes it, and
/// where its profile section (length prefix included) sits in the frame.
struct ProfiledReply {
  std::string frame;
  size_t section_begin = 0;
  size_t section_end = 0;
};

ProfiledReply MakeProfiledReply() {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt}}));
  EXPECT_TRUE(table.ok());
  for (int64_t k = 0; k < 40; ++k) {
    EXPECT_TRUE((*table)->Insert({k}).ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("key").ok());
  WireDispatcher dispatcher(&server);
  const RangeBatchRequest request{
      "data", "key", {ModularInterval(3, 4, 100), ModularInterval(20, 2, 100)}};
  const std::string bytes =
      EncodeFrame(MessageType::kRangeBatchRequest,
                  EncodeRangeBatchRequest(request), /*trace_id=*/77,
                  /*has_profile=*/true);
  size_t consumed = 0;
  auto reply = dispatcher.HandleFrameBytes(bytes, &consumed);
  EXPECT_TRUE(reply.ok()) << reply.status();
  ProfiledReply out;
  out.frame = *reply;
  auto frame = DecodeFrame(out.frame, &consumed);
  EXPECT_TRUE(frame.ok() && frame->has_profile && frame->trace_id == 77);
  out.section_begin = kFrameHeaderBytes + kTraceIdBytes;
  out.section_end = out.section_begin + kProfileLengthBytes +
                    frame->profile.size();
  return out;
}

/// The server half of a record: the only part a reply may touch.
obs::QueryCost ServerHalf(const obs::QueryCost& cost) {
  obs::QueryCost half;
  for (const obs::QueryCostField& field : obs::kQueryCostFields) {
    if (field.half != obs::CostHalf::kClient) {
      half.*field.member = cost.*field.member;
    }
  }
  return half;
}

/// Feeds `reply` to a RemoteConnection under a trace that asked for the
/// server's cost and checks the outcome: whatever the call returns, the
/// record's server half is either untouched or exactly the decoded section.
/// Returns that server half.
obs::QueryCost ExpectStatusOrWholeRecord(const std::string& reply,
                                         obs::MetricsRegistry* registry,
                                         const std::string& what) {
  RemoteOptions options;
  options.max_retries = 0;
  options.backoff_initial_ms = 0;
  options.registry = registry;
  options.transport_factory = [&reply]()
      -> Result<std::unique_ptr<Transport>> {
    return std::unique_ptr<Transport>(std::make_unique<StringTransport>(reply));
  };
  RemoteConnection connection(std::move(options));
  obs::Trace trace("profile.mutation");
  trace.RequestServerCost();
  {
    const obs::ScopedTraceActivation activate(&trace);
    (void)connection.ExecuteRangeBatch("data", "key",
                                       {ModularInterval(3, 4, 100)});
  }
  const obs::QueryCost merged = ServerHalf(trace.cost());
  if (merged == obs::QueryCost{}) return merged;  // nothing merged
  size_t consumed = 0;
  auto frame = DecodeFrame(reply, &consumed);
  EXPECT_TRUE(frame.ok() && frame->has_profile)
      << what << ": merged from a frame without a profile section";
  if (!frame.ok()) return merged;
  auto section = DecodeProfileSection(frame->profile);
  EXPECT_TRUE(section.ok()) << what << ": merged from a bad section";
  if (section.ok()) {
    EXPECT_EQ(merged, *section) << what << ": partially merged record";
  }
  return merged;
}

TEST(ProfileReplyTest, EveryTruncationGivesStatusOrWholeRecord) {
  const ProfiledReply reply = MakeProfiledReply();
  obs::MetricsRegistry registry;
  const obs::QueryCost intact =
      ExpectStatusOrWholeRecord(reply.frame, &registry, "intact");
  EXPECT_EQ(intact.srv_batches_received, 1u);
  EXPECT_EQ(intact.srv_segments_scanned, 2u);
  EXPECT_EQ(intact.srv_rows_returned, 6u);
  EXPECT_EQ(intact.trace_id, 77u);
  for (size_t cut = 0; cut < reply.frame.size(); ++cut) {
    ExpectStatusOrWholeRecord(reply.frame.substr(0, cut), &registry,
                              "cut " + std::to_string(cut));
  }
}

TEST(ProfileReplyTest, EverySingleByteRewriteOfTheSectionGivesStatusOrWhole) {
  const ProfiledReply reply = MakeProfiledReply();
  obs::MetricsRegistry registry;
  int merged = 0;
  int untouched = 0;
  for (size_t pos = reply.section_begin; pos < reply.section_end; ++pos) {
    const uint8_t replacements[] = {
        0x00, 0x01, 0x02, 0x0A, 0x7F, 0xFF,
        static_cast<uint8_t>(static_cast<uint8_t>(reply.frame[pos]) ^ 0x80)};
    for (const uint8_t b : replacements) {
      std::string mutated = reply.frame;
      mutated[pos] = static_cast<char>(b);
      const obs::QueryCost half = ExpectStatusOrWholeRecord(
          mutated, &registry,
          "pos " + std::to_string(pos) + " byte " + std::to_string(b));
      ++(half == obs::QueryCost{} ? untouched : merged);
    }
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(merged, 0);
  EXPECT_GT(untouched, 0);
}

TEST(ProfileReplyTest, SeededMultiByteMutationsGiveStatusOrWholeRecord) {
  // Fixed budget, so the run is the same every time and cheap under the
  // sanitizers: 2,000 inputs of one to four random rewrites inside the
  // section, each sometimes followed by a truncation.
  const ProfiledReply reply = MakeProfiledReply();
  const size_t span = reply.section_end - reply.section_begin;
  obs::MetricsRegistry registry;
  Rng rng(0x9F0F11E);
  for (int rep = 0; rep < 2000; ++rep) {
    std::string mutated = reply.frame;
    const int edits = 1 + static_cast<int>(rng.UniformUint64(4));
    for (int e = 0; e < edits; ++e) {
      mutated[reply.section_begin + rng.UniformUint64(span)] =
          static_cast<char>(rng.UniformUint64(256));
    }
    if (rng.Bernoulli(0.25)) mutated.resize(rng.UniformUint64(mutated.size()));
    ExpectStatusOrWholeRecord(mutated, &registry,
                              "rep " + std::to_string(rep));
  }
}

}  // namespace
}  // namespace mope::net
