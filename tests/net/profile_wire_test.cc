/// The profile extension on the v2 wire protocol, request to reply: an
/// empty profile section on a request means "profile me", the dispatcher
/// answers with attributed counter deltas (StatsReply-encoded, stamped with
/// the request's trace id), profile-less traffic stays byte-identical to
/// version 1, and only data-bearing requests are ever profiled — so an
/// embedded query's profile stays field-identical to a remote one.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/server.h"
#include "net/dispatcher.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/query_cost.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Schema;
using engine::ValueType;

engine::DbServer MakeServer() {
  engine::DbServer server;
  auto table = server.catalog()->CreateTable(
      "data", Schema({Column{"key", ValueType::kInt},
                      Column{"tag", ValueType::kString}}));
  EXPECT_TRUE(table.ok());
  for (int64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE((*table)->Insert({k, std::string("row")}).ok());
  }
  EXPECT_TRUE((*table)->CreateIndex("key").ok());
  return server;
}

Result<Frame> Dispatch(WireDispatcher* dispatcher, MessageType type,
                       std::string payload, uint64_t trace_id = 0,
                       bool want_profile = false) {
  const std::string request = EncodeFrame(type, std::move(payload), trace_id,
                                          want_profile);
  size_t consumed = 0;
  MOPE_ASSIGN_OR_RETURN(std::string reply,
                        dispatcher->HandleFrameBytes(request, &consumed));
  EXPECT_EQ(consumed, request.size());
  return DecodeFrame(reply, &consumed);
}

TEST(ProfileWireTest, ProfileSectionRoundTripsOnAFrame) {
  const StatsReply profile = {{"srv.engine.rows_returned", 42},
                              {"profile.trace_id", 7}};
  const std::string encoded =
      EncodeFrame(MessageType::kRangeBatchReply, "rows", /*trace_id=*/7,
                  /*has_profile=*/true, EncodeStatsReply(profile));
  size_t consumed = 0;
  auto frame = DecodeFrame(encoded, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(consumed, encoded.size());
  EXPECT_TRUE(frame->has_profile);
  EXPECT_EQ(frame->trace_id, 7u);
  EXPECT_EQ(frame->payload, "rows");
  auto decoded = DecodeStatsReply(frame->profile);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, profile);
}

TEST(ProfileWireTest, EmptyProfileSectionMeansProfileMe) {
  // A request can't know the deltas yet: it sends the extension with zero
  // bytes of profile, which must round-trip as has_profile=true, empty.
  const std::string encoded =
      EncodeFrame(MessageType::kRangeBatchRequest, "req", /*trace_id=*/0,
                  /*has_profile=*/true);
  size_t consumed = 0;
  auto frame = DecodeFrame(encoded, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(frame->has_profile);
  EXPECT_TRUE(frame->profile.empty());
}

TEST(ProfileWireTest, ProfilelessFrameHasNoExtensionBytes) {
  const std::string with = EncodeFrame(MessageType::kRangeBatchRequest, "x",
                                       0, /*has_profile=*/true);
  const std::string without =
      EncodeFrame(MessageType::kRangeBatchRequest, "x");
  // The extension costs exactly its length prefix when empty, and nothing
  // is left behind when it's off.
  EXPECT_EQ(with.size(), without.size() + kProfileLengthBytes);
  EXPECT_EQ(without.size(), kFrameHeaderBytes + 1);
}

TEST(ProfileWireTest, DispatcherAttachesProfileWhenAsked) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  RangeBatchRequest request{"data", "key", {ModularInterval(10, 5, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                        EncodeRangeBatchRequest(request), /*trace_id=*/99,
                        /*want_profile=*/true);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kRangeBatchReply));
  ASSERT_TRUE(reply->has_profile);
  auto profile = DecodeStatsReply(reply->profile);
  ASSERT_TRUE(profile.ok());
  std::map<std::string, uint64_t> entries(profile->begin(), profile->end());
  // Every server field of the record is present (zeros included) so
  // embedded and remote records carry the same field set...
  for (const obs::QueryCostField& field : obs::kQueryCostFields) {
    if (field.half == obs::CostHalf::kServer) {
      EXPECT_TRUE(entries.count(field.name)) << field.name;
    }
  }
  // ...the deltas are this request's, not lifetime totals...
  EXPECT_EQ(entries["srv.engine.batches_received"], 1u);
  EXPECT_EQ(entries["srv.engine.rows_returned"], 5u);
  // ...and the reply names the trace the deltas belong to.
  EXPECT_EQ(entries["profile.trace_id"], 99u);
}

TEST(ProfileWireTest, SecondRequestGetsItsOwnDeltas) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  RangeBatchRequest request{"data", "key", {ModularInterval(0, 20, 100)}};
  ASSERT_TRUE(Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                       EncodeRangeBatchRequest(request), 1, true).ok());
  RangeBatchRequest narrow{"data", "key", {ModularInterval(0, 3, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                        EncodeRangeBatchRequest(narrow), 2, true);
  ASSERT_TRUE(reply.ok());
  auto profile = DecodeStatsReply(reply->profile);
  ASSERT_TRUE(profile.ok());
  std::map<std::string, uint64_t> entries(profile->begin(), profile->end());
  EXPECT_EQ(entries["srv.engine.rows_returned"], 3u);  // not 23
  EXPECT_EQ(entries["profile.trace_id"], 2u);
}

TEST(ProfileWireTest, UnprofiledRequestGetsUnprofiledReply) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  RangeBatchRequest request{"data", "key", {ModularInterval(10, 5, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                        EncodeRangeBatchRequest(request));
  ASSERT_TRUE(reply.ok());
  // No speculative profiling: a peer that didn't ask pays zero bytes.
  EXPECT_FALSE(reply->has_profile);
}

TEST(ProfileWireTest, SampledRequestLogsItsCostWithoutChangingTheReply) {
  engine::DbServer server = MakeServer();
  DispatcherOptions options;
  options.query_log_sample = 1;  // every data-bearing request
  WireDispatcher dispatcher(&server, options);
  std::vector<std::string> lines;
  obs::Logger::Default()->SetSink(
      [](void* user_data, const std::string& line) {
        static_cast<std::vector<std::string>*>(user_data)->push_back(line);
      },
      &lines);
  RangeBatchRequest request{"data", "key", {ModularInterval(10, 5, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                        EncodeRangeBatchRequest(request), /*trace_id=*/0);
  obs::Logger::Default()->SetSink(nullptr, nullptr);
  ASSERT_TRUE(reply.ok());
  // The client did not ask: its reply stays a version-1 frame, however the
  // server chose to account for the request.
  EXPECT_FALSE(reply->has_profile);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("event=query"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("srv.engine.rows_returned=5"), std::string::npos)
      << lines[0];
}

TEST(ProfileWireTest, NonDataRequestsIgnoreTheProfileFlag) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  auto reply = Dispatch(&dispatcher, MessageType::kSchemaRequest,
                        EncodeSchemaRequest("data"), /*trace_id=*/5,
                        /*want_profile=*/true);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kSchemaReply));
  // Schema lookups execute no query: attaching a profile would make a remote
  // session's profile differ from an embedded one (which never profiles its
  // in-process schema call).
  EXPECT_FALSE(reply->has_profile);
}

TEST(ProfileWireTest, TruncatedProfileSectionIsUnavailableNotMisframed) {
  const std::string encoded =
      EncodeFrame(MessageType::kRangeBatchReply, "rows", 0,
                  /*has_profile=*/true,
                  EncodeStatsReply({{"srv.engine.rows_returned", 1}}));
  size_t consumed = 0;
  // Every truncation point mid-extension reads as "need more bytes", never
  // as a decoded frame with garbage profile bytes.
  for (size_t len = kFrameHeaderBytes; len < encoded.size(); ++len) {
    auto frame = DecodeFrame(std::string_view(encoded).substr(0, len),
                             &consumed);
    EXPECT_FALSE(frame.ok()) << "decoded at " << len;
    EXPECT_TRUE(frame.status().IsUnavailable()) << frame.status().ToString();
  }
}

}  // namespace
}  // namespace mope::net
