#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "common/random.h"
#include "engine/codec.h"
#include "engine/server.h"
#include "net/dispatcher.h"
#include "net/transport.h"

namespace mope::net {
namespace {

using engine::Column;
using engine::Schema;
using engine::Value;
using engine::ValueType;

// --- Framing --------------------------------------------------------------

TEST(FrameTest, RoundTrip) {
  const std::string bytes =
      EncodeFrame(MessageType::kSchemaRequest, "payload!");
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 8);
  size_t consumed = 0;
  auto frame = DecodeFrame(bytes, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MessageType::kSchemaRequest));
  EXPECT_EQ(frame->payload, "payload!");
}

TEST(FrameTest, EmptyPayloadRoundTrip) {
  const std::string bytes = EncodeFrame(MessageType::kCountBatchRequest, "");
  size_t consumed = 0;
  auto frame = DecodeFrame(bytes, &consumed);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->payload, "");
}

TEST(FrameTest, TruncatedHeaderIsUnavailable) {
  // An incomplete prefix is not an error — more bytes may be in flight.
  const std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    size_t consumed = 0;
    auto frame = DecodeFrame(std::string_view(bytes).substr(0, cut), &consumed);
    ASSERT_FALSE(frame.ok()) << "cut=" << cut;
    EXPECT_TRUE(frame.status().IsUnavailable()) << "cut=" << cut;
  }
}

TEST(FrameTest, BadMagicIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  bytes[0] ^= 0x01;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(bytes, &consumed).status().IsCorruption());
}

TEST(FrameTest, BadVersionIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  bytes[4] = static_cast<char>(kWireVersion + 1);
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(bytes, &consumed).status().IsCorruption());
}

TEST(FrameTest, NonzeroReservedIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  bytes[6] = 0x01;
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(bytes, &consumed).status().IsCorruption());
}

TEST(FrameTest, OversizedLengthIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "x");
  // Rewrite the length field to claim a payload beyond kMaxPayloadBytes.
  std::string length;
  engine::PutU32(&length, kMaxPayloadBytes + 1);
  bytes.replace(8, 4, length);
  size_t consumed = 0;
  auto frame = DecodeFrame(bytes, &consumed);
  ASSERT_FALSE(frame.ok());
  // Must be Corruption (reject), not Unavailable (wait for 64 MiB that will
  // never come) — the distinction is what stops a memory-exhaustion tease.
  EXPECT_TRUE(frame.status().IsCorruption());
}

TEST(FrameTest, CrcMismatchIsCorruption) {
  std::string bytes = EncodeFrame(MessageType::kSchemaRequest, "payload");
  bytes[kFrameHeaderBytes] ^= 0x40;  // flip a payload bit
  size_t consumed = 0;
  EXPECT_TRUE(DecodeFrame(bytes, &consumed).status().IsCorruption());
}

TEST(FrameTest, Crc32KnownAnswer) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(FrameTest, ReadFrameFromTransport) {
  StringTransport transport(EncodeFrame(MessageType::kSchemaReply, "abc"));
  auto frame = ReadFrame(&transport);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->payload, "abc");
}

TEST(FrameTest, ReadFrameEofAtBoundaryIsUnavailable) {
  StringTransport transport("");
  auto frame = ReadFrame(&transport);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsUnavailable());
}

TEST(FrameTest, ReadFrameEofMidFrameIsUnavailable) {
  const std::string bytes = EncodeFrame(MessageType::kSchemaReply, "abc");
  StringTransport transport(bytes.substr(0, bytes.size() - 1));
  auto frame = ReadFrame(&transport);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsUnavailable());
}

TEST(FrameTest, WriteFrameRejectsOversizedPayloadAsStatus) {
  // An over-limit payload must surface as InvalidArgument with nothing on
  // the wire — not trip EncodeFrame's MOPE_CHECK and abort the process.
  StringTransport transport("");
  std::string huge(static_cast<size_t>(kMaxPayloadBytes) + 1, 'x');
  const Status status =
      WriteFrame(&transport, MessageType::kRangeBatchRequest, std::move(huge));
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(transport.output().empty());
}

TEST(FrameTest, WriteFrameAppendsDecodableBytes) {
  StringTransport transport("");
  ASSERT_TRUE(WriteFrame(&transport, MessageType::kCountBatchReply,
                         EncodeCountBatchReply(9)).ok());
  size_t consumed = 0;
  auto frame = DecodeFrame(transport.output(), &consumed);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(DecodeCountBatchReply(frame->payload).value(), 9u);
}

// --- Message bodies -------------------------------------------------------

TEST(MessageTest, RangeBatchRequestRoundTrip) {
  RangeBatchRequest request;
  request.table = "lineitem";
  request.column = "l_shipdate";
  request.ranges = {ModularInterval(10, 5, 100),
                    ModularInterval(95, 10, 100),  // wraps
                    ModularInterval(0, 100, 100)};
  auto decoded = DecodeRangeBatchRequest(EncodeRangeBatchRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->table, "lineitem");
  EXPECT_EQ(decoded->column, "l_shipdate");
  ASSERT_EQ(decoded->ranges.size(), 3u);
  EXPECT_EQ(decoded->ranges[1].start(), 95u);
  EXPECT_EQ(decoded->ranges[1].length(), 10u);
  EXPECT_EQ(decoded->ranges[1].domain(), 100u);
}

TEST(MessageTest, InvalidIntervalOnWireIsCorruptionNotAbort) {
  // Hand-craft a request whose interval would trip ModularInterval's
  // MOPE_CHECK preconditions; the decoder must reject it first.
  struct Bad { uint64_t start, length, domain; };
  for (const Bad& bad : {Bad{5, 1, 0},     // zero domain
                         Bad{100, 1, 100}, // start >= domain
                         Bad{0, 0, 100},   // zero length
                         Bad{0, 101, 100}}) {  // length > domain
    std::string payload;
    engine::PutString(&payload, "t");
    engine::PutString(&payload, "c");
    engine::PutU32(&payload, 1);
    engine::PutU64(&payload, bad.start);
    engine::PutU64(&payload, bad.length);
    engine::PutU64(&payload, bad.domain);
    auto decoded = DecodeRangeBatchRequest(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption());
  }
}

TEST(MessageTest, RangeBatchReplyRoundTrip) {
  RowsWithIds rows;
  rows.emplace_back(7, engine::Row{Value{int64_t{42}}, Value{1.5},
                                   Value{std::string("tag")}});
  rows.emplace_back(9, engine::Row{Value{int64_t{-1}}, Value{0.0},
                                   Value{std::string()}});
  auto decoded = DecodeRangeBatchReply(EncodeRangeBatchReply(rows));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].first, 7u);
  EXPECT_EQ(std::get<int64_t>((*decoded)[0].second[0]), 42);
  EXPECT_EQ((*decoded)[1].first, 9u);
  EXPECT_EQ(std::get<std::string>((*decoded)[1].second[2]), "");
}

TEST(MessageTest, ImplausibleRowCountIsCorruption) {
  // A reply claiming 2^50 rows in a 20-byte payload must be rejected before
  // any allocation happens.
  std::string payload;
  engine::PutU64(&payload, 1ull << 50);
  payload += "somebytes";
  EXPECT_TRUE(DecodeRangeBatchReply(payload).status().IsCorruption());
}

// --- Range-batch reply codec: golden bytes and decoder mutations -----------

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xF]);
  }
  return out;
}

/// Mixed rows covering every value tag, negative values, the empty string,
/// an embedded NUL, a row id above 2^32 and a row with no columns.
RowsWithIds GoldenRows() {
  RowsWithIds rows;
  rows.emplace_back(0, engine::Row{Value{int64_t{0}}, Value{0.0},
                                   Value{std::string()}});
  rows.emplace_back(7, engine::Row{Value{int64_t{-1}}, Value{-2.5},
                                   Value{std::string("tag")}});
  rows.emplace_back((uint64_t{1} << 40) + 3,
                    engine::Row{Value{std::numeric_limits<int64_t>::min()},
                                Value{0.1}, Value{std::string("x\0y", 3)}});
  rows.emplace_back(5, engine::Row{});
  return rows;
}

TEST(ReplyCodecTest, EncodeMatchesGoldenBytes) {
  // Produced by the append-per-byte encoder this format was defined with:
  // u64 row count, then per row u64 id, u32 width and tagged values.
  const std::string golden =
      "0400000000000000000000000000000003000000000000000000000000010000"
      "00000000000002000000000000000007000000000000000300000000ffffffff"
      "ffffffff0100000000000004c002030000000000000074616703000000000100"
      "0003000000000000000000000080019a9999999999b93f020300000000000000"
      "780079050000000000000000000000";
  EXPECT_EQ(Hex(EncodeRangeBatchReply(GoldenRows())), golden);
  EXPECT_EQ(Hex(EncodeRangeBatchReply(RowsWithIds{})), "0000000000000000");
}

/// The reply decoder as first written, every value through
/// ByteReader::ReadValue: the reference the fast path must match outcome for
/// outcome, error messages included.
Result<RowsWithIds> ReferenceDecodeReply(std::string_view payload) {
  engine::ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
  if (count > reader.remaining() / 12) {
    return Status::Corruption("implausible row count in batch reply");
  }
  RowsWithIds rows;
  for (uint64_t i = 0; i < count; ++i) {
    MOPE_ASSIGN_OR_RETURN(uint64_t rid, reader.U64());
    MOPE_ASSIGN_OR_RETURN(uint32_t num_values, reader.U32());
    if (num_values > 4096) {
      return Status::Corruption("implausible column count in batch reply");
    }
    engine::Row row;
    for (uint32_t c = 0; c < num_values; ++c) {
      MOPE_ASSIGN_OR_RETURN(Value v, reader.ReadValue());
      row.push_back(std::move(v));
    }
    rows.emplace_back(rid, std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after batch reply");
  }
  return rows;
}

/// Value equality that compares doubles by bit pattern (a mutated payload
/// can decode to a NaN, which never equals itself).
bool SameValue(const Value& a, const Value& b) {
  if (a.index() != b.index()) return false;
  if (const double* da = std::get_if<double>(&a)) {
    const double db = std::get<double>(b);
    return std::memcmp(da, &db, sizeof(double)) == 0;
  }
  return a == b;
}

/// Asserts the decoder under test and the reference agree on `payload`:
/// the same error (code and message) or the same rows.
void ExpectSameOutcome(std::string_view payload, const std::string& what) {
  const Result<RowsWithIds> got = DecodeRangeBatchReply(payload);
  const Result<RowsWithIds> want = ReferenceDecodeReply(payload);
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!want.ok()) {
    EXPECT_TRUE(got.status().IsCorruption()) << what;
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
    return;
  }
  ASSERT_EQ(got->size(), want->size()) << what;
  for (size_t r = 0; r < want->size(); ++r) {
    ASSERT_EQ((*got)[r].first, (*want)[r].first) << what << " row " << r;
    ASSERT_EQ((*got)[r].second.size(), (*want)[r].second.size()) << what;
    for (size_t c = 0; c < (*want)[r].second.size(); ++c) {
      ASSERT_TRUE(SameValue((*got)[r].second[c], (*want)[r].second[c]))
          << what << " row " << r << " col " << c;
    }
  }
}

RowsWithIds RandomRows(Rng* rng, size_t count) {
  RowsWithIds rows;
  for (size_t i = 0; i < count; ++i) {
    engine::Row row;
    const size_t width = rng->UniformUint64(6);
    for (size_t c = 0; c < width; ++c) {
      switch (rng->UniformUint64(3)) {
        case 0:
          row.emplace_back(static_cast<int64_t>(rng->NextWord()));
          break;
        case 1:
          row.emplace_back(rng->UniformDouble() * 2e6 - 1e6);
          break;
        default:
          row.emplace_back(std::string(rng->UniformUint64(12), 's'));
          break;
      }
    }
    rows.emplace_back(rng->NextWord(), std::move(row));
  }
  return rows;
}

TEST(ReplyCodecTest, DecodeMatchesReferenceOnRandomRows) {
  Rng rng(0xDEC0DE);
  for (int rep = 0; rep < 50; ++rep) {
    const RowsWithIds rows = RandomRows(&rng, rng.UniformUint64(40));
    const std::string payload = EncodeRangeBatchReply(rows);
    ExpectSameOutcome(payload, "rep " + std::to_string(rep));
    const Result<RowsWithIds> decoded = DecodeRangeBatchReply(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, rows);
  }
  ExpectSameOutcome(EncodeRangeBatchReply(GoldenRows()), "golden rows");
}

TEST(ReplyCodecTest, EveryTruncationMatchesReference) {
  const std::string payload = EncodeRangeBatchReply(GoldenRows());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    const std::string_view prefix = std::string_view(payload).substr(0, cut);
    ASSERT_FALSE(DecodeRangeBatchReply(prefix).ok()) << "cut " << cut;
    ExpectSameOutcome(prefix, "cut " + std::to_string(cut));
  }
}

TEST(ReplyCodecTest, EverySingleByteMutationMatchesReference) {
  // Every position gets every interesting replacement: unknown and
  // neighbouring tags, zero and all-ones length bytes, and a bit flip.
  Rng rng(0x5EED);
  RowsWithIds rows = GoldenRows();
  for (auto& row : RandomRows(&rng, 6)) rows.push_back(std::move(row));
  const std::string payload = EncodeRangeBatchReply(rows);
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    const uint8_t replacements[] = {
        0x00, 0x01, 0x02, 0x03, 0x7F, 0xFF,
        static_cast<uint8_t>(static_cast<uint8_t>(payload[pos]) ^ 0x80)};
    for (const uint8_t b : replacements) {
      std::string mutated = payload;
      mutated[pos] = static_cast<char>(b);
      ExpectSameOutcome(mutated, "pos " + std::to_string(pos) + " byte " +
                                     std::to_string(b));
    }
  }
}

TEST(ReplyCodecTest, SeededMultiByteMutationsMatchReference) {
  // Fixed budget, so the run is the same every time and cheap under the
  // sanitizers: 4,000 inputs of one to four random byte rewrites, each
  // sometimes followed by a truncation.
  Rng rng(0xF022);
  for (int rep = 0; rep < 4000; ++rep) {
    std::string mutated =
        EncodeRangeBatchReply(RandomRows(&rng, 1 + rng.UniformUint64(8)));
    const int edits = 1 + static_cast<int>(rng.UniformUint64(4));
    for (int e = 0; e < edits; ++e) {
      mutated[rng.UniformUint64(mutated.size())] =
          static_cast<char>(rng.UniformUint64(256));
    }
    if (rng.Bernoulli(0.25)) mutated.resize(rng.UniformUint64(mutated.size()));
    ExpectSameOutcome(mutated, "rep " + std::to_string(rep));
  }
}

TEST(MessageTest, SchemaRoundTrip) {
  const Schema schema({Column{"key", ValueType::kInt},
                       Column{"price", ValueType::kDouble},
                       Column{"tag", ValueType::kString}});
  auto decoded = DecodeSchemaReply(EncodeSchemaReply(schema));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->num_columns(), 3u);
  EXPECT_EQ(decoded->column(0).name, "key");
  EXPECT_EQ(decoded->column(1).type, ValueType::kDouble);
  EXPECT_EQ(decoded->column(2).name, "tag");
}

TEST(MessageTest, SchemaReplyWithDuplicateColumnIsCorruption) {
  // A corrupt or malicious server must not be able to abort the proxy.
  std::string payload = EncodeSchemaReply(
      Schema({Column{"a", ValueType::kInt}, Column{"b", ValueType::kInt}}));
  const size_t pos = payload.find('b');
  ASSERT_NE(pos, std::string::npos);
  payload[pos] = 'a';
  EXPECT_TRUE(DecodeSchemaReply(payload).status().IsCorruption());
}

TEST(MessageTest, StatusReplyRoundTrip) {
  const Status original = Status::NotFound("no table 'x'");
  Status decoded;
  ASSERT_TRUE(DecodeStatusReply(EncodeStatusReply(original), &decoded).ok());
  EXPECT_TRUE(decoded.IsNotFound());
  EXPECT_EQ(decoded.ToString(), original.ToString());
}

TEST(MessageTest, StatusReplyCarryingOkIsCorruption) {
  std::string payload;
  payload.push_back(0);  // StatusCode::kOk — meaningless as an error reply
  engine::PutString(&payload, "");
  Status decoded;
  EXPECT_TRUE(DecodeStatusReply(payload, &decoded).IsCorruption());
}

TEST(MessageTest, TrailingGarbageIsCorruption) {
  std::string payload = EncodeCountBatchReply(3);
  payload.push_back('!');
  EXPECT_TRUE(DecodeCountBatchReply(payload).status().IsCorruption());
}

// --- Dispatcher -----------------------------------------------------------

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
                       std::string payload) {
  const std::string request = EncodeFrame(type, std::move(payload));
  size_t consumed = 0;
  MOPE_ASSIGN_OR_RETURN(std::string reply,
                        dispatcher->HandleFrameBytes(request, &consumed));
  EXPECT_EQ(consumed, request.size());
  return DecodeFrame(reply, &consumed);
}

TEST(DispatcherTest, RangeBatchMatchesDirectCall) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  RangeBatchRequest request{"data", "key", {ModularInterval(10, 5, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                        EncodeRangeBatchRequest(request));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kRangeBatchReply));
  auto rows = DecodeRangeBatchReply(reply->payload);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(dispatcher.frames_served(), 1u);
}

TEST(DispatcherTest, CountBatch) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  RangeBatchRequest request{"data", "key", {ModularInterval(95, 10, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kCountBatchRequest,
                        EncodeRangeBatchRequest(request));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kCountBatchReply));
  EXPECT_EQ(DecodeCountBatchReply(reply->payload).value(), 10u);
}

TEST(DispatcherTest, ApplicationErrorBecomesStatusReply) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  auto reply = Dispatch(&dispatcher, MessageType::kSchemaRequest,
                        EncodeSchemaRequest("no_such_table"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kStatusReply));
  Status carried;
  ASSERT_TRUE(DecodeStatusReply(reply->payload, &carried).ok());
  EXPECT_TRUE(carried.IsNotFound());
}

TEST(DispatcherTest, UnknownMessageTypeBecomesStatusReply) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  auto reply = Dispatch(&dispatcher, static_cast<MessageType>(200), "??");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kStatusReply));
  Status carried;
  ASSERT_TRUE(DecodeStatusReply(reply->payload, &carried).ok());
  EXPECT_TRUE(carried.IsInvalidArgument());
}

TEST(DispatcherTest, MalformedPayloadClosesSession) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  // Framing is intact but the payload is not a RangeBatchRequest: the stream
  // can no longer be trusted, so the dispatcher errors instead of replying.
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest, "junk");
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsCorruption());
}

TEST(DispatcherTest, OversizedReplyBecomesStatusReplyNotAbort) {
  // A well-formed request whose *result* overflows the frame cap is a
  // legitimate query on a big table; it must cost an error answer, not the
  // daemon. A tiny cap stands in for the real 64 MiB one.
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server, /*max_reply_payload_bytes=*/64);
  RangeBatchRequest request{"data", "key", {ModularInterval(0, 100, 100)}};
  auto reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                        EncodeRangeBatchRequest(request));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kStatusReply));
  Status carried;
  ASSERT_TRUE(DecodeStatusReply(reply->payload, &carried).ok());
  EXPECT_TRUE(carried.IsInvalidArgument()) << carried.ToString();

  // The session stays usable: a narrower query on the same dispatcher works.
  RangeBatchRequest narrow{"data", "key", {ModularInterval(0, 1, 100)}};
  auto ok_reply = Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                           EncodeRangeBatchRequest(narrow));
  ASSERT_TRUE(ok_reply.ok());
  EXPECT_EQ(ok_reply->type,
            static_cast<uint8_t>(MessageType::kRangeBatchReply));
}

TEST(DispatcherTest, ByteAccountingReachesServerStats) {
  engine::DbServer server = MakeServer();
  WireDispatcher dispatcher(&server);
  RangeBatchRequest request{"data", "key", {ModularInterval(0, 50, 100)}};
  ASSERT_TRUE(Dispatch(&dispatcher, MessageType::kRangeBatchRequest,
                       EncodeRangeBatchRequest(request)).ok());
  const engine::ServerStats stats = server.stats();
  EXPECT_GT(stats.bytes_received, kFrameHeaderBytes);
  // 50 rows went back; the reply dwarfs the request.
  EXPECT_GT(stats.bytes_sent, stats.bytes_received);
}

}  // namespace
}  // namespace mope::net
