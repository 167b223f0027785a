#include "net/wire.h"

#include <algorithm>

#include "common/crc32.h"
#include "engine/codec.h"

namespace mope::net {

using engine::ByteReader;
using engine::EncodedSize;
using engine::PutString;
using engine::PutU32;
using engine::PutU64;
using engine::StoreU32;
using engine::StoreU64;
using engine::StoreValue;

namespace {

/// Sanity bound on collection counts so a 16-byte frame can't make the
/// decoder reserve gigabytes before the (bounded) payload runs out.
constexpr uint64_t kMaxRangesPerBatch = 1u << 20;

Result<ModularInterval> ReadInterval(ByteReader* reader) {
  MOPE_ASSIGN_OR_RETURN(uint64_t start, reader->U64());
  MOPE_ASSIGN_OR_RETURN(uint64_t length, reader->U64());
  MOPE_ASSIGN_OR_RETURN(uint64_t domain, reader->U64());
  // Validate before constructing: ModularInterval's constructor MOPE_CHECKs
  // its preconditions, and a hostile frame must never abort the server.
  if (domain == 0 || start >= domain || length == 0 || length > domain) {
    return Status::Corruption("wire frame carries an invalid interval");
  }
  return ModularInterval(start, length, domain);
}

}  // namespace

uint32_t Crc32(std::string_view bytes) { return mope::Crc32(bytes); }

namespace {

/// The fixed-size part of a frame: its 16-byte header and the extension
/// fields the flags select (trace id, profile length), validated.
struct FrameHead {
  uint8_t type = 0;
  uint8_t flags = 0;
  uint32_t length = 0;
  uint32_t crc = 0;
  uint64_t trace_id = 0;
  uint32_t profile_length = 0;

  bool has_trace_id() const { return (flags & kFrameFlagHasTraceId) != 0; }
  bool has_profile() const { return (flags & kFrameFlagHasProfile) != 0; }
  /// Bytes of fixed-size extension fields after the header.
  size_t extension_bytes() const {
    return (has_trace_id() ? kTraceIdBytes : 0) +
           (has_profile() ? kProfileLengthBytes : 0);
  }
};

/// Validates the kFrameHeaderBytes at the front of `header` (magic, version,
/// flags, reserved, length, in that order). The one header parser behind
/// DecodeFrame and ReadFrame, so a buffer and a stream fail alike.
Result<FrameHead> ParseHeader(std::string_view header) {
  ByteReader reader(header.substr(0, kFrameHeaderBytes), "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint32_t magic, reader.U32());
  if (magic != kWireMagic) {
    return Status::Corruption("bad wire magic");
  }
  MOPE_ASSIGN_OR_RETURN(uint8_t version, reader.Byte());
  if (version == 0 || version > kWireVersion) {
    return Status::Corruption("unsupported wire protocol version " +
                              std::to_string(version));
  }
  FrameHead head;
  MOPE_ASSIGN_OR_RETURN(head.type, reader.Byte());
  MOPE_ASSIGN_OR_RETURN(head.flags, reader.Byte());
  MOPE_ASSIGN_OR_RETURN(uint8_t reserved, reader.Byte());
  // Version 1 predates the flags byte: both bytes are reserved-zero there.
  // In version 2, an unknown flag bit would change the framing underneath
  // us, so it is Corruption, not something to ignore.
  constexpr uint8_t kKnownFlags = kFrameFlagHasTraceId | kFrameFlagHasProfile;
  if (version == 1 ? head.flags != 0 : (head.flags & ~kKnownFlags) != 0) {
    return Status::Corruption(version == 1
                                  ? "nonzero reserved bytes in frame header"
                                  : "unknown frame flags");
  }
  if (reserved != 0) {
    return Status::Corruption("nonzero reserved bytes in frame header");
  }
  MOPE_ASSIGN_OR_RETURN(head.length, reader.U32());
  if (head.length > kMaxPayloadBytes) {
    return Status::Corruption("oversized frame payload (" +
                              std::to_string(head.length) + " bytes)");
  }
  MOPE_ASSIGN_OR_RETURN(head.crc, reader.U32());
  return head;
}

/// Reads the head->extension_bytes() fixed extension fields at the front of
/// `ext` into `head`, in flag-bit order.
Status ParseExtensions(std::string_view ext, FrameHead* head) {
  ByteReader reader(ext.substr(0, head->extension_bytes()), "wire frame");
  if (head->has_trace_id()) {
    MOPE_ASSIGN_OR_RETURN(head->trace_id, reader.U64());
  }
  if (head->has_profile()) {
    MOPE_ASSIGN_OR_RETURN(head->profile_length, reader.U32());
    if (head->profile_length > kMaxPayloadBytes) {
      return Status::Corruption("oversized profile extension (" +
                                std::to_string(head->profile_length) +
                                " bytes)");
    }
  }
  return Status::OK();
}

Frame FrameOf(const FrameHead& head) {
  Frame frame;
  frame.type = head.type;
  frame.trace_id = head.trace_id;
  frame.has_profile = head.has_profile();
  return frame;
}

}  // namespace

size_t FramePrefixBytes(uint64_t trace_id, bool has_profile,
                        size_t profile_size) {
  return kFrameHeaderBytes + (trace_id != 0 ? kTraceIdBytes : 0) +
         (has_profile ? kProfileLengthBytes + profile_size : 0);
}

std::string SealFrame(MessageType type, std::string frame, uint64_t trace_id,
                      bool has_profile, std::string_view profile) {
  const size_t prefix = FramePrefixBytes(trace_id, has_profile, profile.size());
  MOPE_CHECK(frame.size() >= prefix, "frame has no room for its header");
  const std::string_view payload = std::string_view(frame).substr(prefix);
  MOPE_CHECK(payload.size() <= kMaxPayloadBytes, "frame payload too large");
  MOPE_CHECK(profile.size() <= kMaxPayloadBytes, "frame profile too large");
  // Extension-free frames stay version 1, byte-identical to what older
  // builds emit; only an actual trace id or profile pays for version 2.
  const bool traced = trace_id != 0;
  const uint8_t flags =
      static_cast<uint8_t>((traced ? kFrameFlagHasTraceId : 0) |
                           (has_profile ? kFrameFlagHasProfile : 0));
  char* p = StoreU32(frame.data(), kWireMagic);
  *p++ = static_cast<char>(flags != 0 ? kWireVersion : 1);
  *p++ = static_cast<char>(type);
  *p++ = static_cast<char>(flags);
  *p++ = 0;  // reserved
  p = StoreU32(p, static_cast<uint32_t>(payload.size()));
  p = StoreU32(p, Crc32(payload));
  if (traced) p = StoreU64(p, trace_id);
  if (has_profile) {
    p = StoreU32(p, static_cast<uint32_t>(profile.size()));
    profile.copy(p, profile.size());
  }
  return frame;
}

std::string EncodeFrame(MessageType type, std::string payload,
                        uint64_t trace_id, bool has_profile,
                        std::string_view profile) {
  const size_t prefix = FramePrefixBytes(trace_id, has_profile, profile.size());
  std::string frame;
  frame.reserve(prefix + payload.size());
  frame.resize(prefix);
  frame.append(payload);
  return SealFrame(type, std::move(frame), trace_id, has_profile, profile);
}

Result<Frame> DecodeFrame(std::string_view bytes, size_t* consumed) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::Unavailable("incomplete frame header");
  }
  MOPE_ASSIGN_OR_RETURN(FrameHead head, ParseHeader(bytes));
  // Extensions sit between the header and the payload in flag-bit order;
  // the profile one is length-prefixed, so framing is discovered in stages.
  size_t offset = kFrameHeaderBytes;
  if (bytes.size() < offset + head.extension_bytes()) {
    return Status::Unavailable("incomplete frame payload");
  }
  MOPE_RETURN_NOT_OK(ParseExtensions(bytes.substr(offset), &head));
  offset += head.extension_bytes();
  Frame frame = FrameOf(head);
  if (bytes.size() - offset < head.profile_length) {
    return Status::Unavailable("incomplete frame payload");
  }
  frame.profile.assign(bytes.substr(offset, head.profile_length));
  offset += head.profile_length;
  if (bytes.size() - offset < head.length) {
    return Status::Unavailable("incomplete frame payload");
  }
  const std::string_view payload = bytes.substr(offset, head.length);
  if (Crc32(payload) != head.crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  if (consumed != nullptr) *consumed = offset + head.length;
  frame.payload.assign(payload);
  return frame;
}

namespace {

/// After the header, ReadFrame's second read asks for up to this many bytes
/// past the extension fields (never more than the payload length, so never
/// past the frame): a profile section typically arrives in the same call as
/// its length prefix.
constexpr size_t kReadAhead = 512;

/// Reads at least `min` and at most `max` bytes into `buf`, returning the
/// count. `at_boundary` distinguishes a clean EOF before any header byte
/// (peer hung up between requests) from a stream cut mid-frame.
Result<size_t> ReadAtLeast(Transport* transport, char* buf, size_t min,
                           size_t max, bool at_boundary) {
  size_t got = 0;
  while (got < min) {
    MOPE_ASSIGN_OR_RETURN(size_t chunk, transport->Read(buf + got, max - got));
    if (chunk == 0) {
      return (at_boundary && got == 0)
                 ? Status::Unavailable("connection closed")
                 : Status::Unavailable("connection closed mid-frame");
    }
    got += chunk;
  }
  return got;
}

/// A length field is only the peer's claim, so a field's buffer starts at
/// most this large and doubles as bytes actually arrive: a forged header
/// cannot make the reader allocate 64 MiB up front. Smaller fields (every
/// range-batch reply of the benchmark) are read with one allocation and
/// one copy.
constexpr size_t kFirstFieldBytes = 64 << 10;
static_assert(kReadAhead <= kFirstFieldBytes);

/// Reads a `size`-byte field into `out`: the front of `*ahead` first
/// (consumed), the rest straight from the transport.
Status ReadField(Transport* transport, size_t size, std::string_view* ahead,
                 std::string* out) {
  size_t have = std::min(size, ahead->size());
  out->resize(std::min(size, kFirstFieldBytes));
  ahead->copy(out->data(), have);
  ahead->remove_prefix(have);
  while (have < size) {
    if (have == out->size()) out->resize(std::min(size, 2 * have));
    const size_t want = out->size() - have;
    MOPE_RETURN_NOT_OK(ReadAtLeast(transport, out->data() + have, want, want,
                                   /*at_boundary=*/false)
                           .status());
    have += want;
  }
  return Status::OK();
}

}  // namespace

Result<Frame> ReadFrame(Transport* transport) {
  char head_bytes[kFrameHeaderBytes + kTraceIdBytes + kProfileLengthBytes +
                  kReadAhead];
  MOPE_RETURN_NOT_OK(ReadAtLeast(transport, head_bytes, kFrameHeaderBytes,
                                 kFrameHeaderBytes, /*at_boundary=*/true)
                         .status());
  MOPE_ASSIGN_OR_RETURN(
      FrameHead head,
      ParseHeader(std::string_view(head_bytes, kFrameHeaderBytes)));
  // The extension fields, plus whatever of the profile and payload has
  // already arrived (bounded by the payload length, which the frame holds
  // at the least). Validated exactly as DecodeFrame does.
  std::string_view ahead;
  const size_t ext = head.extension_bytes();
  if (ext > 0) {
    char* const ext_bytes = head_bytes + kFrameHeaderBytes;
    MOPE_ASSIGN_OR_RETURN(
        size_t got,
        ReadAtLeast(transport, ext_bytes, ext,
                    ext + std::min<size_t>(head.length, kReadAhead),
                    /*at_boundary=*/false));
    MOPE_RETURN_NOT_OK(
        ParseExtensions(std::string_view(ext_bytes, ext), &head));
    ahead = std::string_view(ext_bytes + ext, got - ext);
  }
  // Profile, then payload: each lands in its own string, the read-ahead
  // bytes first, the rest straight from the transport.
  Frame frame = FrameOf(head);
  MOPE_RETURN_NOT_OK(
      ReadField(transport, head.profile_length, &ahead, &frame.profile));
  MOPE_RETURN_NOT_OK(ReadField(transport, head.length, &ahead, &frame.payload));
  if (Crc32(frame.payload) != head.crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  return frame;
}

Status WriteFrame(Transport* transport, MessageType type, std::string payload,
                  uint64_t trace_id, bool has_profile,
                  std::string_view profile) {
  // Callers hand WriteFrame unbounded application data (e.g. a huge range
  // batch); overflow must come back as a Status, not trip EncodeFrame's
  // precondition check.
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "message too large for one frame (" + std::to_string(payload.size()) +
        " > " + std::to_string(kMaxPayloadBytes) + " bytes)");
  }
  if (profile.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "profile too large for one frame (" + std::to_string(profile.size()) +
        " > " + std::to_string(kMaxPayloadBytes) + " bytes)");
  }
  const std::string frame =
      EncodeFrame(type, std::move(payload), trace_id, has_profile, profile);
  return transport->Write(frame.data(), frame.size());
}

// --- Message bodies -------------------------------------------------------

std::string EncodeRangeBatchRequest(const RangeBatchRequest& request) {
  std::string out;
  PutString(&out, request.table);
  PutString(&out, request.column);
  PutU32(&out, static_cast<uint32_t>(request.ranges.size()));
  for (const ModularInterval& range : request.ranges) {
    PutU64(&out, range.start());
    PutU64(&out, range.length());
    PutU64(&out, range.domain());
  }
  return out;
}

Result<RangeBatchRequest> DecodeRangeBatchRequest(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  RangeBatchRequest request;
  MOPE_ASSIGN_OR_RETURN(request.table, reader.String());
  MOPE_ASSIGN_OR_RETURN(request.column, reader.String());
  MOPE_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  if (count > kMaxRangesPerBatch) {
    return Status::Corruption("implausible range count in batch request");
  }
  request.ranges.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MOPE_ASSIGN_OR_RETURN(ModularInterval range, ReadInterval(&reader));
    request.ranges.push_back(range);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after batch request");
  }
  return request;
}

namespace {

/// One sizing pass, one allocation, then direct little-endian stores, so a
/// reply costs its bytes rather than a call per byte. The body starts after
/// `headroom` zero bytes. `row_of(entry)` is the row of one (id,
/// row-or-pointer) entry.
template <typename Rows, typename RowOf>
std::string EncodeReplyRows(const Rows& rows, RowOf row_of, size_t headroom) {
  size_t size = headroom + 8;
  for (const auto& entry : rows) {
    size += 12;
    for (const engine::Value& v : row_of(entry)) size += EncodedSize(v);
  }
  std::string out(size, '\0');
  char* p = StoreU64(out.data() + headroom, rows.size());
  for (const auto& entry : rows) {
    const engine::Row& row = row_of(entry);
    p = StoreU64(p, entry.first);
    p = StoreU32(p, static_cast<uint32_t>(row.size()));
    for (const engine::Value& v : row) p = StoreValue(p, v);
  }
  return out;
}

}  // namespace

std::string EncodeRangeBatchReply(const RowsWithIds& rows) {
  return EncodeReplyRows(
      rows,
      [](const auto& entry) -> const engine::Row& { return entry.second; },
      /*headroom=*/0);
}

std::string EncodeRangeBatchReply(const RowRefs& rows, size_t headroom) {
  return EncodeReplyRows(
      rows,
      [](const auto& entry) -> const engine::Row& { return *entry.second; },
      headroom);
}

Result<RowsWithIds> DecodeRangeBatchReply(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
  // Each row costs at least 12 bytes on the wire; a count beyond that bound
  // cannot be satisfied by the remaining payload.
  if (count > reader.remaining() / 12) {
    return Status::Corruption("implausible row count in batch reply");
  }
  RowsWithIds rows;
  rows.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MOPE_ASSIGN_OR_RETURN(uint64_t rid, reader.U64());
    MOPE_ASSIGN_OR_RETURN(uint32_t num_values, reader.U32());
    if (num_values > 4096) {
      return Status::Corruption("implausible column count in batch reply");
    }
    engine::Row row;
    row.reserve(num_values);
    for (uint32_t c = 0; c < num_values; ++c) {
      // Ints and doubles (nearly every ciphertext-table value) take one
      // bounds check; strings, unknown tags and short input go through
      // ReadValue, which owns every error message.
      if (reader.TryAppendFixedValue(&row)) continue;
      MOPE_ASSIGN_OR_RETURN(engine::Value v, reader.ReadValue());
      row.push_back(std::move(v));
    }
    rows.emplace_back(rid, std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after batch reply");
  }
  return rows;
}

std::string EncodeCountBatchReply(uint64_t count) {
  std::string out;
  PutU64(&out, count);
  return out;
}

Result<uint64_t> DecodeCountBatchReply(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after count reply");
  }
  return count;
}

std::string EncodeSchemaRequest(const std::string& table) {
  std::string out;
  PutString(&out, table);
  return out;
}

Result<std::string> DecodeSchemaRequest(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(std::string table, reader.String());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after schema request");
  }
  return table;
}

std::string EncodeSchemaReply(const engine::Schema& schema) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(schema.num_columns()));
  for (const engine::Column& col : schema.columns()) {
    PutString(&out, col.name);
    out.push_back(static_cast<char>(col.type));
  }
  return out;
}

Result<engine::Schema> DecodeSchemaReply(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  if (count > 4096) {
    return Status::Corruption("implausible column count in schema reply");
  }
  std::vector<engine::Column> columns;
  columns.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    engine::Column col;
    MOPE_ASSIGN_OR_RETURN(col.name, reader.String());
    MOPE_ASSIGN_OR_RETURN(uint8_t type, reader.Byte());
    if (type > static_cast<uint8_t>(engine::ValueType::kString)) {
      return Status::Corruption("unknown column type in schema reply");
    }
    col.type = static_cast<engine::ValueType>(type);
    columns.push_back(std::move(col));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after schema reply");
  }
  return engine::Schema::Create(std::move(columns));
}

std::string EncodeStatsReply(const StatsReply& stats) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(stats.size()));
  for (const auto& [name, value] : stats) {
    PutString(&out, name);
    PutU64(&out, value);
  }
  return out;
}

Result<StatsReply> DecodeStatsReply(std::string_view payload) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  // Each entry costs at least 12 bytes (4-byte name length + 8-byte value);
  // a larger count cannot be satisfied by the remaining payload.
  if (count > reader.remaining() / 12) {
    return Status::Corruption("implausible entry count in stats reply");
  }
  StatsReply stats;
  stats.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::pair<std::string, uint64_t> entry;
    MOPE_ASSIGN_OR_RETURN(entry.first, reader.String());
    MOPE_ASSIGN_OR_RETURN(entry.second, reader.U64());
    stats.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after stats reply");
  }
  return stats;
}

std::string EncodeProfileSection(const obs::QueryCost& cost) {
  StatsReply entries;
  for (const obs::QueryCostField& field : obs::kQueryCostFields) {
    if (field.half != obs::CostHalf::kClient) {
      entries.emplace_back(field.name, cost.*field.member);
    }
  }
  return EncodeStatsReply(entries);
}

Result<obs::QueryCost> DecodeProfileSection(std::string_view section) {
  MOPE_ASSIGN_OR_RETURN(StatsReply entries, DecodeStatsReply(section));
  obs::QueryCost cost;
  for (const auto& [name, value] : entries) {
    for (const obs::QueryCostField& field : obs::kQueryCostFields) {
      if (field.half == obs::CostHalf::kClient || name != field.name) continue;
      obs::QueryCost entry;
      entry.*field.member = value;
      cost.Merge(entry);
    }
  }
  return cost;
}

std::string EncodeStatusReply(const Status& status) {
  MOPE_CHECK(!status.ok(), "status reply must carry an error");
  std::string out;
  out.push_back(static_cast<char>(status.code()));
  PutString(&out, status.message());
  return out;
}

Status DecodeStatusReply(std::string_view payload, Status* out) {
  ByteReader reader(payload, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint8_t code, reader.Byte());
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("invalid status code in status reply");
  }
  MOPE_ASSIGN_OR_RETURN(std::string message, reader.String());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after status reply");
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

}  // namespace mope::net
