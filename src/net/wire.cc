#include "net/wire.h"

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

std::string EncodeFrame(MessageType type, std::string payload,
                        uint64_t trace_id, bool has_profile,
                        std::string_view profile) {
  MOPE_CHECK(payload.size() <= kMaxPayloadBytes, "frame payload too large");
  MOPE_CHECK(profile.size() <= kMaxPayloadBytes, "frame profile too large");
  // Extension-free frames stay version 1, byte-identical to what older
  // builds emit; only an actual trace id or profile pays for version 2.
  const bool traced = trace_id != 0;
  const uint8_t flags =
      static_cast<uint8_t>((traced ? kFrameFlagHasTraceId : 0) |
                           (has_profile ? kFrameFlagHasProfile : 0));
  std::string out;
  out.reserve(kFrameHeaderBytes + (traced ? kTraceIdBytes : 0) +
              (has_profile ? kProfileLengthBytes + profile.size() : 0) +
              payload.size());
  PutU32(&out, kWireMagic);
  out.push_back(static_cast<char>(flags != 0 ? kWireVersion : 1));
  out.push_back(static_cast<char>(type));
  out.push_back(static_cast<char>(flags));
  out.push_back(0);  // reserved
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32(payload));
  if (traced) PutU64(&out, trace_id);
  if (has_profile) {
    PutU32(&out, static_cast<uint32_t>(profile.size()));
    out.append(profile);
  }
  out.append(payload);
  return out;
}

Result<Frame> DecodeFrame(std::string_view bytes, size_t* consumed) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::Unavailable("incomplete frame header");
  }
  ByteReader header(bytes.substr(0, kFrameHeaderBytes), "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint32_t magic, header.U32());
  if (magic != kWireMagic) {
    return Status::Corruption("bad wire magic");
  }
  MOPE_ASSIGN_OR_RETURN(uint8_t version, header.Byte());
  if (version == 0 || version > kWireVersion) {
    return Status::Corruption("unsupported wire protocol version " +
                              std::to_string(version));
  }
  MOPE_ASSIGN_OR_RETURN(uint8_t type, header.Byte());
  MOPE_ASSIGN_OR_RETURN(uint8_t flags, header.Byte());
  MOPE_ASSIGN_OR_RETURN(uint8_t reserved, header.Byte());
  // Version 1 predates the flags byte: both bytes are reserved-zero there.
  // In version 2, an unknown flag bit would change the framing underneath
  // us, so it is Corruption, not something to ignore.
  constexpr uint8_t kKnownFlags = kFrameFlagHasTraceId | kFrameFlagHasProfile;
  if (version == 1 ? flags != 0 : (flags & ~kKnownFlags) != 0) {
    return Status::Corruption(version == 1
                                  ? "nonzero reserved bytes in frame header"
                                  : "unknown frame flags");
  }
  if (reserved != 0) {
    return Status::Corruption("nonzero reserved bytes in frame header");
  }
  MOPE_ASSIGN_OR_RETURN(uint32_t length, header.U32());
  if (length > kMaxPayloadBytes) {
    return Status::Corruption("oversized frame payload (" +
                              std::to_string(length) + " bytes)");
  }
  MOPE_ASSIGN_OR_RETURN(uint32_t crc, header.U32());
  Frame frame;
  frame.type = type;
  // Extensions sit between the header and the payload in flag-bit order;
  // the profile one is length-prefixed, so framing is discovered in stages.
  size_t offset = kFrameHeaderBytes;
  if ((flags & kFrameFlagHasTraceId) != 0) {
    if (bytes.size() < offset + kTraceIdBytes) {
      return Status::Unavailable("incomplete frame payload");
    }
    ByteReader ext(bytes.substr(offset, kTraceIdBytes), "wire frame");
    MOPE_ASSIGN_OR_RETURN(frame.trace_id, ext.U64());
    offset += kTraceIdBytes;
  }
  if ((flags & kFrameFlagHasProfile) != 0) {
    frame.has_profile = true;
    if (bytes.size() < offset + kProfileLengthBytes) {
      return Status::Unavailable("incomplete frame payload");
    }
    ByteReader ext(bytes.substr(offset, kProfileLengthBytes), "wire frame");
    MOPE_ASSIGN_OR_RETURN(uint32_t profile_len, ext.U32());
    if (profile_len > kMaxPayloadBytes) {
      return Status::Corruption("oversized profile extension (" +
                                std::to_string(profile_len) + " bytes)");
    }
    offset += kProfileLengthBytes;
    if (bytes.size() < offset + profile_len) {
      return Status::Unavailable("incomplete frame payload");
    }
    frame.profile.assign(bytes.substr(offset, profile_len));
    offset += profile_len;
  }
  if (bytes.size() - offset < length) {
    return Status::Unavailable("incomplete frame payload");
  }
  const std::string_view payload = bytes.substr(offset, length);
  if (Crc32(payload) != crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  if (consumed != nullptr) *consumed = offset + length;
  frame.payload.assign(payload);
  return frame;
}

namespace {

/// Reads exactly `n` more bytes into `out`. `at_boundary` distinguishes a
/// clean EOF before any header byte (peer hung up between requests) from a
/// stream cut mid-frame.
Status ReadExact(Transport* transport, size_t n, std::string* out,
                 bool at_boundary) {
  size_t got = 0;
  char buf[4096];
  while (got < n) {
    MOPE_ASSIGN_OR_RETURN(
        size_t chunk, transport->Read(buf, std::min(n - got, sizeof(buf))));
    if (chunk == 0) {
      return (at_boundary && got == 0)
                 ? Status::Unavailable("connection closed")
                 : Status::Unavailable("connection closed mid-frame");
    }
    out->append(buf, chunk);
    got += chunk;
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFrameBytes(Transport* transport) {
  std::string raw;
  raw.reserve(kFrameHeaderBytes);
  MOPE_RETURN_NOT_OK(
      ReadExact(transport, kFrameHeaderBytes, &raw, /*at_boundary=*/true));
  // Vet the header far enough to learn the payload length; full validation
  // (CRC included) happens in DecodeFrame once the bytes are in hand.
  ByteReader header(raw, "wire frame");
  MOPE_ASSIGN_OR_RETURN(uint32_t magic, header.U32());
  if (magic != kWireMagic) {
    return Status::Corruption("bad wire magic");
  }
  MOPE_ASSIGN_OR_RETURN(uint8_t version, header.Byte());
  if (version == 0 || version > kWireVersion) {
    return Status::Corruption("unsupported wire protocol version " +
                              std::to_string(version));
  }
  MOPE_RETURN_NOT_OK(header.Byte().status());  // type: dispatcher's problem
  MOPE_ASSIGN_OR_RETURN(uint8_t flags, header.Byte());
  MOPE_RETURN_NOT_OK(header.Byte().status());  // reserved, checked on decode
  MOPE_ASSIGN_OR_RETURN(uint32_t length, header.U32());
  if (length > kMaxPayloadBytes) {
    return Status::Corruption("oversized frame payload (" +
                              std::to_string(length) + " bytes)");
  }
  // The flags byte tells us how many extension bytes precede the payload;
  // flag *validity* is DecodeFrame's job once everything is in hand. The
  // profile extension is length-prefixed, so its prefix is read first.
  const size_t fixed_ext =
      (version >= 2 && (flags & kFrameFlagHasTraceId) != 0) ? kTraceIdBytes
                                                            : 0;
  const bool has_profile =
      version >= 2 && (flags & kFrameFlagHasProfile) != 0;
  MOPE_RETURN_NOT_OK(ReadExact(
      transport, fixed_ext + (has_profile ? kProfileLengthBytes : 0), &raw,
      /*at_boundary=*/false));
  size_t profile_len = 0;
  if (has_profile) {
    ByteReader plen(std::string_view(raw).substr(
                        kFrameHeaderBytes + fixed_ext, kProfileLengthBytes),
                    "wire frame");
    MOPE_ASSIGN_OR_RETURN(uint32_t len32, plen.U32());
    if (len32 > kMaxPayloadBytes) {
      return Status::Corruption("oversized profile extension (" +
                                std::to_string(len32) + " bytes)");
    }
    profile_len = len32;
  }
  MOPE_RETURN_NOT_OK(
      ReadExact(transport, profile_len + length, &raw, /*at_boundary=*/false));
  return raw;
}

Result<Frame> ReadFrame(Transport* transport) {
  MOPE_ASSIGN_OR_RETURN(std::string raw, ReadFrameBytes(transport));
  return DecodeFrame(raw, nullptr);
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
/// reply costs its bytes rather than a call per byte. `row_of(entry)` is
/// the row of one (id, row-or-pointer) entry.
template <typename Rows, typename RowOf>
std::string EncodeReplyRows(const Rows& rows, RowOf row_of) {
  size_t size = 8;
  for (const auto& entry : rows) {
    size += 12;
    for (const engine::Value& v : row_of(entry)) size += EncodedSize(v);
  }
  std::string out(size, '\0');
  char* p = StoreU64(out.data(), rows.size());
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
      rows, [](const auto& entry) -> const engine::Row& { return entry.second; });
}

std::string EncodeRangeBatchReply(const RowRefs& rows) {
  return EncodeReplyRows(rows, [](const auto& entry) -> const engine::Row& {
    return *entry.second;
  });
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
