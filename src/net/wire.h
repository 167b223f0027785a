#ifndef MOPE_NET_WIRE_H_
#define MOPE_NET_WIRE_H_

/// \file wire.h
/// The MOPE client/server wire protocol.
///
/// Every message travels in one length-prefixed binary frame:
///
///   offset  size  field
///        0     4  magic 0x4D4F5057 ("MOPW", little-endian u32)
///        4     1  protocol version (1 or kWireVersion)
///        5     1  message type
///        6     1  flags (version >= 2; must be zero in version 1)
///        7     1  reserved, must be zero
///        8     4  payload length (little-endian u32, <= kMaxPayloadBytes)
///       12     4  CRC-32 (IEEE) of the payload
///       16     …  extension fields selected by `flags`, then the payload
///
/// Version 2 adds two optional extensions between the header and payload,
/// in flag-bit order and excluded from both the payload length and the CRC:
///
///   kFrameFlagHasTraceId  an 8-byte little-endian trace id
///   kFrameFlagHasProfile  a u32 length followed by that many bytes of
///                         profile (StatsReply-encoded name/u64 pairs).
///                         On a request an empty profile section asks the
///                         server for this request's cost; the reply
///                         carries the server half of an obs::QueryCost
///                         back (EncodeProfileSection).
///
/// Frames that use no extension are still emitted as byte-identical
/// version-1 frames, so an old peer interoperates until tracing or
/// profiling is actually used; unknown flag bits are rejected as Corruption
/// rather than silently mis-framed.
///
/// Payloads are encoded with the same value codec as catalog snapshots
/// (engine/codec.h). Request/reply pairs mirror proxy::ServerConnection:
/// ExecuteRangeBatch, CountRangeBatch, GetSchema; any server-side error
/// comes back as a kStatusReply frame carrying the Status code and message.
///
/// Decoders never trust the peer: magic/version/reserved/length/CRC are all
/// checked before a payload byte is looked at, every payload field is
/// bounds-checked, and a ModularInterval is validated *before* construction
/// (the constructor MOPE_CHECKs, and a hostile frame must not abort the
/// process). Framing violations decode to Corruption; connection loss and
/// deadline expiry to Unavailable (the retryable class).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "engine/table.h"
#include "net/transport.h"
#include "obs/query_cost.h"

namespace mope::net {

inline constexpr uint32_t kWireMagic = 0x4D4F5057;  // "MOPW"
/// Newest protocol version this build speaks. Traceless frames are still
/// emitted as version 1 (see file comment).
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Flags byte (offset 6) bits understood by this build.
inline constexpr uint8_t kFrameFlagHasTraceId = 0x01;
inline constexpr uint8_t kFrameFlagHasProfile = 0x02;
inline constexpr size_t kTraceIdBytes = 8;
inline constexpr size_t kProfileLengthBytes = 4;
/// Upper bound on a payload; anything larger is rejected before allocation.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

enum class MessageType : uint8_t {
  kRangeBatchRequest = 1,  ///< body: RangeBatchRequest
  kRangeBatchReply = 2,    ///< body: rows with ids
  kCountBatchRequest = 3,  ///< body: RangeBatchRequest (count-only)
  kCountBatchReply = 4,    ///< body: u64 count
  kSchemaRequest = 5,      ///< body: table name
  kSchemaReply = 6,        ///< body: Schema
  kStatusReply = 7,        ///< body: non-OK Status (code + message)
  kStatsRequest = 8,       ///< body: empty; asks for the server's metrics
  kStatsReply = 9,         ///< body: StatsReply (sorted name/value pairs)
};

/// A decoded frame. `type` is the raw on-wire byte: framing layers pass
/// unknown types through so the dispatcher can answer them with a clean
/// Status instead of dropping the connection. `trace_id` is nonzero when the
/// peer stamped the frame with an active query trace (version-2 extension).
/// `has_profile` is true when the frame carried the profile extension —
/// empty on a request (meaning "profile me"), the request's server-side
/// cost on a reply.
struct Frame {
  uint8_t type = 0;
  uint64_t trace_id = 0;
  bool has_profile = false;
  std::string profile;  ///< StatsReply-encoded; meaningful iff has_profile.
  std::string payload;
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
uint32_t Crc32(std::string_view bytes);

/// Serializes one frame (header + payload). A frame using no extension
/// (zero `trace_id`, `has_profile` false) is emitted as a version-1 frame,
/// byte-identical to what older builds emit; any extension selects version
/// 2. `profile` is the StatsReply-encoded profile section (empty = request
/// for one). Precondition (MOPE_CHECKed): payload and profile each fit in
/// kMaxPayloadBytes — for unbounded or peer-influenced data use WriteFrame
/// (client side) or the dispatcher's reply cap (server side), which surface
/// overflow as a Status instead.
std::string EncodeFrame(MessageType type, std::string payload,
                        uint64_t trace_id = 0, bool has_profile = false,
                        std::string_view profile = {});

/// Bytes a frame spends before its payload: the header plus the extension
/// fields that `trace_id`, `has_profile` and a profile of `profile_size`
/// bytes select.
size_t FramePrefixBytes(uint64_t trace_id, bool has_profile,
                        size_t profile_size);

/// Completes a frame whose payload was encoded in place: `frame` holds
/// FramePrefixBytes(trace_id, has_profile, profile.size()) bytes of room,
/// then the payload. Writes the header and extensions into that room, so
/// the payload is never copied; the result is byte-identical to
/// EncodeFrame(type, payload, trace_id, has_profile, profile). Same
/// preconditions as EncodeFrame.
std::string SealFrame(MessageType type, std::string frame,
                      uint64_t trace_id = 0, bool has_profile = false,
                      std::string_view profile = {});

/// Validates and decodes the frame at the front of `bytes`; on success sets
/// `*consumed` to its total size. Corruption on any header/CRC violation;
/// Unavailable when `bytes` holds less than one whole frame (more input may
/// still arrive).
Result<Frame> DecodeFrame(std::string_view bytes, size_t* consumed);

/// Reads one frame off a transport: the header and extension fields into a
/// small buffer (checked by DecodeFrame's own parser), then the profile and
/// payload straight into the Frame, the CRC verified in place. Never reads
/// past the frame. Unavailable on timeout or connection loss; Corruption as
/// in DecodeFrame.
Result<Frame> ReadFrame(Transport* transport);

/// Encodes and writes one frame. InvalidArgument (no bytes written) when the
/// payload (or profile section) exceeds kMaxPayloadBytes.
Status WriteFrame(Transport* transport, MessageType type, std::string payload,
                  uint64_t trace_id = 0, bool has_profile = false,
                  std::string_view profile = {});

// --- Message bodies -------------------------------------------------------

/// ExecuteRangeBatch / CountRangeBatch request (they share a body; the frame
/// type selects rows-vs-count).
struct RangeBatchRequest {
  std::string table;
  std::string column;
  std::vector<ModularInterval> ranges;
};

using RowsWithIds = std::vector<std::pair<engine::RowId, engine::Row>>;
/// Rows by reference into a table, as a server sweep visits them; valid
/// while the table is not mutated.
using RowRefs = std::vector<std::pair<engine::RowId, const engine::Row*>>;

std::string EncodeRangeBatchRequest(const RangeBatchRequest& request);
Result<RangeBatchRequest> DecodeRangeBatchRequest(std::string_view payload);

/// u64 row count, then per row its u64 id, u32 width and codec values.
std::string EncodeRangeBatchReply(const RowsWithIds& rows);
/// The same bytes, encoded straight from table rows (no row copies), after
/// `headroom` bytes of room: the dispatcher reserves FramePrefixBytes there
/// and seals the reply frame around the body (SealFrame) without copying it.
std::string EncodeRangeBatchReply(const RowRefs& rows, size_t headroom = 0);
Result<RowsWithIds> DecodeRangeBatchReply(std::string_view payload);

std::string EncodeCountBatchReply(uint64_t count);
Result<uint64_t> DecodeCountBatchReply(std::string_view payload);

std::string EncodeSchemaRequest(const std::string& table);
Result<std::string> DecodeSchemaRequest(std::string_view payload);

std::string EncodeSchemaReply(const engine::Schema& schema);
Result<engine::Schema> DecodeSchemaReply(std::string_view payload);

/// Server metrics snapshot: name/value pairs sorted by name (the order
/// obs::MetricsRegistry::Snapshot produces). Histograms arrive flattened to
/// `<name>.count` / `<name>.sum` / `<name>.le.<bound>` entries.
using StatsReply = std::vector<std::pair<std::string, uint64_t>>;

std::string EncodeStatsReply(const StatsReply& stats);
Result<StatsReply> DecodeStatsReply(std::string_view payload);

/// A reply's profile section: the server half of `cost` and its trace id,
/// StatsReply-encoded in obs::kQueryCostFields order.
std::string EncodeProfileSection(const obs::QueryCost& cost);
/// Decodes a profile section into a fresh record, all or nothing. Only the
/// server-half names and the trace id are kept, merged entry by entry
/// (QueryCost::Merge); every other name is dropped, so a peer can neither
/// forge client-half fields nor add new ones. Corruption when the bytes are
/// not a StatsReply.
Result<obs::QueryCost> DecodeProfileSection(std::string_view section);

/// Precondition: !status.ok() (an OK status reply is meaningless on the wire
/// and is rejected by the decoder).
std::string EncodeStatusReply(const Status& status);

/// Decodes the carried error into `*out`; the return value reports decode
/// failures (out-param rather than Result<Status>, which would be ambiguous).
Status DecodeStatusReply(std::string_view payload, Status* out);

/// True when `status` is a transient transport failure worth retrying.
inline bool IsTransient(const Status& status) {
  return status.IsUnavailable();
}

}  // namespace mope::net

#endif  // MOPE_NET_WIRE_H_
