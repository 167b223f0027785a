#ifndef MOPE_ENGINE_CODEC_H_
#define MOPE_ENGINE_CODEC_H_

/// \file codec.h
/// Little-endian binary encoding of the engine's value types.
///
/// One codec, two consumers: the catalog snapshot format (engine/snapshot.h)
/// and the client/server wire protocol (net/wire.h) serialize `Value`s,
/// `Row`s and `Schema`s through these helpers, so a row laid down in a
/// snapshot and a row shipped over the wire are byte-identical. Writers are
/// infallible appends; the reader returns Corruption for every malformed
/// input (truncation, bad tags, out-of-bounds lengths) — it never aborts,
/// because both consumers decode bytes from untrusted media.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"
#include "engine/table.h"

namespace mope::engine {

// --- Writers (append to `out`) --------------------------------------------

void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);

/// u64 length prefix + raw bytes.
void PutString(std::string* out, const std::string& s);

/// 1-byte type tag (== ValueType) + payload: u64 for ints, IEEE-754 bits for
/// doubles, length-prefixed bytes for strings.
void PutValue(std::string* out, const Value& v);

// --- Direct stores (into a buffer sized in advance) -------------------------
//
// The same bytes as the Put* writers, for encoders that size a message once
// and then fill it: each writes at `out` and returns the end of what it
// wrote. The caller guarantees the room.

// Spelled out byte by byte (no loop) so the compiler merges the stores into
// one word store on a little-endian host, whatever the alignment.
inline char* StoreU32(char* out, uint32_t v) {
  out[0] = static_cast<char>(v);
  out[1] = static_cast<char>(v >> 8);
  out[2] = static_cast<char>(v >> 16);
  out[3] = static_cast<char>(v >> 24);
  return out + 4;
}

inline char* StoreU64(char* out, uint64_t v) {
  StoreU32(out, static_cast<uint32_t>(v));
  StoreU32(out + 4, static_cast<uint32_t>(v >> 32));
  return out + 8;
}

/// Bytes PutValue/StoreValue emit for `v`: the tag and a u64, plus the
/// string's bytes.
inline size_t EncodedSize(const Value& v) {
  const std::string* s = std::get_if<std::string>(&v);
  return 9 + (s != nullptr ? s->size() : 0);
}

inline char* StoreValue(char* out, const Value& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    *out = 0;
    return StoreU64(out + 1, static_cast<uint64_t>(*i));
  }
  if (const double* d = std::get_if<double>(&v)) {
    uint64_t bits;
    std::memcpy(&bits, d, 8);
    *out = 1;
    return StoreU64(out + 1, bits);
  }
  const std::string& s = std::get<std::string>(v);
  *out = 2;
  out = StoreU64(out + 1, s.size());
  std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

// --- Reader ---------------------------------------------------------------

/// Sequential decoder over a byte buffer. Every accessor bounds-checks and
/// returns Corruption on truncated or malformed input; `context` names the
/// medium ("snapshot", "wire frame") in error messages.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes, const char* context = "buffer")
      : bytes_(bytes), context_(context) {}

  Result<uint8_t> Byte();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<std::string> String();
  Result<Value> ReadValue();

  /// Fast path for the fixed-width tags: when the next value is an int or a
  /// double and all nine of its bytes are present, appends it to `row` and
  /// returns true. Otherwise consumes nothing and returns false, and
  /// ReadValue decodes the value or reports why it cannot — so a caller
  /// that falls back to ReadValue sees exactly ReadValue's outcomes.
  bool TryAppendFixedValue(Row* row) {
    if (bytes_.size() - pos_ < 9) return false;
    const char* p = bytes_.data() + pos_;
    const uint64_t bits = LoadU64(p + 1);
    if (p[0] == 0) {
      row->emplace_back(static_cast<int64_t>(bits));
    } else if (p[0] == 1) {
      double d;
      std::memcpy(&d, &bits, 8);
      row->emplace_back(d);
    } else {
      return false;
    }
    pos_ += 9;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status Truncated() const {
    return Status::Corruption(std::string(context_) + " truncated");
  }

  /// Little-endian words from byte loads, spelled out so the compiler
  /// merges them into one word load: no alignment or host byte order
  /// assumed.
  static uint32_t LoadU32(const char* p) {
    const auto* b = reinterpret_cast<const unsigned char*>(p);
    return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
           static_cast<uint32_t>(b[2]) << 16 |
           static_cast<uint32_t>(b[3]) << 24;
  }
  static uint64_t LoadU64(const char* p) {
    return LoadU32(p) | static_cast<uint64_t>(LoadU32(p + 4)) << 32;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  const char* context_;
};

}  // namespace mope::engine

#endif  // MOPE_ENGINE_CODEC_H_
