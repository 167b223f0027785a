#include "crypto/prf.h"

#include <cstring>

#include "common/status.h"

namespace mope::crypto {

Block Prf::Eval(const uint8_t* data, size_t len) const {
  Block state{};  // zero IV
  // First block: 8-byte big-endian length, 8 bytes of message (zero-padded).
  Block frame{};
  const uint64_t len64 = static_cast<uint64_t>(len);
  for (int i = 0; i < 8; ++i) {
    frame[i] = static_cast<uint8_t>(len64 >> (56 - 8 * i));
  }
  size_t pos = 0;  // next message byte to consume
  size_t frame_off = 8;
  while (true) {
    while (frame_off < 16 && pos < len) frame[frame_off++] = data[pos++];
    // Zero-pad the tail of the final frame (frame was zero-initialized only
    // once, so clear explicitly on reuse).
    while (frame_off < 16) frame[frame_off++] = 0;
    for (int i = 0; i < 16; ++i) state[i] ^= frame[i];
    state = aes_.EncryptBlock(state);
    if (pos >= len) break;
    frame_off = 0;
  }
  return state;
}

TagBuilder& TagBuilder::AppendU64(uint64_t v) {
  MOPE_CHECK(kCapacity - size_ >= 8, "PRF tag exceeds its fixed capacity");
  for (int i = 0; i < 8; ++i) {
    bytes_[size_++] = static_cast<uint8_t>(v >> (56 - 8 * i));
  }
  return *this;
}

TagBuilder& TagBuilder::AppendBytes(const uint8_t* data, size_t len) {
  MOPE_CHECK(kCapacity - size_ >= len, "PRF tag exceeds its fixed capacity");
  if (len > 0) std::memcpy(bytes_.data() + size_, data, len);
  size_ += len;
  return *this;
}

}  // namespace mope::crypto
