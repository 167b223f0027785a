#ifndef MOPE_CRYPTO_PRF_H_
#define MOPE_CRYPTO_PRF_H_

/// \file prf.h
/// Variable-input-length PRF built from AES-128.
///
/// Construction: length-prepended CBC-MAC. The input is framed as
/// (8-byte big-endian length || message || zero padding to a block
/// boundary); prepending the length makes the framed message space
/// prefix-free, under which CBC-MAC is a secure PRF for a PRP like AES.
///
/// The OPE scheme uses this PRF to derive the per-recursion-node coin
/// streams ("GetCoins" in Boldyreva et al.): the tag encodes the node
/// (domain interval, range interval, pivot), the PRF maps it to 16 bytes,
/// and those bytes seed a CTR DRBG (see drbg.h).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes.h"

namespace mope::crypto {

class Prf {
 public:
  explicit Prf(const Key128& key) : aes_(key) {}

  /// PRF output for an arbitrary byte string.
  Block Eval(const uint8_t* data, size_t len) const;

  Block Eval(const std::vector<uint8_t>& data) const {
    return Eval(data.data(), data.size());
  }

 private:
  Aes128 aes_;
};

/// Incremental builder for PRF tags: appends integers in a fixed-width
/// big-endian encoding so that structurally different tags never collide.
/// Tags live in a fixed inline buffer (the largest, an OPE split-node tag,
/// is a label plus four words), so building one never touches the heap.
class TagBuilder {
 public:
  static constexpr size_t kCapacity = 1 + 4 * 8;

  /// Starts a tag with a single-byte domain-separation label.
  explicit TagBuilder(uint8_t label) { bytes_[size_++] = label; }

  /// Appending past kCapacity is a programming error and aborts.
  TagBuilder& AppendU64(uint64_t v);
  TagBuilder& AppendBytes(const uint8_t* data, size_t len);

  const uint8_t* data() const { return bytes_.data(); }
  size_t size() const { return size_; }
  std::span<const uint8_t> bytes() const { return {bytes_.data(), size_}; }

 private:
  std::array<uint8_t, kCapacity> bytes_{};
  size_t size_ = 0;
};

}  // namespace mope::crypto

#endif  // MOPE_CRYPTO_PRF_H_
