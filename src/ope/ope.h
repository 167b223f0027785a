#ifndef MOPE_OPE_OPE_H_
#define MOPE_OPE_OPE_H_

/// \file ope.h
/// Order-preserving symmetric encryption (Boldyreva-Chenette-Lee-O'Neill,
/// EUROCRYPT 2009): the POPF-secure OPE scheme the paper builds MOPE on.
///
/// Plaintext space is {0, ..., M-1}, ciphertext space {0, ..., N-1} with
/// N >= M (the paper's theorems assume N >= 8M; `SuggestRange` returns such
/// an N). The key defines a uniformly random order-preserving function by
/// "lazy sampling": the ciphertext space is split at its midpoint, the number
/// of plaintexts falling left of the split is drawn from the exact
/// hypergeometric distribution using PRF-derived coins (so every walk
/// reconstructs the same function), and the recursion descends into the
/// halves. A leaf holding one plaintext places it uniformly in its slots.
///
/// Deterministic, stateless and key-only — no interaction. For domains up to
/// kMaxTableDomain, Create walks the whole tree once and keeps the function
/// as a table of M ciphertexts: Encrypt is a lookup and Decrypt a binary
/// search. Larger domains walk one root-to-leaf path per call, O(log N) HGD
/// draws. Both give the same function for the same key.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "crypto/aes.h"
#include "crypto/prf.h"
#include "obs/registry.h"

namespace mope::ope {

/// Domain/range sizes of an OPE instance.
struct OpeParams {
  uint64_t domain = 0;  ///< M: plaintexts are {0, ..., M-1}.
  uint64_t range = 0;   ///< N: ciphertexts are {0, ..., N-1}; N >= M.
};

/// Largest domain whose OPF is materialised as a table at Create. Every
/// domain the paper and the benches use is at most 10^4 values; at this
/// budget a table is 128 KB per key and takes one tree walk, ~2M PRF
/// evaluations, to build.
inline constexpr uint64_t kMaxTableDomain = uint64_t{1} << 14;

/// Returns a ciphertext-space size satisfying the N >= 8M requirement of the
/// paper's security theorems (rounded up to the next power of two).
uint64_t SuggestRange(uint64_t domain);

/// Secret key: one AES-128 key for the coin PRF.
struct OpeKey {
  crypto::Key128 prf_key{};

  /// Draws a fresh key from the given entropy source.
  static OpeKey Generate(mope::BitSource* entropy);
};

/// The OPE scheme. Immutable after construction and cheap to copy (copies
/// share the table); safe to share across threads for concurrent
/// Encrypt/Decrypt.
class OpeScheme {
 public:
  /// Validates parameters (0 < M <= N) and builds the scheme, including the
  /// table when M <= kMaxTableDomain; a failed table build is returned.
  /// `registry` receives the ope.* counter family (encrypt/decrypt calls,
  /// HGD draws); null selects the process-global obs::Registry().
  static Result<OpeScheme> Create(const OpeParams& params, const OpeKey& key,
                                  obs::MetricsRegistry* registry = nullptr);

  const OpeParams& params() const { return params_; }

  /// Encrypts plaintext m in {0, ..., M-1}.
  Result<uint64_t> Encrypt(uint64_t m) const;

  /// Decrypts ciphertext c in {0, ..., N-1}. Returns Corruption if c is not
  /// the encryption of any plaintext under this key.
  Result<uint64_t> Decrypt(uint64_t c) const;

  /// Decrypts a ciphertext that may not be a valid encryption, rounding to
  /// the *smallest plaintext m with Encrypt(m) >= c*; returns M when no such
  /// plaintext exists. This is what a client needs to translate an arbitrary
  /// ciphertext-space boundary back into plaintext space.
  Result<uint64_t> DecryptFloorCeil(uint64_t c) const;

 private:
  friend class OpeSchemeTestPeer;

  /// A node of the sampling tree: plaintexts [dlo, dlo + m_count) map into
  /// ciphertexts [rlo, rlo + n_count).
  struct Node {
    uint64_t dlo, m_count, rlo, n_count;
  };

  /// Where a ciphertext c falls among the image: `index` is the smallest
  /// plaintext whose encryption is >= c (M if none), `exact` whether that
  /// encryption equals c.
  struct Landing {
    uint64_t index = 0;
    bool exact = false;
  };

  using Table = std::vector<uint64_t>;

  OpeScheme(const OpeParams& params, const OpeKey& key,
            obs::MetricsRegistry* registry);

  Node Root() const { return Node{0, params_.domain, 0, params_.range}; }

  /// The one walk of the sampling tree, shared by the table build and the
  /// per-call path: depth-first and left to right from `node`, entering a
  /// child only when `enter(child)` holds and calling `on_leaf(m, c)` for
  /// every plaintext reached. Leaves are therefore visited in plaintext
  /// order. Defined in ope.cc, its only user.
  template <typename Enter, typename OnLeaf>
  Status Walk(const Node& node, Enter& enter, OnLeaf& on_leaf) const;

  /// Full walk: Encrypt(m) for every m, in order.
  Result<Table> BuildTable() const;

  /// Landing of c in {0, ..., N-1}, counted as one decryption: a binary
  /// search of the table, or a walk towards c.
  Result<Landing> Locate(uint64_t c) const;

  /// Number of plaintexts (out of `m_count` in this node) that the sampled
  /// OPF maps into the left `draws` ciphertext slots of this node. Errors
  /// (parameter violation, coin-budget exhaustion) propagate to the caller.
  Result<uint64_t> SampleSplit(uint64_t dlo, uint64_t m_count, uint64_t rlo,
                               uint64_t n_count, uint64_t draws) const;

  /// The ciphertext of the single plaintext in a leaf node (m_count == 1).
  Result<uint64_t> LeafCiphertext(uint64_t dlo, uint64_t rlo,
                                  uint64_t n_count) const;

  OpeParams params_;
  crypto::Prf prf_;
  /// Encrypt(m) for every m when M <= kMaxTableDomain, else null. Shared
  /// between copies; never mutated after Create.
  std::shared_ptr<const Table> table_;

  // ope.* metric handles (the registry owns the metrics; incrementing an
  // atomic counter through a const method keeps Encrypt/Decrypt shareable
  // across threads).
  obs::Counter* encrypt_calls_;
  obs::Counter* decrypt_calls_;
  obs::Counter* hgd_draws_;
};

}  // namespace mope::ope

#endif  // MOPE_OPE_OPE_H_
