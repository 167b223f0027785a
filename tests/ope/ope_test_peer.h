#ifndef MOPE_TESTS_OPE_OPE_TEST_PEER_H_
#define MOPE_TESTS_OPE_OPE_TEST_PEER_H_

/// \file ope_test_peer.h
/// Test-only access to OpeScheme's two evaluation paths, so tests can hold
/// the materialised table and the lazy tree walk of one key side by side.

#include <memory>
#include <utility>

#include "ope/ope.h"

namespace mope::ope {

class OpeSchemeTestPeer {
 public:
  static bool HasTable(const OpeScheme& scheme) {
    return scheme.table_ != nullptr;
  }

  /// A copy of `scheme` that answers every call by walking the tree.
  static OpeScheme WithoutTable(OpeScheme scheme) {
    scheme.table_.reset();
    return scheme;
  }

  /// Where c lands among `scheme`'s image (smallest plaintext whose
  /// encryption is >= c, and whether it equals c): the one lookup behind
  /// both Decrypt and DecryptFloorCeil.
  static auto Locate(const OpeScheme& scheme, uint64_t c) {
    return scheme.Locate(c);
  }

  /// A copy of `scheme` with its table built, whatever the domain size.
  static Result<OpeScheme> WithTable(OpeScheme scheme) {
    MOPE_ASSIGN_OR_RETURN(OpeScheme::Table table, scheme.BuildTable());
    scheme.table_ = std::make_shared<const OpeScheme::Table>(std::move(table));
    return scheme;
  }
};

}  // namespace mope::ope

#endif  // MOPE_TESTS_OPE_OPE_TEST_PEER_H_
