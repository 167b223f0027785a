#include "ope/ope.h"

#include <algorithm>
#include <string>

#include "crypto/drbg.h"
#include "crypto/hgd.h"
#include "obs/trace.h"

namespace mope::ope {

namespace {

// Domain-separation labels for PRF tags.
constexpr uint8_t kLeafLabel = 0x4C;   // 'L'
constexpr uint8_t kSplitLabel = 0x53;  // 'S'

// Per-node coin budget. A hypergeometric draw consumes exactly one 64-bit
// word and leaf placement uses rejection sampling with expected < 2 words,
// so 64 words is unreachable by correct code; hitting it means a logic bug,
// which must surface as a Status instead of a ciphertext derived from a
// dead stream.
constexpr uint64_t kCoinBudget = 64;

}  // namespace

uint64_t SuggestRange(uint64_t domain) {
  MOPE_CHECK(domain > 0, "domain must be positive");
  uint64_t n = 1;
  while (n < 8 * domain) n <<= 1;
  return n;
}

OpeKey OpeKey::Generate(mope::BitSource* entropy) {
  OpeKey key;
  for (int i = 0; i < 2; ++i) {
    const uint64_t w = entropy->NextWord();
    for (int b = 0; b < 8; ++b) {
      key.prf_key[8 * i + b] = static_cast<uint8_t>(w >> (8 * b));
    }
  }
  return key;
}

OpeScheme::OpeScheme(const OpeParams& params, const OpeKey& key,
                     obs::MetricsRegistry* registry)
    : params_(params), prf_(key.prf_key) {
  if (registry == nullptr) registry = obs::Registry();
  encrypt_calls_ = registry->GetCounter("ope.encrypt_calls");
  decrypt_calls_ = registry->GetCounter("ope.decrypt_calls");
  hgd_draws_ = registry->GetCounter("ope.hgd_draws");
}

Result<OpeScheme> OpeScheme::Create(const OpeParams& params, const OpeKey& key,
                                    obs::MetricsRegistry* registry) {
  if (params.domain == 0) {
    return Status::InvalidArgument("OPE domain must be positive");
  }
  if (params.range < params.domain) {
    return Status::InvalidArgument(
        "OPE range (" + std::to_string(params.range) +
        ") must be at least the domain (" + std::to_string(params.domain) + ")");
  }
  OpeScheme scheme(params, key, registry);
  if (params.domain <= kMaxTableDomain) {
    MOPE_ASSIGN_OR_RETURN(Table table, scheme.BuildTable());
    scheme.table_ = std::make_shared<const Table>(std::move(table));
  }
  return scheme;
}

Result<uint64_t> OpeScheme::SampleSplit(uint64_t dlo, uint64_t m_count,
                                        uint64_t rlo, uint64_t n_count,
                                        uint64_t draws) const {
  hgd_draws_->Increment();
  obs::ChargeCost(&obs::QueryCost::ope_hgd_draws);
  crypto::TagBuilder tag(kSplitLabel);
  tag.AppendU64(dlo).AppendU64(m_count).AppendU64(rlo).AppendU64(n_count);
  const crypto::Block seed = prf_.Eval(tag.data(), tag.size());
  crypto::CtrDrbg coins(seed);
  mope::BoundedBitSource bounded(&coins, kCoinBudget);
  return crypto::HgdSample(n_count, m_count, draws, &bounded);
}

Result<uint64_t> OpeScheme::LeafCiphertext(uint64_t dlo, uint64_t rlo,
                                           uint64_t n_count) const {
  crypto::TagBuilder tag(kLeafLabel);
  tag.AppendU64(dlo).AppendU64(rlo).AppendU64(n_count);
  const crypto::Block seed = prf_.Eval(tag.data(), tag.size());
  crypto::CtrDrbg coins(seed);
  mope::BoundedBitSource bounded(&coins, kCoinBudget);
  const uint64_t offset = bounded.UniformUint64(n_count);
  if (bounded.exhausted()) {
    return Status::Internal("leaf coin stream exhausted");
  }
  return rlo + offset;
}

template <typename Enter, typename OnLeaf>
Status OpeScheme::Walk(const Node& node, Enter& enter, OnLeaf& on_leaf) const {
  if (node.m_count == 0) return Status::OK();
  if (node.m_count == 1) {
    MOPE_ASSIGN_OR_RETURN(const uint64_t c,
                          LeafCiphertext(node.dlo, node.rlo, node.n_count));
    on_leaf(node.dlo, c);
    return Status::OK();
  }
  const uint64_t draws = node.n_count / 2;
  MOPE_ASSIGN_OR_RETURN(
      const uint64_t x,
      SampleSplit(node.dlo, node.m_count, node.rlo, node.n_count, draws));
  const Node left{node.dlo, x, node.rlo, draws};
  const Node right{node.dlo + x, node.m_count - x, node.rlo + draws,
                   node.n_count - draws};
  if (enter(left)) MOPE_RETURN_NOT_OK(Walk(left, enter, on_leaf));
  if (enter(right)) MOPE_RETURN_NOT_OK(Walk(right, enter, on_leaf));
  return Status::OK();
}

Result<OpeScheme::Table> OpeScheme::BuildTable() const {
  Table table;
  table.reserve(params_.domain);
  auto enter = [](const Node&) { return true; };
  auto on_leaf = [&](uint64_t, uint64_t c) { table.push_back(c); };
  MOPE_RETURN_NOT_OK(Walk(Root(), enter, on_leaf));
  return table;
}

Result<OpeScheme::Landing> OpeScheme::Locate(uint64_t c) const {
  if (c >= params_.range) {
    return Status::OutOfRange("ciphertext " + std::to_string(c) +
                              " outside range of size " +
                              std::to_string(params_.range));
  }
  decrypt_calls_->Increment();
  obs::ChargeCost(&obs::QueryCost::ope_decrypt_calls);
  if (table_ != nullptr) {
    const auto it = std::lower_bound(table_->begin(), table_->end(), c);
    return Landing{static_cast<uint64_t>(it - table_->begin()),
                   it != table_->end() && *it == c};
  }
  // Descend into the child whose ciphertexts hold c. A child with no
  // plaintexts ends the walk: the first plaintext above c is its dlo.
  Landing landing;
  auto enter = [&](const Node& child) {
    if (c < child.rlo || c - child.rlo >= child.n_count) return false;
    landing.index = child.dlo;
    return true;
  };
  auto on_leaf = [&](uint64_t m, uint64_t leaf) {
    landing = Landing{leaf >= c ? m : m + 1, leaf == c};
  };
  MOPE_RETURN_NOT_OK(Walk(Root(), enter, on_leaf));
  return landing;
}

Result<uint64_t> OpeScheme::Encrypt(uint64_t m) const {
  if (m >= params_.domain) {
    return Status::OutOfRange("plaintext " + std::to_string(m) +
                              " outside domain of size " +
                              std::to_string(params_.domain));
  }
  encrypt_calls_->Increment();
  obs::ChargeCost(&obs::QueryCost::ope_encrypt_calls);
  if (table_ != nullptr) return (*table_)[m];
  uint64_t cipher = 0;
  auto enter = [m](const Node& child) {
    return m >= child.dlo && m - child.dlo < child.m_count;
  };
  auto on_leaf = [&](uint64_t, uint64_t c) { cipher = c; };
  MOPE_RETURN_NOT_OK(Walk(Root(), enter, on_leaf));
  return cipher;
}

Result<uint64_t> OpeScheme::Decrypt(uint64_t c) const {
  MOPE_ASSIGN_OR_RETURN(const Landing landing, Locate(c));
  if (!landing.exact) {
    return Status::Corruption("ciphertext is not in the image of the OPF");
  }
  return landing.index;
}

Result<uint64_t> OpeScheme::DecryptFloorCeil(uint64_t c) const {
  MOPE_ASSIGN_OR_RETURN(const Landing landing, Locate(c));
  return landing.index;
}

}  // namespace mope::ope
