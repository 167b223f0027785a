#include "proxy/proxy.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace mope::proxy {

using query::FixedQuery;
using query::QueryKind;
using query::RangeQuery;

namespace {

Status ValidateProxyConfig(const ProxyConfig& config,
                           const ope::OpeParams& params) {
  if (params.domain != config.domain) {
    return Status::InvalidArgument("scheme domain must match proxy domain");
  }
  if (config.k == 0 || config.k > config.domain) {
    return Status::InvalidArgument("fixed length k must be in [1, domain]");
  }
  if (config.batch_size == 0) {
    return Status::InvalidArgument("batch size must be positive");
  }
  return Status::OK();
}

/// For each batch of a query, the part of the client's encrypted range that
/// the batch is the first to cover, as sorted disjoint half-open offsets
/// from the range's start. An honest server returns a row once in every
/// batch whose ranges hold its key ciphertext, so a row's first copy is the
/// one whose ciphertext lies in its batch's part. Testing that keeps
/// exactly the rows a dedup by row id would keep, without looking anything
/// up while replies arrive, and the kept rows never exceed the answer.
class FirstCover {
 public:
  FirstCover(const ModularInterval& want,
             std::span<const std::vector<ModularInterval>> batches)
      : start_(want.start()), length_(want.length()), domain_(want.domain()) {
    std::vector<Span> covered;  // every earlier batch's cover
    std::vector<Span> cover;    // this batch's cover
    std::vector<Span> merged;
    for (const std::vector<ModularInterval>& ranges : batches) {
      cover.clear();
      for (const ModularInterval& range : ranges) AddPieces(range, &cover);
      Normalize(&cover);
      begin_.push_back(spans_.size());
      // This batch's part: its cover minus every earlier cover.
      auto done = covered.begin();
      for (auto [lo, hi] : cover) {
        while (done != covered.end() && done->second <= lo) ++done;
        for (auto it = done; it != covered.end() && it->first < hi; ++it) {
          if (it->first > lo) spans_.emplace_back(lo, it->first);
          lo = std::max(lo, it->second);
        }
        if (lo < hi) spans_.emplace_back(lo, hi);
      }
      merged.clear();
      std::merge(covered.begin(), covered.end(), cover.begin(), cover.end(),
                 std::back_inserter(merged));
      Normalize(&merged);
      covered.swap(merged);
    }
    begin_.push_back(spans_.size());
  }

  /// Whether `cipher` lies in batch `b`'s part.
  bool Contains(size_t b, uint64_t cipher) const {
    if (cipher >= domain_) return false;
    const uint64_t offset =
        cipher >= start_ ? cipher - start_ : cipher + (domain_ - start_);
    if (offset >= length_) return false;
    const auto first = spans_.begin() + static_cast<ptrdiff_t>(begin_[b]);
    const auto last = spans_.begin() + static_cast<ptrdiff_t>(begin_[b + 1]);
    auto it = std::upper_bound(
        first, last, offset,
        [](uint64_t x, const Span& span) { return x < span.first; });
    return it != first && offset < std::prev(it)->second;
  }

 private:
  using Span = std::pair<uint64_t, uint64_t>;

  /// Appends the offsets of `range` that fall in the client's range (up to
  /// two pieces: the range may wrap past the client range's start).
  void AddPieces(const ModularInterval& range, std::vector<Span>* out) const {
    const uint64_t begin = range.start() >= start_
                               ? range.start() - start_
                               : range.start() + (domain_ - start_);
    const uint64_t end = begin + range.length();  // <= 2 * domain_
    if (begin < length_) {
      out->emplace_back(begin, std::min({end, domain_, length_}));
    }
    if (end > domain_) out->emplace_back(0, std::min(end - domain_, length_));
  }

  /// Sorts `spans` and merges the ones that overlap or touch.
  static void Normalize(std::vector<Span>* spans) {
    std::sort(spans->begin(), spans->end());
    size_t out = 0;
    for (const Span& span : *spans) {
      if (out > 0 && span.first <= (*spans)[out - 1].second) {
        (*spans)[out - 1].second =
            std::max((*spans)[out - 1].second, span.second);
      } else {
        (*spans)[out++] = span;
      }
    }
    spans->resize(out);
  }

  uint64_t start_;
  uint64_t length_;
  uint64_t domain_;
  std::vector<Span> spans_;    ///< Every batch's part, batch after batch.
  std::vector<size_t> begin_;  ///< Batch b's part: [begin_[b], begin_[b+1]).
};

}  // namespace

Proxy::Proxy(const ProxyConfig& config, ope::MopeScheme mope,
             std::unique_ptr<ServerConnection> connection,
             engine::DbServer* server)
    : config_(config), mope_(std::move(mope)),
      connection_(std::move(connection)), server_(server),
      rng_(config.rng_seed) {
  obs::MetricsRegistry* registry =
      config_.registry != nullptr ? config_.registry : obs::Registry();
  real_queries_ = registry->GetCounter("proxy.real_queries");
  fake_queries_ = registry->GetCounter("proxy.fake_queries");
  server_requests_ = registry->GetCounter("proxy.server_requests");
  rows_received_ = registry->GetCounter("proxy.rows_received");
  rows_returned_ = registry->GetCounter("proxy.rows_returned");
  retries_ = registry->GetCounter("proxy.retries");
  batch_queries_hist_ = registry->GetHistogram("proxy.batch_queries");
  mix_fakes_per_real_ =
      registry->GetGauge("proxy.mix.fakes_per_real_milli");
  mix_expected_fakes_ =
      registry->GetGauge("proxy.mix.expected_fakes_per_real_milli");
  mix_sampler_tv_ = registry->GetGauge("proxy.mix.sampler_tv_milli");
}

void Proxy::UpdateMixHealthLocked() {
  if (totals_.real_queries_sent > 0) {
    const double realized =
        static_cast<double>(totals_.fake_queries_sent) /
        static_cast<double>(totals_.real_queries_sent);
    mix_fakes_per_real_->Set(static_cast<int64_t>(realized * 1000.0 + 0.5));
  }
  const dist::MixPlan* plan =
      algorithm_ != nullptr ? algorithm_->mix_plan() : nullptr;
  if (plan == nullptr) return;
  mix_expected_fakes_->Set(
      static_cast<int64_t>(plan->expected_fakes_per_real() * 1000.0 + 0.5));
  // Sampler drift: total variation between the empirical distribution of
  // everything issued (real + fake starts) and the plan's perceived target.
  // This is the exact quantity the mixing identity alpha*Q + (1-alpha)*Qbar
  // promises tends to 0 — drift here means the fake sampler (or the assumed
  // Q) is wrong, and the server-side chi-square will eventually agree.
  if (issued_starts_.total() > 0 &&
      issued_starts_.size() == plan->perceived.size()) {
    double tv = 0.0;
    for (uint64_t i = 0; i < issued_starts_.size(); ++i) {
      tv += std::abs(issued_starts_.Probability(i) - plan->perceived.prob(i));
    }
    tv *= 0.5;
    mix_sampler_tv_->Set(static_cast<int64_t>(tv * 1000.0 + 0.5));
  }
}

Result<std::unique_ptr<Proxy>> Proxy::Create(const ProxyConfig& config,
                                             ope::MopeScheme mope,
                                             engine::DbServer* server,
                                             const dist::Distribution* known_q) {
  if (server == nullptr) {
    return Status::InvalidArgument("proxy needs a server");
  }
  return Build(config, std::move(mope),
               std::make_unique<DirectConnection>(server), server, known_q);
}

Result<std::unique_ptr<Proxy>> Proxy::Create(
    const ProxyConfig& config, ope::MopeScheme mope,
    std::unique_ptr<ServerConnection> connection,
    const dist::Distribution* known_q) {
  if (connection == nullptr) {
    return Status::InvalidArgument("proxy needs a server connection");
  }
  return Build(config, std::move(mope), std::move(connection), nullptr,
               known_q);
}

Result<std::unique_ptr<Proxy>> Proxy::Build(
    const ProxyConfig& config, ope::MopeScheme mope,
    std::unique_ptr<ServerConnection> connection, engine::DbServer* server,
    const dist::Distribution* known_q) {
  MOPE_RETURN_NOT_OK(ValidateProxyConfig(config, mope.params()));
  auto proxy = std::unique_ptr<Proxy>(
      new Proxy(config, std::move(mope), std::move(connection), server));

  // Resolve the key column up front so result filtering is cheap.
  MOPE_ASSIGN_OR_RETURN(engine::Schema schema,
                        proxy->connection_->GetSchema(config.table));
  MOPE_ASSIGN_OR_RETURN(proxy->key_column_index_,
                        schema.IndexOf(config.column));
  if (schema.column(proxy->key_column_index_).type !=
      engine::ValueType::kInt) {
    return Status::InvalidArgument("encrypted key column must be int");
  }
  MOPE_RETURN_NOT_OK(proxy->SetupAlgorithm(known_q));
  return proxy;
}

Status Proxy::SetupAlgorithm(const dist::Distribution* known_q) {
  const query::QueryConfig qc{config_.domain, config_.k};
  switch (config_.mode) {
    case QueryMode::kPassthrough:
      break;  // no algorithm: τk pieces are sent as-is
    case QueryMode::kUniform: {
      if (known_q == nullptr) {
        return Status::InvalidArgument(
            "QueryU needs the query-start distribution");
      }
      MOPE_ASSIGN_OR_RETURN(algorithm_,
                            query::UniformQueryAlgorithm::Create(qc, *known_q));
      break;
    }
    case QueryMode::kPeriodic: {
      if (known_q == nullptr) {
        return Status::InvalidArgument(
            "QueryP needs the query-start distribution");
      }
      MOPE_ASSIGN_OR_RETURN(
          algorithm_,
          query::PeriodicQueryAlgorithm::Create(qc, *known_q, config_.period));
      break;
    }
    case QueryMode::kAdaptiveUniform: {
      MOPE_ASSIGN_OR_RETURN(algorithm_,
                            query::AdaptiveQueryAlgorithm::Create(qc, 0));
      break;
    }
    case QueryMode::kAdaptivePeriodic: {
      MOPE_ASSIGN_OR_RETURN(
          algorithm_,
          query::AdaptiveQueryAlgorithm::Create(qc, config_.period));
      break;
    }
  }
  return Status::OK();
}

Status Proxy::SendBatches(
    std::span<const std::vector<ModularInterval>> batches,
    const BatchVisitor& visit) {
  uint32_t attempt = 0;  // retries of the first batch not yet visited
  while (true) {
    const BatchesResult result = connection_->ExecuteRangeBatches(
        config_.table, config_.column, batches, visit);
    if (result.status.ok()) return Status::OK();
    batches = batches.subspan(result.completed);
    if (result.completed > 0) attempt = 0;
    if (attempt >= config_.max_retries) return result.status;
    ++attempt;
    ++retries_performed_;
    retries_->Increment();
    obs::ChargeCost(&obs::QueryCost::proxy_retries);
  }
}

Result<uint64_t> Proxy::RotateKey(mope::BitSource* entropy) {
  const MutexLock lock(&mutex_);
  if (server_ == nullptr) {
    return Status::NotSupported(
        "key rotation requires maintenance access to the embedded server");
  }
  const ope::MopeKey new_key = ope::MopeKey::Generate(config_.domain, entropy);
  MOPE_ASSIGN_OR_RETURN(ope::MopeScheme new_scheme,
                        ope::MopeScheme::Create(mope_.params(), new_key,
                                                config_.registry));

  MOPE_ASSIGN_OR_RETURN(engine::Table * table,
                        server_->catalog()->GetTable(config_.table));
  for (engine::RowId rid = 0; rid < table->row_count(); ++rid) {
    const int64_t old_cipher =
        std::get<int64_t>(table->row(rid)[key_column_index_]);
    MOPE_ASSIGN_OR_RETURN(uint64_t plain,
                          mope_.Decrypt(static_cast<uint64_t>(old_cipher)));
    MOPE_ASSIGN_OR_RETURN(uint64_t new_cipher, new_scheme.Encrypt(plain));
    MOPE_RETURN_NOT_OK(table->UpdateValue(rid, key_column_index_,
                                          static_cast<int64_t>(new_cipher)));
  }
  const uint64_t rotated = table->row_count();
  mope_ = std::move(new_scheme);
  return rotated;
}

Result<QueryResponse> Proxy::ExecuteRange(const RangeQuery& q) {
  const MutexLock lock(&mutex_);
  if (q.first > q.last || q.last >= config_.domain) {
    return Status::InvalidArgument("range query endpoints invalid");
  }

  // 1-2-3: decompose, mix with fakes, permute.
  std::vector<FixedQuery> batch;
  {
    const obs::ScopedSpan span("proxy.sample");
    if (algorithm_ != nullptr) {
      MOPE_ASSIGN_OR_RETURN(batch, algorithm_->Process(q, &rng_));
    } else {
      batch = query::Decompose(q, config_.k, config_.domain);
    }
  }
  batch_queries_hist_->Observe(batch.size());

  // The issued-start histogram only exists to feed the sampler-TV gauge, so
  // it is allocated on the first query that has a plan to compare against
  // (adaptive algorithms gain one mid-stream, at the cross-over freeze).
  if (issued_starts_.size() == 0 && algorithm_ != nullptr &&
      algorithm_->mix_plan() != nullptr) {
    issued_starts_ = Histogram(config_.domain);
  }

  QueryResponse response;
  for (const FixedQuery& fq : batch) {
    if (fq.kind == QueryKind::kReal) {
      ++response.real_queries_sent;
    } else {
      ++response.fake_queries_sent;
    }
    // Bounds-guarded: an algorithm bug emitting an out-of-domain start must
    // degrade the TV gauge, not abort the client on the histogram CHECK.
    if (fq.start < issued_starts_.size()) issued_starts_.Add(fq.start);
  }

  // 4: encrypt every disjunctive batch, then ship them all in one call.
  // Since MOPE preserves modular order, a row's plaintext lies in the
  // client's range iff its ciphertext lies in the range's encryption — so
  // results can be filtered in ciphertext space and only the rows that
  // match need the (much more expensive) decryption walk.
  const ModularInterval want =
      ModularInterval::FromEndpoints(q.first, q.last, config_.domain);
  MOPE_ASSIGN_OR_RETURN(ope::CipherRange want_cipher,
                        mope_.EncryptRange(want));
  const ModularInterval want_cipher_iv = ModularInterval::FromEndpoints(
      want_cipher.first, want_cipher.last, mope_.range());
  std::vector<std::vector<ModularInterval>> cipher_batches;
  cipher_batches.reserve((batch.size() + config_.batch_size - 1) /
                         config_.batch_size);
  {
    const obs::ScopedSpan span("proxy.encrypt");
    for (size_t offset = 0; offset < batch.size();
         offset += config_.batch_size) {
      const size_t end = std::min(batch.size(), offset + config_.batch_size);
      std::vector<ModularInterval>& cipher_ranges =
          cipher_batches.emplace_back();
      cipher_ranges.reserve(end - offset);
      for (size_t i = offset; i < end; ++i) {
        const ModularInterval plain =
            query::CoverageOf(batch[i], config_.k, config_.domain);
        MOPE_ASSIGN_OR_RETURN(ope::CipherRange cr, mope_.EncryptRange(plain));
        cipher_ranges.push_back(ModularInterval::FromEndpoints(
            cr.first, cr.last, mope_.range()));
      }
    }
  }

  // 5: per reply, only a key test and a row move. The server sees when each
  // request arrives, so nothing that depends on a reply's content (a
  // decryption, a dedup lookup) may run before the last request is out.
  // The key test is against the plan: it keeps a row only from the first
  // batch that covers its ciphertext, so duplicates are never kept.
  const FirstCover first_cover(want_cipher_iv, cipher_batches);
  size_t visited = 0;
  BatchRows kept;
  MOPE_RETURN_NOT_OK(SendBatches(
      cipher_batches, [&](BatchRows& rows) -> Status {
        for (auto& entry : rows) {
          const engine::Row& row = entry.second;
          const int64_t* cipher =
              key_column_index_ < row.size()
                  ? std::get_if<int64_t>(&row[key_column_index_])
                  : nullptr;
          if (cipher == nullptr) {
            return Status::Corruption("reply row has no integer key column");
          }
          if (first_cover.Contains(visited, static_cast<uint64_t>(*cipher))) {
            kept.push_back(std::move(entry));
          }
        }
        response.rows_received += rows.size();
        ++visited;
        return Status::OK();
      }));
  response.server_requests = cipher_batches.size();

  // 6: drop any row kept twice (a batch retried after a partial visit, or
  // a server that repeats a row), then decrypt the key column of the rest.
  {
    const obs::ScopedSpan span("proxy.decrypt_filter");
    std::unordered_set<engine::RowId> seen;
    for (auto& [rid, row] : kept) {
      if (!seen.insert(rid).second) continue;
      const int64_t cipher = std::get<int64_t>(row[key_column_index_]);
      MOPE_ASSIGN_OR_RETURN(uint64_t plain,
                            mope_.Decrypt(static_cast<uint64_t>(cipher)));
      row[key_column_index_] = static_cast<int64_t>(plain);
      response.rows.push_back(std::move(row));
    }
  }

  totals_.real_queries_sent += response.real_queries_sent;
  totals_.fake_queries_sent += response.fake_queries_sent;
  totals_.server_requests += response.server_requests;
  totals_.rows_received += response.rows_received;
  real_queries_->Increment(response.real_queries_sent);
  fake_queries_->Increment(response.fake_queries_sent);
  server_requests_->Increment(response.server_requests);
  rows_received_->Increment(response.rows_received);
  rows_returned_->Increment(response.rows.size());
  UpdateMixHealthLocked();
  return response;
}

}  // namespace mope::proxy
