/// \file mope_perfbench.cc
/// End-to-end benchmark of encrypted TPC-H range queries.
///
///   mope_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  [--queries <n>] [--data-dir <dir>]
///
/// Three closed-loop, single-client workloads over TPC-H LINEITEM at
/// SF 0.002 (~12k rows) with l_shipdate MOPE-encrypted (domain M = 2,880),
/// Q14 template (one month per query, k = 30), QueryU, batch size 1, all
/// driven through the client entry point MopeSystem::Query:
///
///   q14_uniform      embedded server over DirectConnection (proxy-bound).
///   q14_uniform_tcp  a second MopeSystem attached to the loader's table
///                    (AttachRemoteTable with the loader's seed) over
///                    loopback TCP to an in-process net::TcpServer.
///   rotate_durable   q14_uniform's loop on a server whose storage was
///                    opened before the load, with MopeSystem::RotateKey
///                    after every 100 queries.
///
/// Every answer is checked against a plaintext oracle. With --trace 0 the
/// run sets up five times (median set-up time) and measures the end-to-end
/// metrics. With --trace 1 it sets up once, runs an untraced half and a
/// traced half, and reports the per-layer split: spans are taken only here,
/// around calls into each layer's public functions, and counts are read
/// from the registries the program publishes (MopeSystem::metrics(),
/// DbServer::metrics()). A counter missing from a registry is an error,
/// never a silent zero. --queries N runs exactly N queries per phase instead
/// of timing (the determinism self-test uses it).
///
/// The last line of stdout is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// The exit code is 0 only when every query and rotation was correct.

#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "dist/distribution.h"
#include "engine/server.h"
#include "net/remote_connection.h"
#include "net/server.h"
#include "obs/clock.h"
#include "proxy/connection.h"
#include "proxy/system.h"
#include "query/algorithms.h"
#include "workload/calendar.h"
#include "workload/tpch.h"

namespace mope::perfbench {
namespace {

using Snapshot = std::vector<std::pair<std::string, uint64_t>>;

constexpr const char* kTable = "lineitem";
constexpr const char* kColumn = "l_shipdate";
constexpr double kScaleFactor = 0.002;  // ~12k LINEITEM rows
constexpr uint64_t kK = 30;             // Q14: one month per query
constexpr size_t kSetupReps = 5;        // untraced runs report the median
constexpr uint64_t kMinQueries = 100;   // p90 keeps 10 samples above it
constexpr uint64_t kWarmupQueries = 5;  // verified, not timed
constexpr uint64_t kOpeSample = 2000;   // values per OPE timing pass
constexpr int kOpeRounds = 5;           // passes; the median is reported

// ---------------------------------------------------------------- helpers --

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: error: %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

uint64_t NowNs() { return obs::SystemClock()->NowNanos(); }

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// CPU time of the whole process: client and server threads alike.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ------------------------------------------------------------- registries --

/// Reads `name` from a registry snapshot. The counter names are the
/// program's published interface; when one disappears or is renamed the
/// benchmark must stop rather than report a zero.
uint64_t Read(const Snapshot& snap, const std::string& name) {
  const auto it = std::lower_bound(
      snap.begin(), snap.end(), name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  if (it == snap.end() || it->first != name) {
    Die("registry counter '" + name + "' is missing from the snapshot");
  }
  return it->second;
}

uint64_t Delta(const Snapshot& before, const Snapshot& after,
               const std::string& name) {
  return Read(after, name) - Read(before, name);
}

// ----------------------------------------------------------------- oracle --

/// Plaintext answer oracle: per-day row counts and per-day sums of a row
/// fingerprint, as prefix sums over the date domain. An answer is correct
/// when its size and fingerprint sum match the asked range and every
/// returned l_shipdate lies inside it.
class Oracle {
 public:
  explicit Oracle(const std::vector<engine::Row>& lineitem)
      : count_prefix_(workload::kTpchDateDomain + 1, 0),
        print_prefix_(workload::kTpchDateDomain + 1, 0) {
    for (const engine::Row& row : lineitem) {
      int64_t day = 0;
      uint64_t print = 0;
      if (!Decode(row, &day, &print) || day < 0 ||
          static_cast<uint64_t>(day) >= workload::kTpchDateDomain) {
        Die("generated LINEITEM row outside the oracle's shape");
      }
      ++count_prefix_[day + 1];
      print_prefix_[day + 1] += print;
    }
    for (uint64_t d = 0; d < workload::kTpchDateDomain; ++d) {
      count_prefix_[d + 1] += count_prefix_[d];
      print_prefix_[d + 1] += print_prefix_[d];
    }
  }

  bool Check(const query::RangeQuery& q,
             const std::vector<engine::Row>& rows) const {
    if (rows.size() != count_prefix_[q.last + 1] - count_prefix_[q.first]) {
      return false;
    }
    uint64_t sum = 0;
    for (const engine::Row& row : rows) {
      int64_t day = 0;
      uint64_t print = 0;
      if (!Decode(row, &day, &print) || day < static_cast<int64_t>(q.first) ||
          day > static_cast<int64_t>(q.last)) {
        return false;
      }
      sum += print;
    }
    return sum == print_prefix_[q.last + 1] - print_prefix_[q.first];
  }

 private:
  /// The row's l_shipdate and a fingerprint of order key, part key and
  /// commit date, so that a dropped, duplicated or substituted row changes
  /// the per-range sum. False when the row does not have LINEITEM's shape.
  static bool Decode(const engine::Row& row, int64_t* day, uint64_t* print) {
    using namespace workload::tpch_cols;
    const size_t cols[] = {kLShipDate, kLOrderKey, kLPartKey, kLCommitDate};
    int64_t v[4] = {};
    for (size_t i = 0; i < 4; ++i) {
      if (cols[i] >= row.size()) return false;
      const int64_t* x = std::get_if<int64_t>(&row[cols[i]]);
      if (x == nullptr) return false;
      v[i] = *x;
    }
    *day = v[0];
    SplitMix64 mix(static_cast<uint64_t>(v[1]));
    *print = mix.Next() ^ SplitMix64(static_cast<uint64_t>(v[2]) << 16 ^
                                     static_cast<uint64_t>(v[3])).Next();
    return true;
  }

  std::vector<uint64_t> count_prefix_;
  std::vector<uint64_t> print_prefix_;
};

// ------------------------------------------------------------ connection --

/// Spans of the client's connection: total time inside its range calls and,
/// when capturing, the cipher-range batches it carried.
struct ConnSpans {
  bool enabled = false;
  bool capture = false;
  uint64_t ns = 0;
  std::vector<std::vector<ModularInterval>> batches;
};

/// Decorator that times the wrapped connection's range calls. The proxy
/// calls it from the single client thread, so the spans need no lock.
class TimedConnection final : public proxy::ServerConnection {
 public:
  TimedConnection(std::unique_ptr<proxy::ServerConnection> inner,
                  ConnSpans* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  Result<std::vector<std::pair<engine::RowId, engine::Row>>> ExecuteRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges) override {
    if (!spans_->enabled) return inner_->ExecuteRangeBatch(table, column, ranges);
    const uint64_t start = NowNs();
    auto rows = inner_->ExecuteRangeBatch(table, column, ranges);
    spans_->ns += NowNs() - start;
    if (spans_->capture) spans_->batches.push_back(ranges);
    return rows;
  }

  Result<engine::Schema> GetSchema(const std::string& table) override {
    return inner_->GetSchema(table);
  }

 private:
  std::unique_ptr<proxy::ServerConnection> inner_;
  ConnSpans* spans_;
};

// -------------------------------------------------------------- workloads --

struct WorkloadSpec {
  const char* name;
  bool tcp;               ///< The client reaches the server over loopback TCP.
  bool durable;           ///< Storage opened before the load.
  uint64_t rotate_every;  ///< Queries between RotateKey calls (0: never).
};

constexpr WorkloadSpec kWorkloads[] = {
    {"q14_uniform", false, false, 0},
    {"q14_uniform_tcp", true, false, 0},
    {"rotate_durable", false, true, 100},
};

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t queries = 0;  ///< Per phase; 0 = run for `seconds`.
  std::string data_dir;
};

proxy::EncryptedColumnSpec ColumnSpec() {
  proxy::EncryptedColumnSpec spec;
  spec.column = kColumn;
  spec.domain = workload::kTpchDateDomain;
  spec.k = kK;
  spec.mode = proxy::QueryMode::kUniform;
  spec.batch_size = 1;
  return spec;
}

/// Start-point distribution of the Q14 template after τk decomposition
/// (what QueryU is configured with), computed exactly: workload::SampleQ14
/// draws one of 60 calendar months (1993..1997) uniformly. A sampled
/// histogram would make QueryU's mixing weight, and so the fake-query rate,
/// vary with the sampling noise of its largest bin.
dist::Distribution Q14Starts() {
  Histogram hist(workload::kTpchDateDomain);
  for (int year = 1993; year <= 1997; ++year) {
    for (int month = 1; month <= 12; ++month) {
      const workload::CivilDate next{month == 12 ? year + 1 : year, month % 12 + 1, 1};
      const query::RangeQuery q{workload::TpchDayIndex({year, month, 1}),
                                workload::TpchDayIndex(next) - 1};
      for (const auto& piece : query::Decompose(q, kK, workload::kTpchDateDomain)) {
        hist.Add(piece.start);
      }
    }
  }
  return Must(dist::Distribution::FromHistogram(hist), "Q14 start distribution");
}

/// One set-up of a workload: data, oracle, encrypted server and the client.
/// Members are destroyed bottom-up: the remote client disconnects before
/// the TCP server stops, and both go before the server they front.
struct Deployment {
  uint64_t rows = 0;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<dist::Distribution> starts;
  ConnSpans spans;  ///< Filled by the client's TimedConnection, if any.
  Rng queries{0};   ///< The client's query stream.
  uint64_t sampler_seed = 0;  ///< Coins for the standalone QueryU timing.
  std::unique_ptr<proxy::MopeSystem> loader;  ///< Owns the server.
  std::unique_ptr<net::TcpServer> tcp;
  std::unique_ptr<proxy::MopeSystem> remote;  ///< The TCP client's system.
  proxy::MopeSystem* client = nullptr;        ///< loader or remote.
  double generate_s = 0;
  double load_s = 0;
  double setup_s = 0;
};

std::unique_ptr<Deployment> SetUp(const Options& opt, const std::string& dir) {
  const WorkloadSpec& spec = *opt.spec;
  auto d = std::make_unique<Deployment>();
  const uint64_t start = NowNs();
  SplitMix64 seeds(opt.seed);

  workload::TpchConfig tpch;
  tpch.scale_factor = kScaleFactor;
  tpch.seed = seeds.Next();
  const workload::TpchData data = workload::GenerateTpch(tpch);
  d->generate_s = SecondsSince(start);
  d->rows = data.lineitem.size();
  d->oracle = std::make_unique<Oracle>(data.lineitem);
  d->starts = std::make_unique<dist::Distribution>(Q14Starts());
  d->queries = Rng(seeds.Next());
  d->sampler_seed = seeds.Next();

  const uint64_t system_seed = seeds.Next();
  d->loader = std::make_unique<proxy::MopeSystem>(system_seed);
  if (spec.durable) {
    // Flush policy: no fsync inside the load or a rotation; one group commit
    // (SyncStorage) at the end of each. Per-32-record fsyncs made rotation
    // time track the host's disk latency rather than the code.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) Die("create " + dir + ": " + ec.message());
    engine::DurableCatalog::Options storage;
    storage.wal_sync_every = 0;
    Must(d->loader->server()->OpenStorage(dir, storage), "open storage at " + dir);
  }
  // Traced q14_uniform routes the proxy through a timing decorator around
  // DirectConnection. That gives up RotateKey (it needs the proxy's own
  // DirectConnection), so rotate_durable runs undecorated.
  if (opt.trace && !spec.tcp && !spec.durable) {
    proxy::MopeSystem* system = d->loader.get();
    ConnSpans* spans = &d->spans;
    system->set_connection_factory(
        [system, spans]() -> Result<std::unique_ptr<proxy::ServerConnection>> {
          return std::unique_ptr<proxy::ServerConnection>(
              std::make_unique<TimedConnection>(
                  std::make_unique<proxy::DirectConnection>(system->server()), spans));
        });
  }
  const uint64_t load_start = NowNs();
  Must(d->loader->LoadTable(kTable, data.lineitem_schema, data.lineitem,
                            ColumnSpec(), d->starts.get()),
       "encrypted load");
  if (spec.durable) Must(d->loader->server()->SyncStorage(), "sync after load");
  d->load_s = SecondsSince(load_start);
  d->client = d->loader.get();

  if (spec.tcp) {
    net::TcpServerOptions server_options;
    server_options.num_workers = 1;
    d->tcp = Must(net::TcpServer::Start(d->loader->server(), server_options),
                  "start TCP server");
    // Same seed as the loader: AttachRemoteTable derives the same key.
    d->remote = std::make_unique<proxy::MopeSystem>(system_seed);
    d->client = d->remote.get();
    net::RemoteOptions remote;
    remote.port = d->tcp->port();
    remote.registry = d->remote->metrics();
    std::unique_ptr<proxy::ServerConnection> conn =
        std::make_unique<net::RemoteConnection>(remote);
    if (opt.trace) {
      conn = std::make_unique<TimedConnection>(std::move(conn), &d->spans);
    }
    Must(d->remote->AttachRemoteTable(kTable, ColumnSpec(), std::move(conn),
                                      d->starts.get()),
         "attach remote table");
  }
  d->setup_s = SecondsSince(start);
  return d;
}

// ------------------------------------------------------------ closed loop --

/// Counters attributed to rotations, so the query counts can exclude them.
const char* const kOpeCounters[] = {"ope.encrypt_calls", "ope.decrypt_calls",
                                    "ope.hgd_draws"};
const char* const kStorageCounters[] = {"storage.wal.bytes",
                                        "storage.disk.page_writes",
                                        "storage.wal.syncs",
                                        "storage.pool.misses"};

/// What the client observed in one phase, with registry snapshots around it.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<query::RangeQuery> issued;
  uint64_t queries = 0;
  uint64_t failed_queries = 0;
  uint64_t rows_received = 0;
  uint64_t rows_returned = 0;
  uint64_t server_requests = 0;
  uint64_t query_span_ns = 0;
  uint64_t rotations = 0;
  uint64_t failed_rotations = 0;
  uint64_t rows_rotated = 0;
  std::vector<double> rotate_ms;
  std::map<std::string, uint64_t> rotation_counts;  ///< OPE + storage deltas.
  double wall_s = 0;
  double cpu_s = 0;
  Snapshot client_before, client_after, server_before, server_after;

  uint64_t attempted() const {
    return queries + failed_queries + rotations + failed_rotations;
  }
  uint64_t failed() const { return failed_queries + failed_rotations; }
};

/// One RotateKey plus the group commit that makes it durable.
void Rotate(Deployment* d, Phase* out) {
  obs::MetricsRegistry* client_reg = d->client->metrics();
  obs::MetricsRegistry* server_reg = d->loader->server()->metrics();
  const Snapshot c0 = client_reg->Snapshot();
  const Snapshot s0 = server_reg->Snapshot();
  const uint64_t start = NowNs();
  const Result<uint64_t> rotated = d->client->RotateKey(kTable, kColumn);
  const Status synced = d->loader->server()->SyncStorage();
  const double ms = SecondsSince(start) * 1e3;
  const Snapshot c1 = client_reg->Snapshot();
  const Snapshot s1 = server_reg->Snapshot();
  if (!rotated.ok() || !synced.ok() || *rotated != d->rows) {
    ++out->failed_rotations;
    std::fprintf(stderr, "perfbench: rotation failed: %s\n",
                 !rotated.ok()  ? rotated.status().ToString().c_str()
                 : !synced.ok() ? synced.ToString().c_str()
                                : "wrong row count");
    return;
  }
  ++out->rotations;
  out->rows_rotated += *rotated;
  out->rotate_ms.push_back(ms);
  for (const char* name : kOpeCounters) {
    out->rotation_counts[name] += Delta(c0, c1, name);
  }
  for (const char* name : kStorageCounters) {
    out->rotation_counts[name] += Delta(s0, s1, name);
  }
}

/// Runs the client's closed loop for `seconds` (and at least kMinQueries),
/// or for exactly `max_queries` when that is non-zero.
Phase RunPhase(Deployment* d, const WorkloadSpec& spec, double seconds,
               uint64_t max_queries, bool traced) {
  Phase out;
  d->spans = ConnSpans{};
  d->spans.enabled = traced;
  d->spans.capture = traced && spec.tcp;
  out.client_before = d->client->metrics()->Snapshot();
  out.server_before = d->loader->server()->metrics()->Snapshot();
  const double cpu_begin = ProcessCpuSeconds();
  const uint64_t begin = NowNs();
  const uint64_t deadline = begin + static_cast<uint64_t>(seconds * 1e9);
  uint64_t since_rotation = 0;
  while (max_queries != 0
             ? out.queries + out.failed_queries < max_queries
             : NowNs() < deadline || out.queries + out.failed_queries < kMinQueries) {
    if (spec.rotate_every != 0 && since_rotation == spec.rotate_every) {
      Rotate(d, &out);
      since_rotation = 0;
    }
    const query::RangeQuery q = workload::SampleQ14(&d->queries).shipdate;
    out.issued.push_back(q);
    const uint64_t start = NowNs();
    Result<proxy::QueryResponse> resp = d->client->Query(kTable, kColumn, q);
    const uint64_t returned = NowNs();
    const bool good = resp.ok() && d->oracle->Check(q, resp->rows);
    const uint64_t verified = NowNs();
    ++since_rotation;
    if (!good) {
      ++out.failed_queries;
      std::fprintf(stderr, "perfbench: query [%" PRIu64 ", %" PRIu64 "] %s\n",
                   q.first, q.last,
                   resp.ok() ? "returned a wrong answer"
                             : resp.status().ToString().c_str());
      continue;
    }
    ++out.queries;
    out.latency_ms.push_back(static_cast<double>(verified - start) * 1e-6);
    out.query_span_ns += returned - start;
    out.rows_received += resp->rows_received;
    out.rows_returned += resp->rows.size();
    out.server_requests += resp->server_requests;
  }
  out.wall_s = SecondsSince(begin);
  out.cpu_s = ProcessCpuSeconds() - cpu_begin;
  out.client_after = d->client->metrics()->Snapshot();
  out.server_after = d->loader->server()->metrics()->Snapshot();
  return out;
}

// --------------------------------------------------------------- metrics --

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("  %-36s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }

  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Times Proxy::EncryptValue / DecryptValue per call: the median over
/// kOpeRounds passes of a fixed sample, with every round trip checked.
/// Returns {encrypt_us, decrypt_us}.
std::pair<double, double> TimeOpe(proxy::MopeSystem* system, uint64_t* failed) {
  proxy::Proxy* p = Must(system->GetProxy(kTable, kColumn), "proxy");
  Rng rng(0x0BE5A4B1EULL);
  std::vector<uint64_t> plain(kOpeSample), cipher(kOpeSample);
  for (uint64_t& m : plain) m = rng.UniformUint64(workload::kTpchDateDomain);
  std::vector<double> enc_us, dec_us;
  for (int round = 0; round < kOpeRounds; ++round) {
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < kOpeSample; ++i) {
      cipher[i] = Must(p->EncryptValue(plain[i]), "EncryptValue");
    }
    const uint64_t t1 = NowNs();
    for (uint64_t i = 0; i < kOpeSample; ++i) {
      if (Must(p->DecryptValue(cipher[i]), "DecryptValue") != plain[i]) ++*failed;
    }
    const uint64_t t2 = NowNs();
    const double n = static_cast<double>(kOpeSample);
    enc_us.push_back(static_cast<double>(t1 - t0) * 1e-3 / n);
    dec_us.push_back(static_cast<double>(t2 - t1) * 1e-3 / n);
  }
  return {Median(enc_us), Median(dec_us)};
}

/// Times QueryAlgorithm::Process over `stream` with an algorithm built from
/// the workload's config and start distribution. Microseconds per query.
double TimeQueryProcess(const Deployment& d, const std::vector<query::RangeQuery>& stream) {
  auto algorithm = Must(query::UniformQueryAlgorithm::Create(
                            {workload::kTpchDateDomain, kK}, *d.starts),
                        "QueryU");
  Rng rng(d.sampler_seed);
  const uint64_t start = NowNs();
  for (const query::RangeQuery& q : stream) {
    if (Must(algorithm->Process(q, &rng), "Process").empty()) Die("QueryU: empty batch");
  }
  return Ratio(static_cast<double>(NowNs() - start) * 1e-3, static_cast<double>(stream.size()));
}

/// Replays the captured cipher-range batches straight into the engine, on
/// this thread with the client idle. Returns total nanoseconds.
uint64_t ReplayBatches(Deployment* d) {
  uint64_t ns = 0;
  for (const auto& ranges : d->spans.batches) {
    const uint64_t start = NowNs();
    auto rows = d->loader->server()->ExecuteRangeBatchWithIds(kTable, kColumn, ranges);
    ns += NowNs() - start;
    Must(rows.status(), "replay batch");
  }
  return ns;
}

uint64_t PageFilePages(Deployment* d) {
  return d->loader->server()->durable_catalog()->storage()->disk()->page_count();
}

void PrintHeader(const Options& opt, const Deployment& d) {
  const WorkloadSpec& spec = *opt.spec;
  std::printf("workload %s (seed %" PRIu64 ", %s)\n", spec.name, opt.seed,
              opt.trace ? "traced" : "untraced");
  std::printf("  TPC-H lineitem SF %.3f: %" PRIu64 " rows; l_shipdate MOPE M=%" PRIu64
              ", Q14 template k=%" PRIu64 ", QueryU, batch 1\n",
              kScaleFactor, d.rows, workload::kTpchDateDomain, kK);
  std::printf("  1 closed-loop client over %s\n",
              spec.tcp ? "loopback TCP to an in-process net::TcpServer"
                       : "the embedded server (DirectConnection)");
  if (spec.durable) {
    struct statfs fs {};
    const bool tmpfs = statfs(opt.data_dir.c_str(), &fs) == 0 &&
                       static_cast<unsigned long>(fs.f_type) == 0x01021994UL;
    std::printf("  storage: fresh data dir %s tmpfs; flush policy: wal_sync_every=0, "
                "one SyncStorage (WAL fsync) after the load and after each rotation; "
                "pool %zu frames\n",
                tmpfs ? "on" : "not on", engine::DurableCatalog::Options{}.pool_frames);
    std::printf("  RotateKey after every %" PRIu64 " queries\n", spec.rotate_every);
  }
}

// ------------------------------------------------------------------- main --

/// End-to-end metrics of one untraced phase.
void ReportEndToEnd(const WorkloadSpec& spec, const Deployment& d, const Phase& p,
                    const std::vector<double>& setup_s, double failed_frac,
                    Report* report) {
  std::printf("  %" PRIu64 " verified queries in %.3f s, %" PRIu64
              " rotations, latency samples %zu\n",
              p.queries, p.wall_s, p.rotations, p.latency_ms.size());
  const double q = static_cast<double>(p.queries);
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("qps", Ratio(q, p.wall_s), "1/s");
  report->Add("latency_p50_ms", Quantile(p.latency_ms, 0.5), "ms");
  report->Add("latency_p90_ms", Quantile(p.latency_ms, 0.9), "ms");
  report->Add("bandwidth", Ratio(static_cast<double>(p.rows_received),
                                 static_cast<double>(p.rows_returned)),
              "rows/row");
  report->Add("requests_per_query", Ratio(static_cast<double>(p.server_requests), q),
              "count");
  report->Add("cpu_ms_per_query", Ratio(p.cpu_s * 1e3, q), "ms");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  // Workload-specific figures: printed, but kept out of the JSON, whose
  // metrics exist on every workload.
  std::printf("  workload-specific:\n");
  std::printf("  %-36s %16.6f %s\n", "failed_frac", failed_frac, "ratio");
  if (spec.rotate_every != 0) {
    std::printf("  %-36s %16.6f %s (median of %zu rotations)\n", "rotate_rows_per_s",
                Ratio(static_cast<double>(d.rows), Median(p.rotate_ms) * 1e-3), "rows/s",
                p.rotate_ms.size());
  }
  if (spec.tcp) {
    const uint64_t bytes = Delta(p.client_before, p.client_after, "net.client.bytes_sent") +
                           Delta(p.client_before, p.client_after, "net.client.bytes_received");
    std::printf("  %-36s %16.6f %s\n", "wire_bytes_per_query",
                Ratio(static_cast<double>(bytes), q), "B");
  }
}

/// Per-layer metrics of the traced phase `p`, against the untraced `plain`.
void ReportLayers(const Options& opt, Deployment* d, const Phase& plain, const Phase& p,
                  uint64_t pages_after_load, uint64_t* failed, Report* report) {
  const WorkloadSpec& spec = *opt.spec;
  const double q = static_cast<double>(p.queries);
  auto rotation = [&](const char* name) {
    const auto it = p.rotation_counts.find(name);
    return it == p.rotation_counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  // Client counters over the queries alone (rotations taken out).
  auto client_delta = [&](const char* name) {
    return static_cast<double>(Delta(p.client_before, p.client_after, name)) - rotation(name);
  };
  auto server_delta = [&](const char* name) {
    return static_cast<double>(Delta(p.server_before, p.server_after, name));
  };

  const double query_ms = static_cast<double>(p.query_span_ns) * 1e-6 / q;
  const double conn_ms = static_cast<double>(d->spans.ns) * 1e-6 / q;
  const double entries = server_delta("engine.entries_visited");
  const double segments = server_delta("engine.segments_scanned");
  // rotate_durable keeps the proxy's own DirectConnection (RotateKey needs
  // it), so its embedded sweep stays inside proxy.self and unattributed.
  double sweep_ms = spec.tcp || spec.durable ? 0.0 : conn_ms;
  double dispatch_ms = 0, wire_bytes = 0;
  if (spec.tcp) {
    dispatch_ms = server_delta("server.dispatch_ns.sum") * 1e-6 / q;
    wire_bytes = (client_delta("net.client.bytes_sent") +
                  client_delta("net.client.bytes_received")) / q;
    sweep_ms = static_cast<double>(ReplayBatches(d)) * 1e-6 / q;
  }
  const double roundtrip_ms = spec.tcp ? conn_ms : 0.0;

  const double enc_calls = client_delta("ope.encrypt_calls") / q;
  const double dec_calls = client_delta("ope.decrypt_calls") / q;
  const double hgd = client_delta("ope.hgd_draws") / q;
  const double process_us = TimeQueryProcess(*d, p.issued);
  const auto [enc_us, dec_us] = TimeOpe(d->client, failed);

  const double ope_ms = (enc_calls * enc_us + dec_calls * dec_us) * 1e-3;
  const double attributed = process_us * 1e-3 + ope_ms + (spec.tcp ? roundtrip_ms : sweep_ms);
  const double unattributed = query_ms - attributed;
  // Rotation pauses are left out: they are untraced and few per half.
  auto query_qps = [](const Phase& ph) {
    double rotate_s = 0;
    for (double ms : ph.rotate_ms) rotate_s += ms * 1e-3;
    return Ratio(static_cast<double>(ph.queries), ph.wall_s - rotate_s);
  };
  const double qps_plain = query_qps(plain);
  const double qps_traced = query_qps(p);
  const double overhead_pct = (Ratio(qps_plain, qps_traced) - 1) * 100;

  std::printf("  traced half: %" PRIu64 " queries in %.3f s, %" PRIu64
              " rotations; untraced half: %" PRIu64 " queries in %.3f s\n",
              p.queries, p.wall_s, p.rotations, plain.queries, plain.wall_s);
  std::printf("  tracing overhead (rotation pauses excluded): traced %.3f qps vs "
              "untraced %.3f qps (%+.1f%%)\n",
              qps_traced, qps_plain, overhead_pct);
  if (spec.durable) {
    std::printf("  page file: %" PRIu64 " pages after load, %" PRIu64
                " now, against %zu pool frames\n",
                pages_after_load, PageFilePages(d),
                engine::DurableCatalog::Options{}.pool_frames);
  }
  std::printf("  layer split of the traced Query span (%.3f ms/query):\n", query_ms);
  auto row = [&](const char* layer, double ms) {
    std::printf("    %-34s %10.4f ms %6.1f%%\n", layer, ms, Ratio(ms, query_ms) * 100);
  };
  row("proxy.self (Query - connection)", query_ms - conn_ms);
  row("  query (QueryU Process)", process_us * 1e-3);
  row("  ope (calls x per-call time)", ope_ms);
  if (spec.tcp) {
    row("net.roundtrip", roundtrip_ms);
    row("  engine sweep (replayed)", sweep_ms);
    row("  net dispatch overhead", dispatch_ms - sweep_ms);
    row("  net transfer", roundtrip_ms - dispatch_ms);
  } else if (!spec.durable) {
    row("engine sweep", sweep_ms);
  }
  row(std::fabs(unattributed) > 0.1 * query_ms ? "UNATTRIBUTED (over 10%)"
                                               : "unattributed (within 10%)",
      unattributed);

  const double rotations = static_cast<double>(p.rotations);
  report->Add("proxy.self_ms_per_query", query_ms - conn_ms, "ms");
  report->Add("proxy.load_s", d->load_s, "s");
  report->Add("proxy.rotate_ms", Median(p.rotate_ms), "ms");
  report->Add("proxy.server_requests_per_query", client_delta("proxy.server_requests") / q,
              "count");
  report->Add("proxy.rows_received_per_query", client_delta("proxy.rows_received") / q,
              "count");
  report->Add("proxy.rows_returned_per_query", client_delta("proxy.rows_returned") / q,
              "count");
  report->Add("proxy.fakes_per_real",
              Ratio(client_delta("proxy.fake_queries"), client_delta("proxy.real_queries")),
              "ratio");
  report->Add("query.process_us_per_query", process_us, "us");
  report->Add("ope.encrypt_calls_per_query", enc_calls, "count");
  report->Add("ope.decrypt_calls_per_query", dec_calls, "count");
  report->Add("ope.hgd_draws_per_query", hgd, "count");
  report->Add("ope.encrypt_us", enc_us, "us");
  report->Add("ope.decrypt_us", dec_us, "us");
  report->Add("engine.sweep_ms_per_query", sweep_ms, "ms");
  report->Add("engine.entries_visited_per_query", entries / q, "count");
  report->Add("engine.segments_per_query", segments / q, "count");
  report->Add("net.roundtrip_ms_per_query", roundtrip_ms, "ms");
  report->Add("net.dispatch_ms_per_query", dispatch_ms, "ms");
  report->Add("net.dispatch_overhead_ms_per_query", spec.tcp ? dispatch_ms - sweep_ms : 0,
              "ms");
  report->Add("net.transfer_ms_per_query", spec.tcp ? roundtrip_ms - dispatch_ms : 0, "ms");
  report->Add("net.wire_bytes_per_query", wire_bytes, "B");
  report->Add("storage.wal_bytes_per_row",
              Ratio(rotation("storage.wal.bytes"), static_cast<double>(p.rows_rotated)), "B");
  report->Add("storage.page_writes_per_rotation",
              Ratio(rotation("storage.disk.page_writes"), rotations), "count");
  report->Add("storage.wal_syncs_per_rotation",
              Ratio(rotation("storage.wal.syncs"), rotations), "count");
  report->Add("storage.pool_misses_per_rotation",
              Ratio(rotation("storage.pool.misses"), rotations), "count");
  report->Add("workload.generate_s", d->generate_s, "s");
  report->Add("trace.query_ms", query_ms, "ms");
  report->Add("trace.unattributed_ms_per_query", unattributed, "ms");
  report->Add("trace.overhead_pct", overhead_pct, "%");
}

/// Pins the process (threads started later inherit it) to the CPU it runs
/// on and returns that CPU, or -1. A closed loop has one busy thread at a
/// time; on one CPU the client-to-server hand-off of a TCP request is a
/// context switch rather than the wake-up of another, idle vCPU, whose
/// latency on a shared VM host follows other tenants' load.
int PinToOneCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

void RemoveDataDir(const Options& opt) {
  if (!opt.spec->durable) return;
  std::error_code ec;
  std::filesystem::remove_all(opt.data_dir, ec);
  if (ec) Die("remove " + opt.data_dir + ": " + ec.message());
}

int Run(const Options& opt) {
  const WorkloadSpec& spec = *opt.spec;
  const int cpu = PinToOneCpu();
  RemoveDataDir(opt);
  const size_t reps = opt.trace ? 1 : kSetupReps;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (size_t r = 0; r < reps; ++r) {
    d.reset();  // tear the previous set-up down before timing the next
    d = SetUp(opt, opt.data_dir + "/setup" + std::to_string(r));
    setup_s.push_back(d->setup_s);
  }
  PrintHeader(opt, *d);
  if (cpu >= 0) {
    std::printf("  process pinned to CPU %d\n", cpu);
  } else {
    std::printf("  process not pinned (sched_setaffinity failed)\n");
  }
  std::printf("  set-up s:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  const uint64_t pages_after_load = spec.durable ? PageFilePages(d.get()) : 0;

  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto count = [&](const Phase& p) {
    attempted += p.attempted();
    failed += p.failed();
  };
  // Warm-up: fills allocator arenas, socket buffers and lazy state.
  count(RunPhase(d.get(), spec, 0, kWarmupQueries, false));

  if (!opt.trace) {
    const Phase p = RunPhase(d.get(), spec, opt.seconds, opt.queries, false);
    count(p);
    ReportEndToEnd(spec, *d, p, setup_s,
                   Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                   &report);
  } else {
    const Phase plain = RunPhase(d.get(), spec, opt.seconds / 2, opt.queries, false);
    count(plain);
    const Phase traced = RunPhase(d.get(), spec, opt.seconds / 2, opt.queries, true);
    count(traced);
    ReportLayers(opt, d.get(), plain, traced, pages_after_load, &failed, &report);
  }

  d.reset();
  RemoveDataDir(opt);
  const bool correct = failed == 0 && attempted > 0;
  report.PrintJson(correct, attempted, failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: mope_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--queries <n>] [--data-dir <dir>]\n"
               "workloads:",
               why.c_str());
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(64);
}

uint64_t ParseCount(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || value[0] == '-') Usage("bad number for " + flag);
  return n;
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  opt.data_dir = "perfbench-data-" + std::to_string(getpid());
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) opt.spec = &w;
      }
      if (opt.spec == nullptr) Usage("unknown workload " + value);
    } else if (flag == "--seed") {
      opt.seed = ParseCount(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0 && opt.seconds < 3600)) {
        Usage("--seconds takes a number in (0, 3600)");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--queries") {
      opt.queries = ParseCount(flag, value);
    } else if (flag == "--data-dir") {
      opt.data_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (opt.spec == nullptr) Usage("--workload is required");
  return opt;
}

}  // namespace
}  // namespace mope::perfbench

int main(int argc, char** argv) {
  return mope::perfbench::Run(mope::perfbench::ParseArgs(argc, argv));
}
