// The dbph workload benchmark: closed-loop client traffic over loopback
// TCP against an in-process server, every result checked against the
// plaintext ground truth.
//
//   bench_workloads --workload NAME --seed N --seconds S --trace 0|1
//   bench_workloads --workload NAME --smoke     (2k docs, 2 s, one set-up)
//
// Deployment (identical in every workload): a server::UntrustedServer with
// default ServerRuntimeOptions — trapdoor index, integrity, scan kernel,
// metrics and leakage auditor all on — behind a net::NetServer with two
// read workers, and two client connections, each its own client::Client
// over its own net::TcpTransport, each driven by one closed-loop load
// thread. Connection A is the owner (it outsourced the relation);
// connection B adopted it. Verifying sessions run VerifyMode::kEnforce.
//
// Workloads (see README.md for why each exists):
//   scan_point  uniform point selects on `key`, every trapdoor new (a full
//               snapshot scan per select); ~9% of keys are absent.
//   hot_point   Zipf(0.99) point selects over 256 keys warmed in set-up
//               (index hits: per-request overhead dominates).
//   hot_range   uniform selects on `val` (1% selectivity), all 100 values
//               warmed (client-side verification of large subsets).
//   write_mix   A: Insert(1 fresh tuple) + DeleteWhere(its key), Enforce,
//               WAL fsync=always; B: unverified Zipf point reads.
//
// Set-up runs kSetupRepeats times from scratch, half before the load (the
// last of those deployments serves the timed phase) and half after it, and
// setup_s is the median. Inputs (key orders, Zipf draws, client nonces)
// derive from --seed only.
//
// Output: a {"run": ...} identity line, then one result line with the
// keys correct / attempted / failed / metrics: the end-to-end metrics
// untraced (--trace 0), the per-layer metrics traced (--trace 1). A traced
// run measures its first half untraced and its second half traced, so the
// tracing overhead is the difference between the halves; its spans go to
// .bench_out/spans-<workload>.csv. The exit status is non-zero when any
// operation failed, returned a wrong result, left the server's observation
// log off by one, (write_mix) did not survive a store restart, or (traced)
// left a negative client residual or server unstaged time.
//
// The identity line carries the library's own dbph_build_info (its git
// describe at configure time) and, for checkouts that are not git
// repositories, a digest of the sources passed in with --source-digest.

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "net/net_server.h"
#include "net/tcp_transport.h"
#include "server/durable_store.h"
#include "server/untrusted_server.h"

using namespace dbph;

namespace {

// ------------------------------------------------------------- constants

constexpr char kRelation[] = "T";
constexpr char kMasterKey[] = "bench_workloads master";
constexpr char kOutDir[] = ".bench_out";

/// Rows are kN with val = N % kValues, so a val select returns 1%.
constexpr uint64_t kValues = 100;
/// Hot key set of hot_point and write_mix's reader: above the leakage
/// sketch's top-k (128), so the auditor's evictions run too.
constexpr size_t kHotKeys = 256;
constexpr double kZipfS = 0.99;
/// scan_point draws from 1.1 x docs keys, so ~9% of selects miss and
/// need non-membership proofs.
constexpr double kScanKeySpace = 1.1;
constexpr int kConnections = 2;
constexpr size_t kReadWorkers = 2;
/// Split into two groups some twenty seconds apart: on a shared 4-vCPU
/// host a core can run up to 1.5x slower for seconds at a time, and
/// set-ups in a row tend to land in the same slow spell.
constexpr int kSetupRepeats = 4;
constexpr double kWarmupSeconds = 1;
constexpr size_t kSmokeDocs = 2000;
constexpr double kSmokeSeconds = 2;
/// The daemon's checkpoint cadence (dbph_serverd --persist).
constexpr int kCheckpointIntervalMs = 5000;
/// Spans kept per connection; beyond this the traced run still sums
/// every operation but stops recording individual spans.
constexpr size_t kMaxSpansPerConnection = 200000;

enum class Kind { kScanPoint, kHotPoint, kHotRange, kWriteMix };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  size_t docs;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"scan_point", Kind::kScanPoint, 20000},
    {"hot_point", Kind::kHotPoint, 20000},
    {"hot_range", Kind::kHotRange, 50000},
    {"write_mix", Kind::kWriteMix, 5000},
};

enum OpClass { kSelectOp = 0, kWriteOp = 1 };

// ---------------------------------------------------------------- clocks

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ---------------------------------------------------------------- inputs

/// SplitMix64: the benchmark's only source of input randomness, so one
/// --seed reproduces every key sequence on every platform.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(InputRng* rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->Uniform());
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::string KeyOf(uint64_t n) { return "k" + std::to_string(n); }

rel::Schema BenchSchema() {
  return *rel::Schema::Create({
      {"key", rel::ValueType::kString, 12},
      {"val", rel::ValueType::kInt64, 10},
  });
}

rel::Tuple RowOf(uint64_t n) {
  return rel::Tuple{rel::Value::Str(KeyOf(n)),
                    rel::Value::Int(static_cast<int64_t>(n % kValues))};
}

/// The ground truth every result is checked against: key kN exists iff
/// N < docs, with val = N % 100.
rel::Relation BenchTable(size_t docs) {
  rel::Relation table(kRelation, BenchSchema());
  for (uint64_t n = 0; n < docs; ++n) (void)table.Insert(RowOf(n));
  return table;
}

bool CheckPoint(const rel::Relation& result, uint64_t n, size_t docs) {
  if (n >= docs) return result.size() == 0;
  return result.size() == 1 && result.tuple(0) == RowOf(n);
}

bool CheckRange(const rel::Relation& result, uint64_t v, size_t docs) {
  const uint64_t expected = docs / kValues + (v < docs % kValues ? 1 : 0);
  if (result.size() != expected) return false;
  std::vector<uint64_t> keys;
  keys.reserve(result.size());
  for (const rel::Tuple& tuple : result.tuples()) {
    const std::string& key = tuple.at(0).AsString();
    if (key.size() < 2 || key[0] != 'k') return false;
    uint64_t n = 0;
    const char* last = key.data() + key.size();
    auto [end, ec] = std::from_chars(key.data() + 1, last, n);
    if (ec != std::errc() || end != last || n >= docs || n % kValues != v ||
        tuple != RowOf(n)) {
      return false;
    }
    keys.push_back(n);
  }
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) == keys.end();
}

/// Everything the load threads draw from, fixed by the seed up front.
struct Inputs {
  /// scan_point: a permutation of [0, 1.1 x docs); connection c takes
  /// entries c, c + 2, ... so no trapdoor repeats within a run.
  std::vector<uint64_t> scan_order;
  /// hot_point / write_mix: distinct present keys, Zipf rank order.
  std::vector<uint64_t> hot_keys;
  ZipfSampler zipf{kHotKeys, kZipfS};
};

Inputs MakeInputs(Kind kind, size_t docs, uint64_t seed) {
  Inputs in;
  InputRng rng(seed ^ 0x5eedf00dULL);
  if (kind == Kind::kScanPoint) {
    in.scan_order.resize(static_cast<size_t>(kScanKeySpace * docs));
    for (size_t i = 0; i < in.scan_order.size(); ++i) in.scan_order[i] = i;
    for (size_t i = in.scan_order.size(); i > 1; --i) {
      std::swap(in.scan_order[i - 1], in.scan_order[rng.Below(i)]);
    }
  } else if (kind == Kind::kHotPoint || kind == Kind::kWriteMix) {
    std::vector<uint64_t> all(docs);
    for (size_t i = 0; i < docs; ++i) all[i] = i;
    for (size_t i = 0; i < kHotKeys; ++i) {
      std::swap(all[i], all[i + rng.Below(docs - i)]);
    }
    in.hot_keys.assign(all.begin(), all.begin() + kHotKeys);
  }
  return in;
}

// --------------------------------------------------------------- tracing

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for an operation's root span
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One connection's wire tap and span buffer. Only that connection's load
/// thread touches it while a phase runs; the main thread reads it between
/// phases.
struct ConnTrace {
  explicit ConnTrace(int conn)
      : next_id(static_cast<uint64_t>(conn + 1) << 48) {}

  bool on = false;
  uint64_t next_id;
  uint64_t op_span = 0;  ///< root span of the operation in flight
  uint64_t op_round_trips = 0;
  int64_t op_round_trip_ns = 0;
  uint64_t op_request_bytes = 0;
  uint64_t op_response_bytes = 0;
  std::vector<Span> spans;

  void BeginOp() {
    op_span = ++next_id;
    op_round_trips = 0;
    op_round_trip_ns = 0;
    op_request_bytes = 0;
    op_response_bytes = 0;
  }
  void AddSpan(uint64_t id, uint64_t parent, const char* name, int64_t start,
               int64_t end) {
    if (spans.size() < kMaxSpansPerConnection) {
      spans.push_back({id, parent, name, start, end});
    }
  }
};

/// The client's transport with a timing tap around every round trip.
client::Transport TappedTransport(std::shared_ptr<net::TcpTransport> tcp,
                                  ConnTrace* trace) {
  return [tcp = std::move(tcp), trace](const Bytes& request) {
    if (!trace->on) return tcp->RoundTrip(request);
    const int64_t start = NowNs();
    Bytes response = tcp->RoundTrip(request);
    const int64_t end = NowNs();
    ++trace->op_round_trips;
    trace->op_round_trip_ns += end - start;
    trace->op_request_bytes += request.size();
    trace->op_response_bytes += response.size();
    trace->AddSpan(++trace->next_id, trace->op_span, "round_trip", start, end);
    return response;
  };
}

// ------------------------------------------------------------ deployment

/// One client connection: its own TcpTransport, Client and DRBG.
struct Session {
  std::unique_ptr<ConnTrace> trace;
  std::unique_ptr<crypto::HmacDrbg> rng;
  /// Feeds the traced run's EncryptTuple replicas, so they never perturb
  /// the client's own nonce stream.
  std::unique_ptr<crypto::HmacDrbg> replica_rng;
  std::unique_ptr<client::Client> client;
  const core::DatabasePh* ph = nullptr;
};

Result<Session> Connect(uint16_t port, int conn, uint64_t seed, int rep) {
  auto tcp = net::TcpTransport::Connect("127.0.0.1", port);
  if (!tcp.ok()) return tcp.status();
  Session s;
  s.trace = std::make_unique<ConnTrace>(conn);
  const uint64_t stream = seed * 64 + static_cast<uint64_t>(rep) * 4;
  s.rng = std::make_unique<crypto::HmacDrbg>("bench_workloads",
                                             stream + conn);
  s.replica_rng =
      std::make_unique<crypto::HmacDrbg>("bench_workloads replica", stream);
  s.client = std::make_unique<client::Client>(
      ToBytes(kMasterKey), TappedTransport(std::move(*tcp), s.trace.get()),
      s.rng.get());
  return s;
}

Status BindScheme(Session* s) {
  auto ph = s->client->SchemeFor(kRelation);
  if (!ph.ok()) return ph.status();
  s->ph = *ph;
  return Status::OK();
}

/// Removes a directory tree when it goes out of scope.
struct ScratchDir {
  std::string path;

  ScratchDir() = default;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

struct SetupTimes {
  double total_s = 0;
  double outsource_s = 0;
  double sync_s = 0;
  double warm_s = 0;
};

/// One complete deployment. Members are destroyed bottom-up: sessions
/// close their sockets, then the NetServer stops, then the store closes
/// its files, then the server goes, then the WAL directory.
struct Deployment {
  ScratchDir wal_dir;
  std::unique_ptr<server::UntrustedServer> server;
  std::unique_ptr<server::DurableStore> store;
  std::unique_ptr<net::NetServer> net;
  Session sessions[kConnections];
  SetupTimes times;
  uint64_t warm_selects = 0;
};

struct Config {
  const WorkloadSpec* spec = nullptr;
  size_t docs = 0;
  double seconds = 20;
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  int setup_repeats = kSetupRepeats;
  /// Identifies the sources where the build's own revision cannot: a
  /// checkout that is not a git repository builds with revision "unknown".
  std::string source_digest = "unknown";
};

Result<std::unique_ptr<Deployment>> SetUp(const Config& c,
                                          const rel::Relation& table,
                                          const Inputs& in, int rep) {
  auto d = std::make_unique<Deployment>();
  const Kind kind = c.spec->kind;
  const int64_t t0 = NowNs();
  d->server = std::make_unique<server::UntrustedServer>(
      server::ServerRuntimeOptions{});
  if (kind == Kind::kWriteMix) {
    d->wal_dir.path = std::string(kOutDir) + "/wal-" +
                      std::to_string(static_cast<long>(::getpid())) + "-" +
                      std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(d->wal_dir.path, ec);
    std::filesystem::create_directories(kOutDir, ec);
    server::DurableStoreOptions options;
    options.sync_mode = storage::WalSyncMode::kAlways;
    options.checkpoint_interval_ms = kCheckpointIntervalMs;
    d->store = std::make_unique<server::DurableStore>(d->server.get(),
                                                      d->wal_dir.path, options);
    if (Status s = d->store->Open(); !s.ok()) return s;
  }
  net::NetServerOptions net_options;
  net_options.read_workers = kReadWorkers;
  d->net = std::make_unique<net::NetServer>(d->server.get(), net_options);
  if (Status s = d->net->Start(); !s.ok()) return s;

  for (int conn = 0; conn < kConnections; ++conn) {
    auto session = Connect(d->net->port(), conn, c.seed, rep);
    if (!session.ok()) return session.status();
    d->sessions[conn] = std::move(*session);
  }
  Session& owner = d->sessions[0];
  Session& peer = d->sessions[1];
  owner.client->set_verify_mode(client::VerifyMode::kEnforce);
  if (Status s = owner.client->Outsource(table); !s.ok()) return s;
  if (Status s = BindScheme(&owner); !s.ok()) return s;
  const int64_t t1 = NowNs();

  // The adopted session: verified (signature required) everywhere but on
  // write_mix, whose reader cannot follow another session's epochs.
  if (Status s = peer.client->Adopt(kRelation, table.schema()); !s.ok()) {
    return s;
  }
  if (Status s = BindScheme(&peer); !s.ok()) return s;
  if (kind != Kind::kWriteMix) {
    peer.client->set_verify_mode(client::VerifyMode::kEnforce);
    if (Status s = peer.client->SyncIntegrity(kRelation, true); !s.ok()) {
      return s;
    }
  }
  const int64_t t2 = NowNs();

  // Warm-up: every key or value the timed phase will hit repeatedly is
  // scanned once, so its trapdoor is memoized in the index.
  for (uint64_t key : in.hot_keys) {
    auto result = owner.client->Select(kRelation, "key",
                                       rel::Value::Str(KeyOf(key)));
    ++d->warm_selects;
    if (!result.ok()) return result.status();
    if (!CheckPoint(*result, key, c.docs)) {
      return Status::DataLoss("warm-up select returned a wrong result");
    }
  }
  if (kind == Kind::kHotRange) {
    for (uint64_t v = 0; v < kValues; ++v) {
      auto result = owner.client->Select(
          kRelation, "val", rel::Value::Int(static_cast<int64_t>(v)));
      ++d->warm_selects;
      if (!result.ok()) return result.status();
      if (!CheckRange(*result, v, c.docs)) {
        return Status::DataLoss("warm-up select returned a wrong result");
      }
    }
  }
  const int64_t t3 = NowNs();
  d->times = {(t3 - t0) / 1e9, (t1 - t0) / 1e9, (t2 - t1) / 1e9,
              (t3 - t2) / 1e9};
  return d;
}

// ------------------------------------------------------------------ load

struct OpSums {
  uint64_t ops = 0;
  int64_t wall_ns = 0;
  int64_t round_trip_ns = 0;
  uint64_t round_trips = 0;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  int64_t cpu_ns = 0;
  uint64_t replicas = 0;
  int64_t replica_ns = 0;

  void Add(const OpSums& o) {
    ops += o.ops;
    wall_ns += o.wall_ns;
    round_trip_ns += o.round_trip_ns;
    round_trips += o.round_trips;
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
    cpu_ns += o.cpu_ns;
    replicas += o.replicas;
    replica_ns += o.replica_ns;
  }
};

/// One load thread's record of one phase.
struct LoopStats {
  std::vector<int64_t> latency_ns[2];  ///< indexed by OpClass
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Selects and deletes issued: each must leave one observation-log entry.
  uint64_t observed = 0;
  int64_t end_ns = 0;
  int64_t thread_cpu_ns = 0;
  OpSums sums[2];  ///< traced phase only, indexed by OpClass
  uint64_t wal_sampled_writes = 0;
  uint64_t wal_bytes = 0;
};

/// Per-connection generator state; persists across the two halves of a
/// traced run.
struct LoadState {
  LoadState(uint64_t seed, int conn)
      : rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(conn) + 1),
        cursor(static_cast<size_t>(conn)) {}
  InputRng rng;
  size_t cursor;
  uint64_t writes = 0;
};

void ReportFailure(LoopStats* out, const char* what, const Status& status) {
  static std::atomic<int> printed{0};
  ++out->failed;
  if (printed.fetch_add(1) < 5) {
    std::fprintf(stderr, "bench_workloads: %s failed: %s\n", what,
                 status.ok() ? "wrong result" : status.ToString().c_str());
  }
}

/// Times one client call; with tracing on also records its root span,
/// its round trips and the thread CPU it used.
template <typename Fn>
auto TimeOp(Session& s, OpClass cls, const char* name, LoopStats* out,
            Fn&& fn) {
  ConnTrace& t = *s.trace;
  int64_t cpu0 = 0;
  if (t.on) {
    t.BeginOp();
    cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  }
  const int64_t start = NowNs();
  auto result = fn();
  const int64_t end = NowNs();
  out->latency_ns[cls].push_back(end - start);
  if (t.on) {
    OpSums& sums = out->sums[cls];
    sums.cpu_ns += CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    ++sums.ops;
    sums.wall_ns += end - start;
    sums.round_trip_ns += t.op_round_trip_ns;
    sums.round_trips += t.op_round_trips;
    sums.request_bytes += t.op_request_bytes;
    sums.response_bytes += t.op_response_bytes;
    t.AddSpan(t.op_span, 0, name, start, end);
  }
  return result;
}

/// Traced runs time the layer a client call hides — trapdoor generation,
/// tuple encryption — by repeating it on the same inputs right after.
template <typename Fn>
void TimeReplica(Session& s, OpClass cls, const char* name, LoopStats* out,
                 Fn&& fn) {
  ConnTrace& t = *s.trace;
  if (!t.on) return;
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  ++out->sums[cls].replicas;
  out->sums[cls].replica_ns += end - start;
  t.AddSpan(++t.next_id, t.op_span, name, start, end);
}

class Load {
 public:
  Load(const Config& c, const Inputs& in, Deployment* d)
      : c_(c), in_(in), d_(d), states_{{c.seed, 0}, {c.seed, 1}} {}

  /// One closed-loop step on connection `conn`.
  void Step(int conn, LoopStats* out) {
    Session& s = d_->sessions[conn];
    LoadState& st = states_[conn];
    switch (c_.spec->kind) {
      case Kind::kScanPoint: {
        const uint64_t n = in_.scan_order[st.cursor % in_.scan_order.size()];
        st.cursor += kConnections;
        PointSelect(s, n, out);
        break;
      }
      case Kind::kHotPoint:
        PointSelect(s, in_.hot_keys[in_.zipf.Sample(&st.rng)], out);
        break;
      case Kind::kHotRange:
        RangeSelect(s, st.rng.Below(kValues), out);
        break;
      case Kind::kWriteMix:
        if (conn == 0) {
          WriteCycle(s, c_.docs + st.writes++, out);
        } else {
          PointSelect(s, in_.hot_keys[in_.zipf.Sample(&st.rng)], out);
        }
        break;
    }
  }

 private:
  void PointSelect(Session& s, uint64_t n, LoopStats* out) {
    const rel::Value value = rel::Value::Str(KeyOf(n));
    ++out->attempted;
    ++out->observed;
    auto result = TimeOp(s, kSelectOp, "select", out, [&] {
      return s.client->Select(kRelation, "key", value);
    });
    TimeReplica(s, kSelectOp, "encrypt_query", out,
                [&] { (void)s.ph->EncryptQuery(kRelation, "key", value); });
    if (!result.ok() || !CheckPoint(*result, n, c_.docs)) {
      ReportFailure(out, "point select", result.status());
    }
  }

  void RangeSelect(Session& s, uint64_t v, LoopStats* out) {
    const rel::Value value = rel::Value::Int(static_cast<int64_t>(v));
    ++out->attempted;
    ++out->observed;
    auto result = TimeOp(s, kSelectOp, "select", out, [&] {
      return s.client->Select(kRelation, "val", value);
    });
    TimeReplica(s, kSelectOp, "encrypt_query", out,
                [&] { (void)s.ph->EncryptQuery(kRelation, "val", value); });
    if (!result.ok() || !CheckRange(*result, v, c_.docs)) {
      ReportFailure(out, "range select", result.status());
    }
  }

  /// Insert one fresh tuple kN (N >= docs, so no read ever sees it), then
  /// delete it by key: the relation is back to the initial table after
  /// every cycle.
  void WriteCycle(Session& s, uint64_t n, LoopStats* out) {
    const rel::Tuple tuple = RowOf(n);
    const bool sample_wal = s.trace->on && d_->store != nullptr;
    server::DurableStore::Stats before;
    if (sample_wal) before = d_->store->stats();

    ++out->attempted;
    Status inserted = TimeOp(s, kWriteOp, "insert", out, [&] {
      return s.client->Insert(kRelation, {tuple});
    });
    TimeReplica(s, kWriteOp, "encrypt_tuple", out, [&] {
      (void)s.ph->EncryptTuple(tuple, s.replica_rng.get());
    });
    if (!inserted.ok()) ReportFailure(out, "insert", inserted);

    ++out->attempted;
    ++out->observed;
    auto deleted = TimeOp(s, kWriteOp, "delete", out, [&] {
      return s.client->DeleteWhere(kRelation, "key", tuple.at(0));
    });
    if (!deleted.ok() || *deleted != 1) {
      ReportFailure(out, "delete", deleted.status());
    }

    if (sample_wal) {
      // WAL growth per write, from cycles no checkpoint truncated.
      server::DurableStore::Stats after = d_->store->stats();
      if (after.checkpoints == before.checkpoints &&
          after.wal_bytes >= before.wal_bytes) {
        out->wal_sampled_writes += 2;
        out->wal_bytes += after.wal_bytes - before.wal_bytes;
      }
    }
  }

  const Config& c_;
  const Inputs& in_;
  Deployment* d_;
  LoadState states_[kConnections];
};

/// One timed phase: the first `connections` load threads run closed loops
/// until the deadline; server-side counters are diffed around it.
struct Phase {
  double seconds = 0;
  LoopStats loops[kConnections];
  obs::RegistrySnapshot before;
  obs::RegistrySnapshot after;
  net::NetServer::Stats net_before;
  net::NetServer::Stats net_after;
  int64_t process_cpu_ns = 0;
  uint64_t verify_us[kConnections] = {};  ///< Client::verify_latency() delta
};

Phase RunPhase(Deployment* d, Load* load, double seconds, bool traced,
               int connections) {
  Phase phase;
  for (Session& s : d->sessions) s.trace->on = traced;
  uint64_t verify_before[kConnections];
  for (int conn = 0; conn < kConnections; ++conn) {
    verify_before[conn] = d->sessions[conn].client->verify_latency().Sum();
  }
  phase.before = d->server->CollectStats();
  phase.net_before = d->net->stats();

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int64_t> deadline{0};
  std::vector<std::thread> threads;
  for (int conn = 0; conn < connections; ++conn) {
    threads.emplace_back([&, conn] {
      LoopStats* out = &phase.loops[conn];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const int64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      const int64_t stop = deadline.load(std::memory_order_relaxed);
      while (NowNs() < stop) load->Step(conn, out);
      out->end_ns = NowNs();
      out->thread_cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });
  }
  while (ready.load() < connections) std::this_thread::yield();
  const int64_t process_cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  const int64_t start = NowNs();
  deadline.store(start + static_cast<int64_t>(seconds * 1e9),
                 std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  phase.process_cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;
  int64_t end = start;
  for (const LoopStats& loop : phase.loops) end = std::max(end, loop.end_ns);
  phase.seconds = (end - start) / 1e9;

  phase.after = d->server->CollectStats();
  phase.net_after = d->net->stats();
  for (int conn = 0; conn < kConnections; ++conn) {
    phase.verify_us[conn] =
        d->sessions[conn].client->verify_latency().Sum() - verify_before[conn];
  }
  for (Session& s : d->sessions) s.trace->on = false;
  return phase;
}

// --------------------------------------------------------------- checks

/// write_mix: every acknowledged write must survive a restart. Closes
/// the store (the NetServer is already stopped), reopens its directory
/// under a fresh server, and requires a signature-checked adopt, the
/// exact initial table from Recall, and the writer's (epoch, root).
Status RestartCheck(Deployment* d, const rel::Relation& table) {
  auto anchor = d->sessions[0].client->IntegrityAnchor(kRelation);
  if (!anchor.ok()) return anchor.status();
  if (Status s = d->store->Close(); !s.ok()) return s;

  server::UntrustedServer reopened{server::ServerRuntimeOptions{}};
  server::DurableStore store(&reopened, d->wal_dir.path);
  if (Status s = store.Open(); !s.ok()) return s;
  crypto::HmacDrbg rng("bench_workloads restart", 0);
  client::Client reader(
      ToBytes(kMasterKey),
      [&reopened](const Bytes& request) {
        return reopened.HandleRequest(request);
      },
      &rng);
  Status status = reader.Adopt(kRelation, table.schema());
  reader.set_verify_mode(client::VerifyMode::kEnforce);
  if (status.ok()) status = reader.SyncIntegrity(kRelation, true);
  if (status.ok()) {
    auto recalled = reader.Recall(kRelation);
    if (!recalled.ok()) {
      status = recalled.status();
    } else if (!recalled->SameTuples(table)) {
      status = Status::DataLoss("recalled relation differs from the table");
    }
  }
  if (status.ok()) {
    auto recovered = reader.IntegrityAnchor(kRelation);
    if (!recovered.ok()) {
      status = recovered.status();
    } else if (*recovered != *anchor) {
      status = Status::DataLoss("recovered (epoch, root) differs from the "
                                "writer's integrity anchor");
    }
  }
  Status closed = store.Close();
  return status.ok() ? closed : status;
}

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PercentileMs(std::vector<int64_t> ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  size_t rank = static_cast<size_t>(std::ceil(q * ns.size()));
  return ns[std::max<size_t>(rank, 1) - 1] / 1e6;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<int64_t> Latencies(const Phase& p, OpClass cls) {
  std::vector<int64_t> all;
  for (const LoopStats& loop : p.loops) {
    all.insert(all.end(), loop.latency_ns[cls].begin(),
               loop.latency_ns[cls].end());
  }
  return all;
}

/// Histogram (count, sum) delta across a phase; 0/0 when absent.
std::pair<double, double> HistDelta(const Phase& p, const std::string& name) {
  auto a = p.after.histograms.find(name);
  if (a == p.after.histograms.end()) return {0, 0};
  auto b = p.before.histograms.find(name);
  double count = a->second.count, sum = a->second.sum;
  if (b != p.before.histograms.end()) {
    count -= b->second.count;
    sum -= b->second.sum;
  }
  return {count, sum};
}

/// Counter or gauge delta across a phase; 0 when absent.
template <typename Map>
double Delta(const Map& before, const Map& after, const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return static_cast<double>(a->second) -
         (b == before.end() ? 0.0 : static_cast<double>(b->second));
}

double CounterDelta(const Phase& p, const std::string& name) {
  return Delta(p.before.counters, p.after.counters, name);
}

/// The gated operation: writes on write_mix, selects elsewhere.
OpClass GatedClass(Kind kind) {
  return kind == Kind::kWriteMix ? kWriteOp : kSelectOp;
}

std::vector<Metric> EndToEndMetrics(const Config& c, const Phase& p,
                                    double setup_s, double rss_mb) {
  std::vector<int64_t> lat = Latencies(p, GatedClass(c.spec->kind));
  return {
      {"setup_s", setup_s, "s"},
      {"setup_rss_mb", rss_mb, "MB"},
      {"ops_per_s", Ratio(static_cast<double>(lat.size()), p.seconds), "1/s"},
      {"op_p95_ms", PercentileMs(lat, 0.95), "ms"},
  };
}

/// The per-operation parts the traced run prints next to their totals.
/// Both sums hold by construction: the client's residual and the server's
/// unstaged time are what is left. What they can show is a remainder
/// below zero, a sign that the separately timed parts do not fit inside
/// their total.
struct Additivity {
  uint64_t selects = 0;
  double trapdoor_us = 0;
  double verify_us = 0;
  double residual_us = 0;
  double round_trip_us = 0;
  double wall_us = 0;
  uint64_t server_ops = 0;
  double server_parts_us = 0;
  double unstaged_us = 0;
  double server_select_us = 0;
};

/// Server stages are whole microseconds, each truncated on its own, so the
/// unstaged remainder may read up to 1 us per operation below its true
/// value. The client's residual gets the same allowance.
constexpr double kRoundingUs = 1.0;

std::vector<Metric> PerLayerMetrics(const Config& c, const Phase& untraced,
                                    const Phase& p,
                                    const std::vector<SetupTimes>& setups,
                                    Additivity* add) {
  const Kind kind = c.spec->kind;
  OpSums sel, wr;
  uint64_t wal_writes = 0, wal_bytes = 0;
  double loop_cpu_ns = 0;
  for (const LoopStats& loop : p.loops) {
    sel.Add(loop.sums[kSelectOp]);
    wr.Add(loop.sums[kWriteOp]);
    wal_writes += loop.wal_sampled_writes;
    wal_bytes += loop.wal_bytes;
    loop_cpu_ns += static_cast<double>(loop.thread_cpu_ns);
  }
  const double n_sel = static_cast<double>(sel.ops);
  const double n_wr = static_cast<double>(wr.ops);
  const double n_ops = n_sel + n_wr;
  // Server stage sums are per gated operation. In the traced half every
  // request is a gated one: a select on the read workloads, a write's
  // request on write_mix (whose reader is paused).
  const double n_gated = kind == Kind::kWriteMix ? n_wr : n_sel;
  auto per_gated_us = [&](const char* hist) {
    return Ratio(HistDelta(p, hist).second, n_gated);
  };

  double verify_us = 0;
  for (int conn = 0; conn < kConnections; ++conn) {
    // Only sessions that issued selects; write_mix's writer verifies
    // its writes, not selects.
    if (p.loops[conn].sums[kSelectOp].ops > 0) verify_us += p.verify_us[conn];
  }
  const double wall_us = Ratio(sel.wall_ns / 1e3, n_sel);
  const double rt_us = Ratio(sel.round_trip_ns / 1e3, n_sel);
  const double self_us = wall_us - rt_us;
  const double verify = Ratio(verify_us, n_sel);
  const double trapdoor = Ratio(sel.replica_ns / 1e3, sel.replicas);

  auto [sel_count, sel_sum] = HistDelta(p, "dbph_select_seconds");
  const double select_us = Ratio(sel_sum, sel_count);
  const double parse = per_gated_us("dbph_query_parse_seconds");
  const double serialize = per_gated_us("dbph_query_serialize_seconds");
  const double lock_wait = per_gated_us("dbph_dispatch_lock_wait_seconds");
  const double handle = per_gated_us("dbph_dispatch_handle_seconds");
  const double plan = per_gated_us("dbph_query_plan_seconds");
  const double exec_index = per_gated_us("dbph_query_execute_index_seconds");
  const double exec_scan = per_gated_us("dbph_query_execute_scan_seconds");
  const double proof = per_gated_us("dbph_integrity_proof_build_seconds");
  // Reads wait for the observation-log mutex inside handle; mutations
  // wait for the dispatch lock before it.
  const double unstaged = handle - plan - exec_index - exec_scan - proof -
                          (kind == Kind::kWriteMix ? 0 : lock_wait);

  const double match_evals = CounterDelta(p, "dbph_scan_match_evals_total");
  const double scans = CounterDelta(p, "dbph_select_scan_total");
  const double index_hits = CounterDelta(p, "dbph_select_index_total");
  auto [fsync_count, fsync_sum] = HistDelta(p, "dbph_wal_fsync_seconds");
  auto [ckpt_count, ckpt_sum] = HistDelta(p, "dbph_checkpoint_seconds");

  std::vector<double> outsource, sync, warm;
  for (const SetupTimes& t : setups) {
    outsource.push_back(t.outsource_s);
    sync.push_back(t.sync_s);
    warm.push_back(t.warm_s);
  }

  const OpClass gated = GatedClass(kind);
  const double traced_p50 = PercentileMs(Latencies(p, gated), 0.50);
  const std::vector<int64_t> untraced_gated = Latencies(untraced, gated);
  const double untraced_p50 = PercentileMs(untraced_gated, 0.50);
  std::vector<int64_t> untraced_selects = Latencies(untraced, kSelectOp);

  *add = {sel.ops,
          trapdoor,
          verify,
          self_us - verify - trapdoor,
          rt_us,
          wall_us,
          static_cast<uint64_t>(n_gated),
          parse + lock_wait + plan + exec_index + exec_scan + proof +
              serialize + unstaged,
          unstaged,
          select_us};
  return {
      {"client.select_qps",
       Ratio(static_cast<double>(untraced_selects.size()), untraced.seconds),
       "1/s"},
      {"client.select_p50_ms", PercentileMs(untraced_selects, 0.50), "ms"},
      {"client.op_p50_ms", untraced_p50, "ms"},
      {"client.op_p99_ms", PercentileMs(untraced_gated, 0.99), "ms"},
      {"client.self_us", self_us, "us"},
      {"client.verify_us", verify, "us"},
      {"client.trapdoor_us", trapdoor, "us"},
      {"client.residual_us", self_us - verify - trapdoor, "us"},
      {"client.cpu_ms_per_op", Ratio((sel.cpu_ns + wr.cpu_ns) / 1e6, n_ops),
       "ms"},
      {"client.write_self_us",
       Ratio((wr.wall_ns - wr.round_trip_ns) / 1e3, n_wr), "us"},
      {"client.round_trips_per_write",
       Ratio(static_cast<double>(wr.round_trips), n_wr), "count"},
      {"client.encrypt_tuple_us", Ratio(wr.replica_ns / 1e3, wr.replicas),
       "us"},
      {"net.round_trip_us", rt_us, "us"},
      {"net.wire_us", sel.ops > 0 ? rt_us - select_us : 0, "us"},
      {"net.request_bytes",
       Ratio(static_cast<double>(sel.request_bytes + wr.request_bytes), n_ops),
       "B"},
      {"net.response_bytes",
       Ratio(static_cast<double>(sel.response_bytes + wr.response_bytes),
             n_ops),
       "B"},
      {"net.frames_in_per_op",
       Ratio(static_cast<double>(p.net_after.frames_in -
                                 p.net_before.frames_in),
             n_ops),
       "count"},
      {"server.select_us", select_us, "us"},
      {"server.parse_us", parse, "us"},
      {"server.serialize_us", serialize, "us"},
      {"server.lock_wait_us", lock_wait, "us"},
      {"server.handle_us", handle, "us"},
      {"server.unstaged_us", unstaged, "us"},
      {"server.cpu_ms_per_op",
       Ratio((p.process_cpu_ns - loop_cpu_ns) / 1e6, n_ops), "ms"},
      {"planner.plan_us", plan, "us"},
      {"planner.execute_index_us", exec_index, "us"},
      {"planner.index_hit_ratio", Ratio(index_hits, index_hits + scans),
       "ratio"},
      {"swp.execute_scan_us", exec_scan, "us"},
      {"swp.match_evals_per_op", Ratio(match_evals, n_gated), "count"},
      {"swp.ns_per_match_eval",
       scans > 0 ? Ratio(exec_scan * n_gated * 1e3, match_evals) : 0, "ns"},
      {"crypto.proof_build_us", proof, "us"},
      {"crypto.attestations_per_write",
       Ratio(CounterDelta(p, "dbph_integrity_attestations_total"), n_wr),
       "count"},
      {"storage.wal_fsync_us", Ratio(fsync_sum, fsync_count), "us"},
      {"storage.wal_bytes_per_write",
       Ratio(static_cast<double>(wal_bytes), static_cast<double>(wal_writes)),
       "B"},
      {"storage.checkpoints", CounterDelta(p, "dbph_checkpoints_total"),
       "count"},
      {"storage.checkpoint_ms", Ratio(ckpt_sum / 1e3, ckpt_count), "ms"},
      {"obs.leakage_evictions_per_op",
       Ratio(CounterDelta(p, "dbph_leakage_sketch_evictions_total"), n_ops),
       "count"},
      {"obs.index_memoized_per_op",
       Ratio(Delta(p.before.gauges, p.after.gauges, "dbph_index_memoized"),
             n_gated),
       "count"},
      {"setup.outsource_s", Median(outsource), "s"},
      {"setup.sync_s", Median(sync), "s"},
      {"setup.warm_s", Median(warm), "s"},
      {"trace.op_p50_ms", traced_p50, "ms"},
      {"trace.overhead_ms", traced_p50 - untraced_p50, "ms"},
  };
}

// --------------------------------------------------------------- output

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

int64_t VmRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

void WriteSpans(const Config& c, const Deployment& d) {
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string path =
      std::string(kOutDir) + "/spans-" + c.spec->name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_workloads: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "span_id,parent_id,name,start_ns,end_ns\n");
  size_t written = 0;
  for (const Session& s : d.sessions) {
    for (const Span& span : s.trace->spans) {
      std::fprintf(f, "%llu,%llu,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent), span.name,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
      ++written;
    }
  }
  std::fclose(f);
  std::fprintf(stderr, "bench_workloads: %zu spans written to %s\n", written,
               path.c_str());
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
}

/// Prints both additivity sums and returns how many remainders fell below
/// zero by more than rounding; each counts as a failure of the run.
uint64_t CheckAdditivity(const Additivity& a) {
  uint64_t failures = 0;
  if (a.selects > 0) {
    const bool bad = a.residual_us < -kRoundingUs;
    failures += bad;
    std::fprintf(stderr,
                 "additivity, client (per select): trapdoor %.1f + verify "
                 "%.1f + residual %.1f + round trip %.1f = %.1f us vs Select "
                 "wall %.1f us; residual %s\n",
                 a.trapdoor_us, a.verify_us, a.residual_us, a.round_trip_us,
                 a.trapdoor_us + a.verify_us + a.residual_us + a.round_trip_us,
                 a.wall_us, bad ? "NEGATIVE (failure)" : "ok");
  }
  if (a.server_ops > 0) {
    const bool bad = a.unstaged_us < -kRoundingUs;
    failures += bad;
    std::fprintf(stderr,
                 "additivity, server (per operation): parse + lock_wait + "
                 "plan + execute + proof + serialize + unstaged = %.1f us",
                 a.server_parts_us);
    if (a.selects > 0) {
      std::fprintf(stderr, " vs select %.1f us", a.server_select_us);
    }
    std::fprintf(stderr, "; unstaged %.1f us %s\n", a.unstaged_us,
                 bad ? "NEGATIVE (failure)" : "ok");
  }
  std::fprintf(stderr,
               "caveat: server histograms record whole microseconds per "
               "request, so stages under ~1 us read as 0\n");
  return failures;
}

// ---------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Config* c, std::string* workload) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      c->smoke = true;
      continue;
    }
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      *workload = value;
    } else if (arg == "--seed") {
      c->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      c->seconds = std::strtod(value.c_str(), &end);
      if (!(c->seconds > 0 && c->seconds <= 120)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      c->trace = value == "1";
    } else if (arg == "--source-digest") {
      c->source_digest = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return false;
  }
  return true;
}

int Run(Config c) {
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < 4) {
    std::fprintf(stderr,
                 "bench_workloads: warning: nproc = %u < 4; the two load "
                 "threads, two read workers and the scan pool share fewer "
                 "cores than the benchmark assumes\n",
                 nproc);
  }
  const Kind kind = c.spec->kind;
  const Inputs in = MakeInputs(kind, c.docs, c.seed);
  const rel::Relation table = BenchTable(c.docs);

  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> d;
  auto set_up = [&](int rep) {
    d.reset();
    auto deployment = SetUp(c, table, in, rep);
    if (!deployment.ok()) {
      std::fprintf(stderr, "bench_workloads: set-up failed: %s\n",
                   deployment.status().ToString().c_str());
      return false;
    }
    d = std::move(*deployment);
    setups.push_back(d->times);
    return true;
  };
  const int setups_before = (c.setup_repeats + 1) / 2;
  double rss_mb = 0;
  for (int rep = 0; rep < setups_before; ++rep) {
    if (!set_up(rep)) return 1;
    if (rep == 0) {
      // Taken on the first deployment, before any other was torn down,
      // so freed-but-retained heap from earlier set-ups never counts.
      malloc_trim(0);
      rss_mb = VmRssKb() / 1024.0;
    }
  }

  // The library reports its own git describe (taken when it was
  // configured) as the dbph_build_info label body.
  const auto infos = d->server->CollectStats().infos;
  const auto build_info = infos.find("dbph_build_info");
  std::printf(
      "{\"run\": {\"bench\": \"bench_workloads\", \"workload\": %s, "
      "\"build_info\": %s, \"source_digest\": %s, \"nproc\": %u, \"seed\": "
      "%llu, \"docs\": %zu, \"seconds\": %s, \"connections\": %d, "
      "\"read_workers\": %zu, \"setup_repeats\": %d, \"fsync\": %s, "
      "\"trace\": %d, \"smoke\": %s}}\n",
      JsonString(c.spec->name).c_str(),
      JsonString(build_info == infos.end() ? "unknown" : build_info->second)
          .c_str(),
      JsonString(c.source_digest).c_str(), nproc,
      static_cast<unsigned long long>(c.seed), c.docs,
      JsonNumber(c.seconds).c_str(), kConnections, kReadWorkers,
      c.setup_repeats, kind == Kind::kWriteMix ? "\"always\"" : "null",
      c.trace ? 1 : 0, c.smoke ? "true" : "false");
  std::fflush(stdout);

  Load load(c, in, d.get());
  // A short untimed warm-up lets lazily started threads and first-touch
  // page faults settle before anything is measured.
  Phase warmup = RunPhase(d.get(), &load, kWarmupSeconds, false, kConnections);
  Phase untraced = RunPhase(d.get(), &load, c.trace ? c.seconds / 2 : c.seconds,
                            false, kConnections);
  // write_mix's traced half pauses the reader, so the server's stage
  // histograms hold only the writer's requests and divide by its writes.
  Phase traced;
  if (c.trace) {
    traced = RunPhase(d.get(), &load, c.seconds / 2, true,
                      kind == Kind::kWriteMix ? 1 : kConnections);
  }

  // Quiesce before reading the observation log: stopping the NetServer
  // joins every thread that appends to it.
  d->net->Stop();
  uint64_t attempted = 0, failed = 0, expected_log = d->warm_selects;
  for (const Phase* p : {&warmup, &untraced, &traced}) {
    for (const LoopStats& loop : p->loops) {
      attempted += loop.attempted;
      failed += loop.failed;
      expected_log += loop.observed;
    }
  }
  const uint64_t logged = d->server->observations().aggregate().num_queries;
  if (logged != expected_log) {
    std::fprintf(stderr,
                 "bench_workloads: observation log holds %llu entries, "
                 "expected one per select and delete issued (%llu)\n",
                 static_cast<unsigned long long>(logged),
                 static_cast<unsigned long long>(expected_log));
    ++failed;
  }
  if (kind == Kind::kWriteMix) {
    ++attempted;
    if (Status s = RestartCheck(d.get(), table); !s.ok()) {
      std::fprintf(stderr, "bench_workloads: restart check failed: %s\n",
                   s.ToString().c_str());
      ++failed;
    }
  }

  std::vector<Metric> metrics;
  if (c.trace) {
    Additivity add;
    metrics = PerLayerMetrics(c, untraced, traced, setups, &add);
    WriteSpans(c, *d);
    failed += CheckAdditivity(add);
  } else {
    for (int rep = setups_before; rep < c.setup_repeats; ++rep) {
      if (!set_up(rep)) return 1;
    }
    std::vector<double> totals;
    for (const SetupTimes& t : setups) totals.push_back(t.total_s);
    metrics = EndToEndMetrics(c, untraced, Median(totals), rss_mb);
  }
  std::fprintf(stderr, "%s (seed %llu, %s):\n", c.spec->name,
               static_cast<unsigned long long>(c.seed),
               c.trace ? "per-layer, traced" : "end-to-end");
  PrintTable(metrics);

  const bool correct = failed == 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config c;
  std::string workload;
  if (!ParseArgs(argc, argv, &c, &workload)) {
    std::fprintf(stderr,
                 "usage: bench_workloads --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke]\n");
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name) c.spec = &spec;
  }
  if (c.spec == nullptr) {
    std::fprintf(stderr,
                 "bench_workloads: unknown workload '%s' (scan_point, "
                 "hot_point, hot_range, write_mix)\n",
                 workload.c_str());
    return 2;
  }
  c.docs = c.smoke ? kSmokeDocs : c.spec->docs;
  if (c.smoke) {
    c.seconds = kSmokeSeconds;
    c.setup_repeats = 1;
  } else if (c.trace) {
    c.setup_repeats = 1;
  }
  return Run(std::move(c));
}
