// Experiment E6 — the performance overhead the paper's conclusion weighs
// against security guarantees.
//
// google-benchmark suite comparing, at equal workloads:
//   - tuple encryption throughput: database PH vs bucketization vs
//     Damiani hash index;
//   - exact-select latency vs table size: plaintext B+tree index,
//     plaintext scan, bucketization (label index + filter), Damiani
//     (label index + filter), database PH (trapdoor scan + filter);
//   - decryption and trapdoor generation costs.
//
// Expected shape: plaintext B+tree << bucketization/Damiani (index probe
// + candidate decryption) << database PH (linear trapdoor scan — the
// price of hiding the access pattern per value). Encryption within small
// constant factors across schemes.

// Batch-runtime mode (BENCH_PARALLEL trajectory): invoking with any of
//   --threads=N --batch=M --docs=K --rounds=R
// skips google-benchmark and instead reports sequential-vs-parallel
// batched select throughput as one JSON object on stdout (the seed for
// tracking scan scalability across hardware). Each side repeats its
// round for at least R rounds and one second, and reports completed
// queries per elapsed second.
//
// Network mode: adding --network (with optional --clients=N) spins up an
// epoll NetServer on a loopback ephemeral port and hammers it with N
// concurrent socket-backed clients issuing batched selects; reports
// aggregate multi-client queries/sec as JSON.
//
// Durability mode: --durability [--mutations=N] measures single-tuple
// Insert round trips against three deployments — memory-only, WAL with
// group commit (--fsync=batch), WAL with per-mutation fsync
// (--fsync=always) — and reports mutation throughput per policy as JSON
// (the price of crash safety at each durability level).
//
// Index mode: --index [--repeats=N] measures repeated-trapdoor select
// throughput with the trapdoor posting-list index enabled vs disabled
// over the same ciphertext (identical DRBG seeds), asserting that
// results and observation logs stay byte-identical; reports scan vs
// index queries/sec and the speedup as JSON. The acceptance bar for the
// planner work is speedup >= 10 at --docs=100000.
//
// Integrity mode: --integrity [--repeats=N] [--mutations=N] measures the
// price of Merkle result proofs: select, insert and delete throughput
// with integrity off + VerifyMode::kOff (the PR-4 baseline) vs integrity
// on + VerifyMode::kEnforce, over identical ciphertext, splitting
// server-side proof generation from client-side verification; asserts
// verified results match the baseline and every delete removes its row.
// Deletes come in two shapes: the inserted rows again, newest first
// (each removes the last row), and a fixed sample of rows spread through
// the table (each shifts every later row).
//
// Scan mode: --scan [--repeats=N] [--threads=N] seals one encrypted
// relation with the server's own chunk code and times, in-process, the
// server's full trapdoor scan (RelationSnapshot::Scan: the batched HMAC
// match kernel, sharded over a worker pool) against ScanReference (the
// scalar per-document sweep kept as its test oracle). Reports point and
// ~1%-selectivity probes, per-query heap allocation counts (via the
// global operator-new hook below — the kernel's zero-per-word-allocation
// claim, measured) and the PRF evaluations per scan; asserts both scans
// return the same positions, row ids and document bytes and that the
// kernel evaluates every word slot exactly once.
//
// Stats mode: --stats [--repeats=N] measures the observability layer
// itself: point-select throughput with metrics on vs off over identical
// ciphertext (the acceptance bar is qps_on >= 0.98 * qps_off), plus the
// dispatch-lock wait share of select latency and a kStats round-trip
// check, all read back from the live registry.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "baselines/bucket/bucket_scheme.h"
#include "baselines/bucket/bucket_server.h"
#include "baselines/damiani/hash_scheme.h"
#include "baselines/plain/plain_engine.h"
#include "client/client.h"
#include "common/stopwatch.h"
#include "crypto/random.h"
#include "crypto/sha256_compress.h"
#include "dbph/scheme.h"
#include "net/net_server.h"
#include "net/tcp_transport.h"
#include "server/durable_store.h"
#include "server/runtime/thread_pool.h"
#include "server/snapshot.h"
#include "server/untrusted_server.h"

// Global heap-allocation counter, fed by replacing the throwing operator
// new/delete pairs. Every mode pays one relaxed atomic increment per
// allocation (noise-level); --scan reads deltas around each scan to
// report allocations per query on each matcher path. The aligned
// overloads are left alone — replaced and default pairs never mix.
static std::atomic<uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace dbph;

namespace {

rel::Schema BenchSchema() {
  auto schema = rel::Schema::Create({
      {"key", rel::ValueType::kString, 12},
      {"val", rel::ValueType::kInt64, 10},
  });
  return *schema;
}

/// `n` rows; val has ~1% selectivity.
rel::Relation BenchTable(size_t n) {
  rel::Relation table("T", BenchSchema());
  for (size_t i = 0; i < n; ++i) {
    (void)table.Insert({rel::Value::Str("k" + std::to_string(i)),
                        rel::Value::Int(static_cast<int64_t>(i % 100))});
  }
  return table;
}

baseline::BucketOptions BucketConfig() {
  baseline::BucketOptions options;
  baseline::BucketAttributeConfig val;
  val.kind = baseline::PartitionKind::kEquiWidth;
  val.lo = 0;
  val.hi = 100;
  val.buckets = 25;
  options.attribute_configs["val"] = val;
  return options;
}

const rel::Value kProbe = rel::Value::Int(42);

// ---------------- encryption throughput ----------------

void BM_EncryptTuple_Dbph(benchmark::State& state) {
  crypto::HmacDrbg rng("e6", 1);
  auto ph = core::DatabasePh::Create(BenchSchema(), ToBytes("k"));
  rel::Tuple tuple({rel::Value::Str("k123456"), rel::Value::Int(42)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph->EncryptTuple(tuple, &rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncryptTuple_Dbph);

void BM_EncryptTuple_DbphVariableLength(benchmark::State& state) {
  crypto::HmacDrbg rng("e6", 1);
  core::DbphOptions options;
  options.variable_length = true;
  auto ph = core::DatabasePh::Create(BenchSchema(), ToBytes("k"), options);
  rel::Tuple tuple({rel::Value::Str("k123456"), rel::Value::Int(42)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph->EncryptTuple(tuple, &rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncryptTuple_DbphVariableLength);

void BM_EncryptTuple_Bucket(benchmark::State& state) {
  crypto::HmacDrbg rng("e6", 1);
  auto scheme =
      baseline::BucketScheme::Create(BenchSchema(), ToBytes("k"),
                                     BucketConfig());
  rel::Tuple tuple({rel::Value::Str("k123456"), rel::Value::Int(42)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->EncryptTuple(tuple, &rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncryptTuple_Bucket);

void BM_EncryptTuple_Damiani(benchmark::State& state) {
  crypto::HmacDrbg rng("e6", 1);
  auto scheme = baseline::DamianiScheme::Create(BenchSchema(), ToBytes("k"));
  rel::Tuple tuple({rel::Value::Str("k123456"), rel::Value::Int(42)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme->EncryptTuple(tuple, &rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncryptTuple_Damiani);

// ---------------- decryption / trapdoors ----------------

void BM_DecryptTuple_Dbph(benchmark::State& state) {
  crypto::HmacDrbg rng("e6", 1);
  auto ph = core::DatabasePh::Create(BenchSchema(), ToBytes("k"));
  rel::Tuple tuple({rel::Value::Str("k123456"), rel::Value::Int(42)});
  auto doc = ph->EncryptTuple(tuple, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph->DecryptTuple(*doc));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecryptTuple_Dbph);

void BM_QueryEncrypt_Dbph(benchmark::State& state) {
  auto ph = core::DatabasePh::Create(BenchSchema(), ToBytes("k"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph->EncryptQuery("T", "val", kProbe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryEncrypt_Dbph);

// ---------------- exact select latency vs table size ----------------

void BM_Select_PlainBTree(benchmark::State& state) {
  static std::map<size_t, std::unique_ptr<baseline::PlainEngine>> cache;
  size_t n = static_cast<size_t>(state.range(0));
  if (cache.count(n) == 0) {
    auto engine = baseline::PlainEngine::Create(BenchTable(n));
    cache[n] = std::make_unique<baseline::PlainEngine>(std::move(*engine));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache[n]->Select("val", kProbe));
  }
}
BENCHMARK(BM_Select_PlainBTree)->Range(1 << 10, 1 << 14);

void BM_Select_PlainScan(benchmark::State& state) {
  static std::map<size_t, std::unique_ptr<baseline::PlainEngine>> cache;
  size_t n = static_cast<size_t>(state.range(0));
  if (cache.count(n) == 0) {
    auto engine = baseline::PlainEngine::Create(BenchTable(n));
    cache[n] = std::make_unique<baseline::PlainEngine>(std::move(*engine));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache[n]->SelectScan("val", kProbe));
  }
}
BENCHMARK(BM_Select_PlainScan)->Range(1 << 10, 1 << 14);

struct BucketDeployment {
  std::unique_ptr<baseline::BucketScheme> scheme;
  std::unique_ptr<baseline::BucketServer> server;
};

void BM_Select_Bucket(benchmark::State& state) {
  static std::map<size_t, std::unique_ptr<BucketDeployment>> cache;
  size_t n = static_cast<size_t>(state.range(0));
  if (cache.count(n) == 0) {
    crypto::HmacDrbg rng("e6-bucket", n);
    auto deployment = std::make_unique<BucketDeployment>();
    auto scheme = baseline::BucketScheme::Create(BenchSchema(), ToBytes("k"),
                                                 BucketConfig());
    deployment->scheme =
        std::make_unique<baseline::BucketScheme>(std::move(*scheme));
    deployment->server = std::make_unique<baseline::BucketServer>(
        *deployment->scheme->EncryptRelation(BenchTable(n), &rng));
    cache[n] = std::move(deployment);
  }
  auto& d = *cache[n];
  for (auto _ : state) {
    // Server: index probe; client: decrypt candidates + filter.
    Bytes label = *d.scheme->QueryLabel("val", kProbe);
    auto candidates = d.server->SelectByLabel(1, label);
    benchmark::DoNotOptimize(
        d.scheme->DecryptAndFilter(*candidates, "val", kProbe));
  }
}
BENCHMARK(BM_Select_Bucket)->Range(1 << 10, 1 << 14);

struct DamianiDeployment {
  std::unique_ptr<baseline::DamianiScheme> scheme;
  std::unique_ptr<baseline::DamianiServer> server;
};

void BM_Select_Damiani(benchmark::State& state) {
  static std::map<size_t, std::unique_ptr<DamianiDeployment>> cache;
  size_t n = static_cast<size_t>(state.range(0));
  if (cache.count(n) == 0) {
    crypto::HmacDrbg rng("e6-damiani", n);
    auto deployment = std::make_unique<DamianiDeployment>();
    auto scheme =
        baseline::DamianiScheme::Create(BenchSchema(), ToBytes("k"));
    deployment->scheme =
        std::make_unique<baseline::DamianiScheme>(std::move(*scheme));
    deployment->server = std::make_unique<baseline::DamianiServer>(
        *deployment->scheme->EncryptRelation(BenchTable(n), &rng));
    cache[n] = std::move(deployment);
  }
  auto& d = *cache[n];
  for (auto _ : state) {
    Bytes label = *d.scheme->QueryLabel("val", kProbe);
    auto candidates = d.server->SelectByLabel(1, label);
    benchmark::DoNotOptimize(
        d.scheme->DecryptAndFilter(*candidates, "val", kProbe));
  }
}
BENCHMARK(BM_Select_Damiani)->Range(1 << 10, 1 << 14);

struct DbphDeployment {
  std::unique_ptr<core::DatabasePh> ph;
  core::EncryptedRelation encrypted;
};

void BM_Select_Dbph(benchmark::State& state) {
  static std::map<size_t, std::unique_ptr<DbphDeployment>> cache;
  size_t n = static_cast<size_t>(state.range(0));
  if (cache.count(n) == 0) {
    crypto::HmacDrbg rng("e6-dbph", n);
    auto deployment = std::make_unique<DbphDeployment>();
    auto ph = core::DatabasePh::Create(BenchSchema(), ToBytes("k"));
    deployment->ph = std::make_unique<core::DatabasePh>(std::move(*ph));
    deployment->encrypted =
        *deployment->ph->EncryptRelation(BenchTable(n), &rng);
    cache[n] = std::move(deployment);
  }
  auto& d = *cache[n];
  for (auto _ : state) {
    auto query = d.ph->EncryptQuery("T", "val", kProbe);
    auto hits = ExecuteSelect(d.encrypted, *query);
    std::vector<swp::EncryptedDocument> docs;
    for (size_t i : hits) docs.push_back(d.encrypted.documents[i]);
    benchmark::DoNotOptimize(d.ph->DecryptAndFilter(docs, "val", kProbe));
  }
}
BENCHMARK(BM_Select_Dbph)->Range(1 << 10, 1 << 14);

// End-to-end table encryption (items = tuples).
void BM_EncryptRelation_Dbph(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  rel::Relation table = BenchTable(n);
  crypto::HmacDrbg rng("e6-enc", 1);
  auto ph = core::DatabasePh::Create(BenchSchema(), ToBytes("k"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ph->EncryptRelation(table, &rng));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EncryptRelation_Dbph)->Arg(1 << 10);

// ------------- sequential vs parallel batched select (JSON mode) -------------

struct ParallelBenchConfig {
  size_t threads = 0;     // 0 = hardware concurrency
  size_t batch = 32;      // queries per batch round trip
  size_t docs = 100000;   // stored documents
  size_t rounds = 3;      // timed repetitions (best-of)
  size_t clients = 4;     // concurrent socket clients (--network mode)
  bool network = false;   // serve over loopback TCP instead of in-process
  bool durability = false;  // compare mutation throughput per fsync policy
  size_t mutations = 2000;  // insert round trips per policy (--durability)
  bool index = false;       // scan vs trapdoor-index select throughput
  bool scan = false;        // Scan vs ScanReference, in-process
  size_t repeats = 50;      // repeated-trapdoor selects per side (--index)
  bool integrity = false;   // Merkle proof generation/verification overhead
  bool stats = false;       // metrics overhead + lock-wait share (--stats)
};

/// One in-process deployment; `options` tunes the server runtime. The
/// transport accumulates time spent inside the server so modes can
/// report server-side cost separately from client crypto.
struct E6Deployment {
  explicit E6Deployment(server::ServerRuntimeOptions options)
      : server(options),
        rng("e6-parallel", 11),
        client(ToBytes("master"),
               [this](const Bytes& request) {
                 uint64_t allocs_before =
                     g_heap_allocs.load(std::memory_order_relaxed);
                 Stopwatch timer;
                 Bytes response = server.HandleRequest(request);
                 server_seconds += timer.ElapsedSeconds();
                 server_allocs +=
                     g_heap_allocs.load(std::memory_order_relaxed) -
                     allocs_before;
                 return response;
               },
               &rng) {}

  server::UntrustedServer server;
  crypto::HmacDrbg rng;
  double server_seconds = 0;
  uint64_t server_allocs = 0;
  client::Client client;
};

int RunParallelBench(const ParallelBenchConfig& config) {
  size_t threads = config.threads != 0 ? config.threads
                                       : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;

  // Two deployments over the same DRBG seed hold byte-identical
  // ciphertext, so results and observation logs are directly comparable.
  server::ServerRuntimeOptions seq_options;
  seq_options.num_threads = 1;
  seq_options.num_shards = 1;
  server::ServerRuntimeOptions par_options;
  par_options.num_threads = threads;
  E6Deployment seq(seq_options);
  E6Deployment par(par_options);

  std::fprintf(stderr, "outsourcing %zu documents...\n", config.docs);
  rel::Relation table = BenchTable(config.docs);
  if (!seq.client.Outsource(table).ok() || !par.client.Outsource(table).ok()) {
    std::fprintf(stderr, "outsource failed\n");
    return 1;
  }

  std::vector<std::pair<std::string, rel::Value>> queries;
  for (size_t i = 0; i < config.batch; ++i) {
    queries.emplace_back(
        "val", rel::Value::Int(static_cast<int64_t>(i % 100)));
  }

  // Warm-up + correctness: batched results must match one-by-one results
  // tuple for tuple, with one observation log entry per query on both
  // sides.
  std::vector<rel::Relation> expected;
  for (const auto& [attribute, value] : queries) {
    auto r = seq.client.Select("T", attribute, value);
    if (!r.ok()) {
      std::fprintf(stderr, "sequential select failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    expected.push_back(std::move(*r));
  }
  auto batched = par.client.SelectBatch("T", queries);
  if (!batched.ok()) {
    std::fprintf(stderr, "batched select failed: %s\n",
                 batched.status().ToString().c_str());
    return 1;
  }
  bool results_match = batched->size() == expected.size();
  for (size_t i = 0; results_match && i < expected.size(); ++i) {
    results_match = (*batched)[i].SameTuples(expected[i]);
  }
  bool log_match =
      seq.server.observations().queries().size() == queries.size() &&
      par.server.observations().queries().size() == queries.size();

  // Timed phases: each side repeats its round (sequential = one Select
  // round trip per query; parallel = one SelectBatch round trip for all
  // of them) until it has run at least `rounds` rounds and
  // kParallelPhaseSeconds have passed, and reports completed queries per
  // elapsed second. A single round lasts a few tens of milliseconds —
  // too short a window to tell the two sides apart.
  constexpr double kParallelPhaseSeconds = 1.0;
  const auto timed_phase = [&](const auto& round_trip, size_t* rounds_done,
                               double* seconds) {
    Stopwatch timer;
    *rounds_done = 0;
    do {
      if (!round_trip()) return false;
      ++*rounds_done;
      *seconds = timer.ElapsedSeconds();
    } while (*rounds_done < config.rounds || *seconds < kParallelPhaseSeconds);
    return true;
  };
  size_t seq_rounds = 0, par_rounds = 0;
  double seq_seconds = 0, par_seconds = 0;
  const bool seq_ok = timed_phase(
      [&] {
        for (const auto& [attribute, value] : queries) {
          if (!seq.client.Select("T", attribute, value).ok()) return false;
        }
        return true;
      },
      &seq_rounds, &seq_seconds);
  const bool par_ok = timed_phase(
      [&] { return par.client.SelectBatch("T", queries).ok(); }, &par_rounds,
      &par_seconds);
  if (!seq_ok || !par_ok) return 1;

  double seq_qps =
      static_cast<double>(seq_rounds * queries.size()) / seq_seconds;
  double par_qps =
      static_cast<double>(par_rounds * queries.size()) / par_seconds;
  std::printf(
      "{\"bench\":\"e6_parallel_batch\",\"docs\":%zu,\"threads\":%zu,"
      "\"batch\":%zu,\"seq_rounds\":%zu,\"par_rounds\":%zu,"
      "\"seq_seconds\":%.6f,\"par_seconds\":%.6f,\"seq_qps\":%.2f,"
      "\"par_qps\":%.2f,\"speedup\":%.3f,\"results_match\":%s,"
      "\"per_query_log_entry\":%s}\n",
      config.docs, threads, queries.size(), seq_rounds, par_rounds,
      seq_seconds, par_seconds, seq_qps, par_qps, par_qps / seq_qps,
      results_match ? "true" : "false", log_match ? "true" : "false");
  return (results_match && log_match) ? 0 : 1;
}

// ---------------- multi-client network throughput (JSON mode) ----------------

int RunNetworkBench(const ParallelBenchConfig& config) {
  size_t threads = config.threads != 0 ? config.threads
                                       : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;

  server::ServerRuntimeOptions runtime_options;
  runtime_options.num_threads = threads;
  server::UntrustedServer eve(runtime_options);
  net::NetServerOptions net_options;
  net_options.max_connections = config.clients + 4;
  net::NetServer net_server(&eve, net_options);
  if (Status s = net_server.Start(); !s.ok()) {
    std::fprintf(stderr, "NetServer: %s\n", s.ToString().c_str());
    return 1;
  }

  std::fprintf(stderr, "outsourcing %zu documents over the wire...\n",
               config.docs);
  rel::Relation table = BenchTable(config.docs);
  crypto::HmacDrbg main_rng("e6-net", 0);
  auto main_transport =
      net::TcpTransport::Connect("127.0.0.1", net_server.port());
  if (!main_transport.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 main_transport.status().ToString().c_str());
    return 1;
  }
  client::Client main_client(ToBytes("e6 master"),
                             (*main_transport)->AsTransport(), &main_rng);
  if (!main_client.Outsource(table).ok()) {
    std::fprintf(stderr, "outsource failed\n");
    return 1;
  }

  // Every client issues the same batch; expected answers come from the
  // plaintext table, so correctness is checked against ground truth, not
  // against another deployment.
  std::vector<std::pair<std::string, rel::Value>> queries;
  std::vector<rel::Relation> expected;
  for (size_t i = 0; i < config.batch; ++i) {
    rel::Value value = rel::Value::Int(static_cast<int64_t>(i % 100));
    queries.emplace_back("val", value);
    auto truth = table.Select("val", value);
    if (!truth.ok()) return 1;
    expected.push_back(std::move(*truth));
  }

  std::atomic<size_t> ready{0};
  std::atomic<bool> start{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (size_t c = 0; c < config.clients; ++c) {
    workers.emplace_back([&, c] {
      crypto::HmacDrbg rng("e6-net", c + 1);
      auto transport =
          net::TcpTransport::Connect("127.0.0.1", net_server.port());
      if (!transport.ok()) {
        failures.fetch_add(1);
        ready.fetch_add(1);
        return;
      }
      client::Client client(ToBytes("e6 master"),
                            (*transport)->AsTransport(), &rng);
      // Shared master key: adopting the relation derives the same scheme
      // the uploader used, with no re-upload.
      if (!client.Adopt("T", BenchSchema()).ok()) {
        failures.fetch_add(1);
        ready.fetch_add(1);
        return;
      }
      ready.fetch_add(1);
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t round = 0; round < config.rounds; ++round) {
        auto results = client.SelectBatch("T", queries);
        if (!results.ok() || results->size() != expected.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < expected.size(); ++i) {
          if (!(*results)[i].SameTuples(expected[i])) mismatches.fetch_add(1);
        }
      }
    });
  }

  while (ready.load(std::memory_order_acquire) < config.clients) {
    std::this_thread::yield();
  }
  Stopwatch timer;
  start.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  double elapsed = timer.ElapsedSeconds();
  net_server.Stop();

  size_t total_queries = config.clients * config.rounds * config.batch;
  bool results_match = mismatches.load() == 0 && failures.load() == 0;
  bool log_match =
      eve.observations().queries().size() == total_queries;
  auto stats = net_server.stats();
  std::printf(
      "{\"bench\":\"e6_network\",\"docs\":%zu,\"threads\":%zu,"
      "\"clients\":%zu,\"batch\":%zu,\"rounds\":%zu,\"seconds\":%.6f,"
      "\"qps\":%.2f,\"frames\":%llu,\"connections\":%llu,"
      "\"results_match\":%s,\"per_query_log_entry\":%s}\n",
      config.docs, threads, config.clients, config.batch, config.rounds,
      elapsed, static_cast<double>(total_queries) / elapsed,
      static_cast<unsigned long long>(stats.frames_in),
      static_cast<unsigned long long>(stats.accepted),
      results_match ? "true" : "false", log_match ? "true" : "false");
  return (results_match && log_match) ? 0 : 1;
}

// ------------- scan vs trapdoor-index select throughput (JSON mode) ----------

int RunIndexBench(const ParallelBenchConfig& config) {
  // Identical DRBG seeds: both deployments hold byte-identical
  // ciphertext, so results and observation logs are directly comparable.
  server::ServerRuntimeOptions scan_options;
  scan_options.enable_trapdoor_index = false;
  server::ServerRuntimeOptions index_options;
  index_options.enable_trapdoor_index = true;
  E6Deployment scan(scan_options);
  E6Deployment indexed(index_options);

  std::fprintf(stderr, "outsourcing %zu documents twice...\n", config.docs);
  rel::Relation table = BenchTable(config.docs);
  if (!scan.client.Outsource(table).ok() ||
      !indexed.client.Outsource(table).ok()) {
    std::fprintf(stderr, "outsource failed\n");
    return 1;
  }

  // Two repeated trapdoors: a unique-key point select (1 match — the
  // OLTP shape, where the index advantage survives end to end) and the
  // ~1%-selectivity probe (1000 matches at 100k docs — here the client
  // decrypting every match dominates both sides, so the access-path win
  // shows in the server-side split). On the indexed side the first
  // select of each probe is the memoizing scan; every repeat after it
  // is a posting-list fetch.
  struct Probe {
    const char* label;
    std::string attribute;
    rel::Value value;
  };
  const Probe probes[] = {
      {"point", "key", rel::Value::Str("k42")},
      {"1pct", "val", kProbe},
  };

  bool all_ok = true;
  for (const Probe& probe : probes) {
    auto expected = scan.client.Select("T", probe.attribute, probe.value);
    auto warm = indexed.client.Select("T", probe.attribute, probe.value);
    if (!expected.ok() || !warm.ok()) {
      std::fprintf(stderr, "warm-up select failed\n");
      return 1;
    }
    bool results_match = expected->SameTuples(*warm);

    // Timed: `repeats` repeated-trapdoor selects per side. End-to-end
    // time includes the client decrypting every match (identical both
    // sides); the server-side split isolates what the access path costs.
    scan.server_seconds = 0;
    Stopwatch scan_timer;
    for (size_t i = 0; i < config.repeats; ++i) {
      auto r = scan.client.Select("T", probe.attribute, probe.value);
      if (!r.ok()) return 1;
      if (i == 0) results_match = results_match && r->SameTuples(*expected);
    }
    double scan_seconds = scan_timer.ElapsedSeconds();
    double scan_server_seconds = scan.server_seconds;
    indexed.server_seconds = 0;
    Stopwatch index_timer;
    for (size_t i = 0; i < config.repeats; ++i) {
      auto r = indexed.client.Select("T", probe.attribute, probe.value);
      if (!r.ok()) return 1;
      if (i == 0) results_match = results_match && r->SameTuples(*expected);
    }
    double index_seconds = index_timer.ElapsedSeconds();
    double index_server_seconds = indexed.server_seconds;

    double scan_qps = static_cast<double>(config.repeats) / scan_seconds;
    double index_qps = static_cast<double>(config.repeats) / index_seconds;
    double server_speedup = scan_server_seconds / index_server_seconds;
    std::printf(
        "{\"bench\":\"e6_index\",\"probe\":\"%s\",\"docs\":%zu,"
        "\"repeats\":%zu,"
        "\"result_size\":%zu,\"scan_seconds\":%.6f,\"index_seconds\":%.6f,"
        "\"scan_qps\":%.2f,\"index_qps\":%.2f,\"speedup\":%.3f,"
        "\"server_scan_seconds\":%.6f,\"server_index_seconds\":%.6f,"
        "\"server_speedup\":%.3f,"
        "\"results_match\":%s}\n",
        probe.label, config.docs, config.repeats, expected->size(),
        scan_seconds, index_seconds, scan_qps, index_qps,
        index_qps / scan_qps, scan_server_seconds, index_server_seconds,
        server_speedup, results_match ? "true" : "false");
    all_ok = all_ok && results_match;
  }

  // Byte-identical observation logs across the whole run, entry by
  // entry: the acceptance property the planner tests assert, checked
  // here at real workload sizes.
  const auto& scan_log = scan.server.observations().queries();
  const auto& index_log = indexed.server.observations().queries();
  bool log_match = scan_log.size() == index_log.size();
  for (size_t i = 0; log_match && i < scan_log.size(); ++i) {
    log_match = scan_log[i].relation == index_log[i].relation &&
                scan_log[i].trapdoor_bytes == index_log[i].trapdoor_bytes &&
                scan_log[i].matched_records == index_log[i].matched_records;
  }
  std::fprintf(stderr, "observation logs %s (%zu entries per side)\n",
               log_match ? "identical" : "DIVERGED", scan_log.size());
  return (all_ok && log_match) ? 0 : 1;
}

// ------------- batched scan kernel vs scalar reference (JSON mode) -----------

int RunScanBench(const ParallelBenchConfig& config) {
  // One relation state sealed by the server's own chunk code, scanned
  // in-process two ways: RelationSnapshot::Scan (the server's one scan:
  // batched match kernel, sharded over a pool like the server's) and
  // ScanReference (the scalar per-document sweep kept as its test
  // oracle). Nothing but the matcher differs.
  size_t threads = config.threads != 0 ? config.threads
                                       : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  crypto::HmacDrbg rng("e6-scan", 11);
  auto ph = core::DatabasePh::Create(BenchSchema(), ToBytes("master"));
  if (!ph.ok()) return 1;
  std::fprintf(stderr, "encrypting %zu documents...\n", config.docs);
  auto encrypted = ph->EncryptRelation(BenchTable(config.docs), &rng);
  if (!encrypted.ok()) return 1;
  server::RelationSnapshot rel;
  rel.check_length = encrypted->check_length;
  uint64_t next_row_id = 0;
  if (!rel.AppendDocuments(encrypted->documents, &next_row_id).ok()) {
    std::fprintf(stderr, "sealing chunks failed\n");
    return 1;
  }
  server::runtime::ThreadPool pool(threads);
  const size_t shards = 4 * threads;  // the server's default fan-out

  struct Probe {
    const char* label;
    std::string attribute;
    rel::Value value;
  };
  const Probe probes[] = {
      {"point", "key", rel::Value::Str("k42")},
      {"1pct", "val", kProbe},
  };

  bool all_ok = true;
  for (const Probe& probe : probes) {
    auto query = ph->EncryptQuery("T", probe.attribute, probe.value);
    if (!query.ok()) return 1;
    const swp::Trapdoor& trapdoor = query->trapdoor;

    // Timed: `repeats` scans per side, with the heap allocations each
    // makes (the kernel's zero-per-word-allocation claim, measured).
    std::vector<server::SnapshotMatch> reference;
    uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    Stopwatch reference_timer;
    for (size_t i = 0; i < config.repeats; ++i) {
      reference.clear();
      if (!rel.ScanReference(trapdoor, &reference).ok()) return 1;
    }
    double reference_seconds = reference_timer.ElapsedSeconds();
    uint64_t reference_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;

    std::vector<server::SnapshotMatch> kernel;
    uint64_t kernel_evals = 0;
    allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    Stopwatch kernel_timer;
    for (size_t i = 0; i < config.repeats; ++i) {
      kernel.clear();
      if (!rel.Scan(trapdoor, 0, shards, &pool, &kernel, &kernel_evals).ok()) {
        return 1;
      }
    }
    double kernel_seconds = kernel_timer.ElapsedSeconds();
    uint64_t kernel_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;

    bool results_match = kernel.size() == reference.size();
    for (size_t i = 0; results_match && i < kernel.size(); ++i) {
      Bytes a, b;
      kernel[i].doc.AppendTo(&a);
      reference[i].doc.AppendTo(&b);
      results_match = kernel[i].position == reference[i].position &&
                      kernel[i].row_id == reference[i].row_id && a == b;
    }
    results_match = results_match && kernel_evals == rel.word_slots * config.repeats;

    double repeats_d = static_cast<double>(config.repeats);
    double scalar_qps = repeats_d / reference_seconds;
    double kernel_qps = repeats_d / kernel_seconds;
    std::printf(
        "{\"bench\":\"e6_scan\",\"probe\":\"%s\",\"docs\":%zu,"
        "\"repeats\":%zu,\"threads\":%zu,\"shards\":%zu,"
        "\"result_size\":%zu,\"sha256_kernel\":\"%s\","
        "\"scalar_seconds\":%.6f,\"kernel_seconds\":%.6f,"
        "\"scalar_qps\":%.2f,\"kernel_qps\":%.2f,\"speedup\":%.3f,"
        "\"scalar_allocs_per_query\":%.1f,\"kernel_allocs_per_query\":%.1f,"
        "\"kernel_match_evals\":%llu,"
        "\"results_match\":%s}\n",
        probe.label, config.docs, config.repeats, threads, shards,
        kernel.size(), crypto::Sha256KernelName(crypto::ActiveSha256Kernel()),
        reference_seconds, kernel_seconds, scalar_qps, kernel_qps,
        kernel_qps / scalar_qps,
        static_cast<double>(reference_allocs) / repeats_d,
        static_cast<double>(kernel_allocs) / repeats_d,
        static_cast<unsigned long long>(kernel_evals / config.repeats),
        results_match ? "true" : "false");
    all_ok = all_ok && results_match;
  }
  return all_ok ? 0 : 1;
}

// ---------------- mutation throughput per fsync policy (JSON mode) -----------

struct DurabilityRun {
  double ops_per_sec = 0;
  uint64_t checkpoints = 0;
  uint64_t wal_records = 0;
  bool ok = false;
};

/// Times `mutations` single-tuple Insert round trips (plus one closing
/// kFlush) against one deployment; `mode` empty = memory-only baseline.
DurabilityRun RunOneDurabilityPolicyOnce(const ParallelBenchConfig& config,
                                         const std::string& mode) {
  DurabilityRun run;
  server::UntrustedServer eve;
  std::unique_ptr<server::DurableStore> store;
  std::string dir;
  if (!mode.empty()) {
    // Per-process dir: concurrent bench invocations on one host must not
    // remove_all each other's live WAL.
    dir = (std::filesystem::temp_directory_path() /
           ("dbph_e6_durability_" + mode + "_" +
            std::to_string(static_cast<long>(::getpid()))))
              .string();
    std::filesystem::remove_all(dir);
    server::DurableStoreOptions options;
    options.sync_mode = mode == "batch" ? storage::WalSyncMode::kBatch
                                        : storage::WalSyncMode::kAlways;
    options.sync_interval_ms = 5;
    options.checkpoint_interval_ms = 1000;
    store = std::make_unique<server::DurableStore>(&eve, dir, options);
    if (!store->Open().ok()) return run;
  }

  crypto::HmacDrbg rng("e6-durability", 21);
  client::Client client(
      ToBytes("e6 master"),
      [&eve](const Bytes& request) { return eve.HandleRequest(request); },
      &rng);
  if (!client.Outsource(BenchTable(config.docs)).ok()) return run;

  Stopwatch timer;
  for (size_t i = 0; i < config.mutations; ++i) {
    rel::Tuple tuple({rel::Value::Str("m" + std::to_string(i)),
                      rel::Value::Int(static_cast<int64_t>(i % 100))});
    if (!client.Insert("T", {tuple}).ok()) return run;
  }
  if (!client.Flush().ok()) return run;  // durability point ends the run
  double elapsed = timer.ElapsedSeconds();

  run.ops_per_sec = static_cast<double>(config.mutations) / elapsed;
  if (store) {
    auto stats = store->stats();
    run.checkpoints = stats.checkpoints;
    run.wal_records = stats.wal_records;
    run.ok = stats.wal_records == config.mutations + 1;  // ops + outsource
    (void)store->Close();
    store.reset();
    std::filesystem::remove_all(dir);
  } else {
    run.ok = true;
  }
  return run;
}

/// Best-of-`rounds` for one policy — fsync throughput is noisy, and the
/// other modes already report best-of; a single run is not a trajectory
/// point. Every round must satisfy the all-mutations-logged invariant.
DurabilityRun RunOneDurabilityPolicy(const ParallelBenchConfig& config,
                                     const std::string& mode) {
  DurabilityRun best;
  best.ok = true;
  for (size_t round = 0; round < config.rounds; ++round) {
    DurabilityRun run = RunOneDurabilityPolicyOnce(config, mode);
    best.ok = best.ok && run.ok;
    if (round == 0 || run.ops_per_sec > best.ops_per_sec) {
      best.ops_per_sec = run.ops_per_sec;
      best.checkpoints = run.checkpoints;
      best.wal_records = run.wal_records;
    }
  }
  return best;
}

int RunDurabilityBench(const ParallelBenchConfig& config) {
  DurabilityRun none = RunOneDurabilityPolicy(config, "");
  DurabilityRun batch = RunOneDurabilityPolicy(config, "batch");
  DurabilityRun always = RunOneDurabilityPolicy(config, "always");
  bool ok = none.ok && batch.ok && always.ok;
  std::printf(
      "{\"bench\":\"e6_durability\",\"docs\":%zu,\"mutations\":%zu,"
      "\"rounds\":%zu,"
      "\"none_ops_per_sec\":%.2f,\"batch_ops_per_sec\":%.2f,"
      "\"always_ops_per_sec\":%.2f,\"batch_checkpoints\":%llu,"
      "\"always_checkpoints\":%llu,\"wal_records_per_run\":%llu,"
      "\"all_mutations_logged\":%s}\n",
      config.docs, config.mutations, config.rounds, none.ops_per_sec,
      batch.ops_per_sec, always.ops_per_sec,
      static_cast<unsigned long long>(batch.checkpoints),
      static_cast<unsigned long long>(always.checkpoints),
      static_cast<unsigned long long>(always.wal_records),
      ok ? "true" : "false");
  return ok ? 0 : 1;
}

// ------------- Merkle proof generation/verification overhead (JSON mode) -----

int RunIntegrityBench(const ParallelBenchConfig& config) {
  // Baseline: the PR-4 wire format (no trees, no proofs, client off).
  // Verified: server builds proofs, client enforces them — the full
  // price of tamper-evidence, end to end, over identical ciphertext
  // (same DRBG seeds).
  server::ServerRuntimeOptions off_options;
  off_options.enable_integrity = false;
  server::ServerRuntimeOptions on_options;
  on_options.enable_integrity = true;
  E6Deployment baseline(off_options);
  E6Deployment verified(on_options);
  verified.client.set_verify_mode(client::VerifyMode::kEnforce);

  std::fprintf(stderr, "outsourcing %zu documents twice...\n", config.docs);
  rel::Relation table = BenchTable(config.docs);
  Stopwatch baseline_outsource_timer;
  if (!baseline.client.Outsource(table).ok()) return 1;
  double baseline_outsource = baseline_outsource_timer.ElapsedSeconds();
  Stopwatch verified_outsource_timer;
  if (!verified.client.Outsource(table).ok()) return 1;
  double verified_outsource = verified_outsource_timer.ElapsedSeconds();

  struct Probe {
    const char* label;
    std::string attribute;
    rel::Value value;
  };
  const Probe probes[] = {
      {"point", "key", rel::Value::Str("k42")},
      {"1pct", "val", kProbe},
  };

  bool all_ok = true;
  for (const Probe& probe : probes) {
    auto expected =
        baseline.client.Select("T", probe.attribute, probe.value);
    auto checked = verified.client.Select("T", probe.attribute, probe.value);
    if (!expected.ok() || !checked.ok()) {
      std::fprintf(stderr, "warm-up select failed: %s\n",
                   (!expected.ok() ? expected.status() : checked.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    bool results_match = expected->SameTuples(*checked);

    baseline.server_seconds = 0;
    Stopwatch baseline_timer;
    for (size_t i = 0; i < config.repeats; ++i) {
      if (!baseline.client.Select("T", probe.attribute, probe.value).ok()) {
        return 1;
      }
    }
    double baseline_seconds = baseline_timer.ElapsedSeconds();
    double baseline_server = baseline.server_seconds;

    verified.server_seconds = 0;
    Stopwatch verified_timer;
    for (size_t i = 0; i < config.repeats; ++i) {
      if (!verified.client.Select("T", probe.attribute, probe.value).ok()) {
        return 1;
      }
    }
    double verified_seconds = verified_timer.ElapsedSeconds();
    double verified_server = verified.server_seconds;

    // Raw per-side splits, not cross-deployment deltas: two independent
    // deployments' timings are each noisy, and a subtraction of noisy
    // numbers can go negative for costs below timer resolution. Readers
    // (and the trajectory) subtract if they want a delta; the committed
    // record stays interpretable either way.
    double baseline_qps = static_cast<double>(config.repeats) /
                          baseline_seconds;
    double verified_qps = static_cast<double>(config.repeats) /
                          verified_seconds;
    std::printf(
        "{\"bench\":\"e6_integrity\",\"probe\":\"%s\",\"docs\":%zu,"
        "\"repeats\":%zu,\"result_size\":%zu,"
        "\"baseline_qps\":%.2f,\"verified_qps\":%.2f,"
        "\"overhead_ratio\":%.4f,"
        "\"server_seconds_per_query_baseline\":%.9f,"
        "\"server_seconds_per_query_verified\":%.9f,"
        "\"client_seconds_per_query_baseline\":%.9f,"
        "\"client_seconds_per_query_verified\":%.9f,"
        "\"results_match\":%s}\n",
        probe.label, config.docs, config.repeats, expected->size(),
        baseline_qps, verified_qps, verified_seconds / baseline_seconds,
        baseline_server / static_cast<double>(config.repeats),
        verified_server / static_cast<double>(config.repeats),
        (baseline_seconds - baseline_server) /
            static_cast<double>(config.repeats),
        (verified_seconds - verified_server) /
            static_cast<double>(config.repeats),
        results_match ? "true" : "false");
    all_ok = all_ok && results_match;
  }

  // Mutation overhead: appends maintain the tree (server + client) and
  // attest the new root (an extra round trip per mutation).
  size_t mutations = std::min<size_t>(config.mutations, 500);
  Stopwatch baseline_insert_timer;
  for (size_t i = 0; i < mutations; ++i) {
    rel::Tuple tuple({rel::Value::Str("m" + std::to_string(i)),
                      rel::Value::Int(static_cast<int64_t>(i % 100))});
    if (!baseline.client.Insert("T", {tuple}).ok()) return 1;
  }
  double baseline_insert = baseline_insert_timer.ElapsedSeconds();
  Stopwatch verified_insert_timer;
  for (size_t i = 0; i < mutations; ++i) {
    rel::Tuple tuple({rel::Value::Str("m" + std::to_string(i)),
                      rel::Value::Int(static_cast<int64_t>(i % 100))});
    if (!verified.client.Insert("T", {tuple}).ok()) return 1;
  }
  double verified_insert = verified_insert_timer.ElapsedSeconds();

  // Deletes, two shapes, each row matched by its unique key:
  //  - tail: the rows just inserted, newest first, so every delete
  //    removes the last row (the row tree rehashes one spine);
  //  - middle: a fixed sample of the outsourced rows spread through the
  //    table, so every later position shifts down and both trees rehash
  //    everything after the removed row.
  // Every delete must remove exactly one row on both deployments.
  bool deletes_ok = true;
  std::vector<rel::Value> tail_keys;
  for (size_t i = mutations; i-- > 0;) {
    tail_keys.push_back(rel::Value::Str("m" + std::to_string(i)));
  }
  const size_t middle_count = std::min<size_t>({mutations, 50, config.docs});
  std::vector<rel::Value> middle_keys;
  for (size_t i = 0; i < middle_count; ++i) {
    const size_t row = (2 * i + 1) * config.docs / (2 * middle_count);
    middle_keys.push_back(rel::Value::Str("k" + std::to_string(row)));
  }
  const auto time_deletes = [&](E6Deployment& deployment,
                                const std::vector<rel::Value>& keys) {
    Stopwatch timer;
    for (const rel::Value& key : keys) {
      auto removed = deployment.client.DeleteWhere("T", "key", key);
      if (!removed.ok() || *removed != 1) {
        std::fprintf(stderr, "delete failed: %s\n",
                     removed.ok() ? "not exactly one row"
                                  : removed.status().ToString().c_str());
        deletes_ok = false;
      }
    }
    return static_cast<double>(keys.size()) / timer.ElapsedSeconds();
  };
  const double baseline_delete_tail = time_deletes(baseline, tail_keys);
  const double verified_delete_tail = time_deletes(verified, tail_keys);
  const double baseline_delete_middle = time_deletes(baseline, middle_keys);
  const double verified_delete_middle = time_deletes(verified, middle_keys);
  std::printf(
      "{\"bench\":\"e6_integrity_mutation\",\"docs\":%zu,"
      "\"mutations\":%zu,\"middle_deletes\":%zu,"
      "\"baseline_outsource_seconds\":%.6f,"
      "\"verified_outsource_seconds\":%.6f,"
      "\"baseline_insert_ops_per_sec\":%.2f,"
      "\"verified_insert_ops_per_sec\":%.2f,"
      "\"insert_overhead_ratio\":%.4f,"
      "\"baseline_delete_tail_ops_per_sec\":%.2f,"
      "\"verified_delete_tail_ops_per_sec\":%.2f,"
      "\"baseline_delete_middle_ops_per_sec\":%.2f,"
      "\"verified_delete_middle_ops_per_sec\":%.2f,"
      "\"deletes_match\":%s}\n",
      config.docs, mutations, middle_count, baseline_outsource,
      verified_outsource, static_cast<double>(mutations) / baseline_insert,
      static_cast<double>(mutations) / verified_insert,
      verified_insert / baseline_insert, baseline_delete_tail,
      verified_delete_tail, baseline_delete_middle, verified_delete_middle,
      deletes_ok ? "true" : "false");
  return all_ok && deletes_ok ? 0 : 1;
}

// ------------- metrics overhead + lock-wait share (JSON mode) ----------------

/// One paired A/B point-select comparison between two deployments over
/// the same data. The two sides alternate in small chunks inside each
/// round, so a scheduler or VM-steal spike lands on both nearly equally
/// instead of skewing whichever ~100ms block it happened to hit; chunk
/// order flips every pair (ABBA) so interference phase-locked to the
/// chunk cadence cannot systematically tax one side. The reported ratio
/// is the MEDIAN of per-pair time ratios (a_chunk / b_chunk, i.e. the
/// B side's relative speed) — each ~6ms pair is an independent paired
/// sample, and the median discards the minority of pairs a burst
/// corrupted.
struct PairedSelectResult {
  double a_qps = 0;
  double b_qps = 0;
  double ratio = 1.0;  ///< median a_time/b_time: >= 1 means B is faster
  bool ok = false;
};

PairedSelectResult PairedPointSelects(E6Deployment* a, E6Deployment* b,
                                      const ParallelBenchConfig& config,
                                      const rel::Value& probe) {
  PairedSelectResult result;
  const size_t chunk = 100;
  double a_best = 0, b_best = 0;
  std::vector<double> pair_ratios;
  for (size_t round = 0; round < config.rounds; ++round) {
    double a_elapsed = 0, b_elapsed = 0;
    bool a_first = true;
    for (size_t done = 0; done < config.repeats;
         done += chunk, a_first = !a_first) {
      const size_t n = std::min(chunk, config.repeats - done);
      double a_chunk = 0, b_chunk = 0;
      const auto run_a = [&]() -> bool {
        Stopwatch timer;
        for (size_t i = 0; i < n; ++i) {
          if (!a->client.Select("T", "key", probe).ok()) return false;
        }
        a_chunk = timer.ElapsedSeconds();
        return true;
      };
      const auto run_b = [&]() -> bool {
        Stopwatch timer;
        for (size_t i = 0; i < n; ++i) {
          if (!b->client.Select("T", "key", probe).ok()) return false;
        }
        b_chunk = timer.ElapsedSeconds();
        return true;
      };
      if (a_first ? !(run_a() && run_b()) : !(run_b() && run_a())) {
        return result;
      }
      a_elapsed += a_chunk;
      b_elapsed += b_chunk;
      if (b_chunk > 0) pair_ratios.push_back(a_chunk / b_chunk);
    }
    if (round == 0 || a_elapsed < a_best) a_best = a_elapsed;
    if (round == 0 || b_elapsed < b_best) b_best = b_elapsed;
  }
  result.a_qps = static_cast<double>(config.repeats) / a_best;
  result.b_qps = static_cast<double>(config.repeats) / b_best;
  if (!pair_ratios.empty()) {
    std::nth_element(pair_ratios.begin(),
                     pair_ratios.begin() + pair_ratios.size() / 2,
                     pair_ratios.end());
    result.ratio = pair_ratios[pair_ratios.size() / 2];
  }
  result.ok = true;
  return result;
}

int RunStatsBench(const ParallelBenchConfig& config) {
  // Identical ciphertext (same DRBG seeds), one deployment with the obs
  // layer's clock reads and atomics, one with the metrics-off fast path.
  server::ServerRuntimeOptions off_options;
  off_options.enable_metrics = false;
  server::ServerRuntimeOptions on_options;
  on_options.enable_metrics = true;
  E6Deployment off(off_options);
  E6Deployment on(on_options);

  std::fprintf(stderr, "outsourcing %zu documents twice...\n", config.docs);
  rel::Relation table = BenchTable(config.docs);
  if (!off.client.Outsource(table).ok() || !on.client.Outsource(table).ok()) {
    std::fprintf(stderr, "outsource failed\n");
    return 1;
  }

  // Warm-up memoizes the point probe on both sides, so the timed loop
  // measures the index-path point select — the workload where per-request
  // instrumentation overhead is largest relative to the work done.
  const rel::Value probe = rel::Value::Str("k42");
  auto expected = off.client.Select("T", "key", probe);
  auto warm = on.client.Select("T", "key", probe);
  if (!expected.ok() || !warm.ok()) {
    std::fprintf(stderr, "warm-up select failed\n");
    return 1;
  }
  bool results_match = expected->SameTuples(*warm);

  PairedSelectResult metrics_pair = PairedPointSelects(&off, &on, config, probe);
  if (!metrics_pair.ok) return 1;
  double off_qps = metrics_pair.a_qps;
  double on_qps = metrics_pair.b_qps;
  double overhead_ratio = metrics_pair.ratio;

  // Second paired comparison: the leakage auditor's hot-path cost (one
  // SHA-256 digest + a ring append per select) against an
  // --leakage=off deployment, metrics on for both sides so only the
  // auditor differs.
  server::ServerRuntimeOptions leak_off_options;
  leak_off_options.enable_leakage = false;
  server::ServerRuntimeOptions leak_on_options;
  leak_on_options.enable_leakage = true;
  E6Deployment leak_off(leak_off_options);
  E6Deployment leak_on(leak_on_options);
  if (!leak_off.client.Outsource(table).ok() ||
      !leak_on.client.Outsource(table).ok()) {
    std::fprintf(stderr, "leakage-pair outsource failed\n");
    return 1;
  }
  if (!leak_off.client.Select("T", "key", probe).ok() ||
      !leak_on.client.Select("T", "key", probe).ok()) {
    std::fprintf(stderr, "leakage-pair warm-up failed\n");
    return 1;
  }
  PairedSelectResult leakage_pair =
      PairedPointSelects(&leak_off, &leak_on, config, probe);
  if (!leakage_pair.ok) return 1;

  // Read the auditor back through its own wire surface: one
  // kLeakageReport round trip must show the workload we just ran, and
  // the --leakage=off deployment must refuse the same request.
  auto leakage_report = leak_on.client.LeakageReport();
  bool leakage_roundtrip_ok =
      leakage_report.ok() && leakage_report->queries_observed > 0 &&
      leakage_report->relations.size() == 1 &&
      leakage_report->relations[0].relation == "T" &&
      !leak_off.client.LeakageReport().ok();

  // Concurrent-reader scaling: 1, 2, then 4 reader sessions (each its
  // own Client — clients are single-threaded) hammer the same memoized
  // point select against the metrics-on deployment simultaneously.
  // Snapshot reads never take the dispatch lock, so throughput should
  // scale with cores; on a single-core host the witness is the
  // lock-wait share staying ~0 (reads were not serialized on a lock,
  // the core was just busy) with every result byte-identical.
  const size_t reader_counts[3] = {1, 2, 4};
  double reader_qps[3] = {0, 0, 0};
  bool readers_ok = true;
  for (int rc = 0; rc < 3 && readers_ok; ++rc) {
    const size_t readers = reader_counts[rc];
    const size_t per_reader = std::max<size_t>(1, config.repeats / readers);
    std::vector<std::unique_ptr<crypto::HmacDrbg>> reader_rngs;
    std::vector<std::unique_ptr<client::Client>> sessions;
    for (size_t r = 0; r < readers; ++r) {
      reader_rngs.push_back(
          std::make_unique<crypto::HmacDrbg>("e6-reader", 100 + r));
      sessions.push_back(std::make_unique<client::Client>(
          ToBytes("master"),
          [&on](const Bytes& request) {
            return on.server.HandleRequest(request);
          },
          reader_rngs.back().get()));
      if (!sessions.back()->Adopt("T", table.schema()).ok()) {
        readers_ok = false;
      }
    }
    if (!readers_ok) break;
    std::atomic<bool> reader_failed{false};
    Stopwatch timer;
    std::vector<std::thread> reader_threads;
    for (size_t r = 0; r < readers; ++r) {
      reader_threads.emplace_back([&, r] {
        for (size_t i = 0; i < per_reader; ++i) {
          auto rows = sessions[r]->Select("T", "key", probe);
          if (!rows.ok() || !rows->SameTuples(*expected)) {
            reader_failed.store(true);
            return;
          }
        }
      });
    }
    for (auto& thread : reader_threads) thread.join();
    double elapsed = timer.ElapsedSeconds();
    if (reader_failed.load() || elapsed <= 0) {
      readers_ok = false;
      break;
    }
    reader_qps[rc] =
        static_cast<double>(readers * per_reader) / elapsed;
  }
  double reader_scaling =
      reader_qps[0] > 0 ? reader_qps[2] / reader_qps[0] : 0;

  // Read the answer back through the surface under test: one kStats
  // round trip, then the lock-wait share of select latency out of the
  // histograms. The snapshot is taken AFTER the concurrent-reader
  // phase, so the share reflects those racing readers too: on the read
  // path the only lock left is the observation-log mutex, and its wait
  // share staying near zero is the bench's serialization witness.
  auto snapshot = on.client.Stats();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "kStats round trip failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  auto requests = snapshot->counters.find("dbph_requests_total");
  bool stats_roundtrip_ok =
      requests != snapshot->counters.end() && requests->second > 0;
  double lock_wait_share = 0;
  uint64_t select_count = 0;
  auto lock_wait = snapshot->histograms.find("dbph_dispatch_lock_wait_seconds");
  auto selects = snapshot->histograms.find("dbph_select_seconds");
  if (lock_wait != snapshot->histograms.end() &&
      selects != snapshot->histograms.end() && selects->second.sum > 0) {
    select_count = selects->second.count;
    lock_wait_share = static_cast<double>(lock_wait->second.sum) /
                      static_cast<double>(selects->second.sum);
  }

  std::printf(
      "{\"bench\":\"e6_stats\",\"docs\":%zu,\"repeats\":%zu,\"rounds\":%zu,"
      "\"result_size\":%zu,\"qps_metrics_off\":%.2f,\"qps_metrics_on\":%.2f,"
      "\"overhead_ratio\":%.4f,"
      "\"qps_leakage_off\":%.2f,\"qps_leakage_on\":%.2f,"
      "\"leakage_overhead_ratio\":%.4f,\"leakage_roundtrip_ok\":%s,"
      "\"readers_1_qps\":%.2f,\"readers_2_qps\":%.2f,"
      "\"readers_4_qps\":%.2f,\"reader_scaling\":%.4f,"
      "\"readers_results_match\":%s,"
      "\"select_count\":%llu,"
      "\"lock_wait_share\":%.6f,\"stats_roundtrip_ok\":%s,"
      "\"results_match\":%s}\n",
      config.docs, config.repeats, config.rounds, expected->size(), off_qps,
      on_qps, overhead_ratio, leakage_pair.a_qps, leakage_pair.b_qps,
      leakage_pair.ratio, leakage_roundtrip_ok ? "true" : "false",
      reader_qps[0], reader_qps[1], reader_qps[2], reader_scaling,
      readers_ok ? "true" : "false",
      static_cast<unsigned long long>(select_count), lock_wait_share,
      stats_roundtrip_ok ? "true" : "false",
      results_match ? "true" : "false");
  return (stats_roundtrip_ok && results_match && leakage_roundtrip_ok &&
          readers_ok)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ParallelBenchConfig config;
  bool parallel_mode = false;
  auto parse = [&](const char* arg, const char* name, size_t* out) {
    size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0) return false;
    *out = static_cast<size_t>(std::strtoull(arg + len, nullptr, 10));
    return true;
  };
  bool clients_flag = false;
  bool mutations_flag = false;
  bool repeats_flag = false;
  for (int i = 1; i < argc; ++i) {
    if (parse(argv[i], "--threads=", &config.threads) ||
        parse(argv[i], "--batch=", &config.batch) ||
        parse(argv[i], "--docs=", &config.docs) ||
        parse(argv[i], "--rounds=", &config.rounds)) {
      parallel_mode = true;
    } else if (parse(argv[i], "--clients=", &config.clients)) {
      clients_flag = true;
    } else if (parse(argv[i], "--mutations=", &config.mutations)) {
      mutations_flag = true;
    } else if (parse(argv[i], "--repeats=", &config.repeats)) {
      repeats_flag = true;
    } else if (std::strcmp(argv[i], "--network") == 0) {
      config.network = true;
    } else if (std::strcmp(argv[i], "--durability") == 0) {
      config.durability = true;
    } else if (std::strcmp(argv[i], "--index") == 0) {
      config.index = true;
    } else if (std::strcmp(argv[i], "--scan") == 0) {
      config.scan = true;
    } else if (std::strcmp(argv[i], "--integrity") == 0) {
      config.integrity = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      config.stats = true;
    }
  }
  if (clients_flag && !config.network) {
    std::fprintf(stderr, "--clients only applies to --network mode\n");
    return 2;
  }
  if (mutations_flag && !config.durability && !config.integrity) {
    std::fprintf(stderr,
                 "--mutations only applies to --durability/--integrity\n");
    return 2;
  }
  if (repeats_flag && !config.index && !config.scan && !config.integrity &&
      !config.stats) {
    std::fprintf(stderr,
                 "--repeats only applies to --index/--scan/--integrity/"
                 "--stats\n");
    return 2;
  }
  if (config.stats) return RunStatsBench(config);
  if (config.integrity) return RunIntegrityBench(config);
  if (config.scan) return RunScanBench(config);
  if (config.index) return RunIndexBench(config);
  if (config.durability) return RunDurabilityBench(config);
  if (config.network) return RunNetworkBench(config);
  if (parallel_mode) return RunParallelBench(config);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
