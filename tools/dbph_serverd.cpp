// dbph_serverd — Eve as a standalone network daemon.
//
// Hosts one UntrustedServer behind the epoll frame protocol so any number
// of Alex processes (sql_repl --connect, bench_e6 --network, or a
// TcpTransport-backed Client) can reach it over TCP.
//
// Usage:
//   dbph_serverd --port=7690 [--bind=ADDR] [--threads=N] [--shards=N]
//                [--persist=DIR] [--fsync=always|batch]
//                [--max-conns=N] [--idle-timeout-ms=N] [--read-workers=N]
//                [--index=on|off] [--integrity=on|off]
//                [--observation=full|aggregate]
//                [--metrics=on|off] [--metrics-port=N] [--slow-query-ms=N]
//                [--leakage=on|off] [--leakage-topk=N]
//                [--leakage-alert-millis=N]
//
// Full flag reference (kept in lockstep with --help and CI's docs
// check): docs/OPERATIONS.md.
//
//   --read-workers=N  dispatch worker threads for the frame loop
//                   (default 0 = dispatch inline on the event loop).
//                   With N > 0, snapshot reads — selects, all-select
//                   batches, EXPLAIN, fetch, stats, leakage, ping —
//                   execute concurrently against the published snapshot
//                   while mutations serialize on the single-writer
//                   dispatch lock. Per-connection response order is
//                   preserved either way.
//   --index=on      (default) trapdoor memo: a repeated trapdoor is
//                   answered from its memoized rows plus a scan of the
//                   rows stored since, instead of an O(n) scan. Results
//                   and observation logging are byte-identical either
//                   way; off disables the memo entirely.
//   --index-capacity=N  distinct trapdoors memoized per relation
//                   (default 65536, 0 = unlimited). Bounds memo memory;
//                   at capacity new trapdoors keep scanning.
//   --integrity=on  (default) result integrity: maintain per-relation
//                   Merkle trees over the stored ciphertext and attach
//                   a result proof to every select / fetch / delete
//                   response, so a verifying client (VerifyMode Warn or
//                   Enforce) detects dropped, substituted, reordered, or
//                   replayed rows. Proofs are identical on both planner
//                   access paths. off restores the PR-4 wire format.
//   --observation=full       keep every query observation verbatim
//                   (trapdoor bytes + matched ids) — the Section 2
//                   games' input; memory grows with query count.
//   --observation=aggregate  bounded transcript: counts + result-size
//                   histogram only, so a long-running daemon under heavy
//                   traffic does not grow without bound.
//   --metrics=on    (default) per-op counters, stage latency histograms,
//                   dispatch-lock wait tracking (src/obs). off skips the
//                   clock reads; kStats still answers with zeroed series.
//   --metrics-port=N  serve the metrics snapshot as Prometheus text over
//                   plain HTTP on port N (same event loop, same bind
//                   address). Off unless given. The page leaks only
//                   sizes/counts/timings — Eve's own view — but expose
//                   it to operators, not the internet.
//   --slow-query-ms=N  log requests slower than N ms at Warning with
//                   their per-stage trace. The line carries metadata only
//                   (op, relation name, timings, result count) — never
//                   trapdoor or ciphertext bytes. 0 (default) disables.
//   --leakage=on    (default) online leakage auditor: per-relation
//                   trapdoor-tag frequency sketches (salted digests),
//                   empirical entropy, per-path result-size histograms,
//                   and a live frequency-attack advantage estimate,
//                   surfaced as dbph_leakage_* metrics, kLeakageReport,
//                   and the LEAKAGE REPL command. off disables the
//                   auditor; kLeakageReport then fails with
//                   FailedPrecondition.
//   --leakage-topk=N  distinct tag digests tracked per relation before
//                   the sketch degrades to heavy-hitters (default 128).
//   --leakage-alert-millis=N  log a redacted Warning (and count an
//                   alert) when a relation's observed frequency-attack
//                   advantage reaches N/1000 (default 500).
//
//   --persist=DIR   continuous durability: every mutation is appended to
//                   DIR/wal.log (CRC-guarded, length-prefixed) before it
//                   is applied; a background checkpointer rewrites
//                   DIR/snapshot.dbph atomically and trims the log. On
//                   start the daemon recovers snapshot + WAL replay
//                   (truncating a torn tail), so a kill -9 loses at most
//                   the unsynced log suffix — nothing with --fsync=always.
//   --fsync=always  fsync per mutation (default): acknowledged writes
//                   survive any crash.
//   --fsync=batch   group commit: acks before fsync, syncs on a timer
//                   and on kFlush; bounded loss window, higher mutation
//                   throughput.
//
// The observation log is volatile by design: restarting Eve forgets her
// transcript but never Alex's ciphertext.

#include <errno.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "net/net_server.h"
#include "server/durable_store.h"
#include "server/untrusted_server.h"

using namespace dbph;

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

/// Matches `--name=N` and validates the number strictly; a matching flag
/// with a malformed value is fatal (silently listening on a wrong port is
/// worse than refusing to start).
bool ParseSizeFlag(const char* arg, const char* name, size_t* out,
                   bool* bad_value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  const char* text = arg + len;
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || end == nullptr || *end != '\0' || errno == ERANGE) {
    *bad_value = true;
    return true;
  }
  *out = static_cast<size_t>(value);
  return true;
}

bool ParseStringFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = arg + len;
  return true;
}

/// Printed by --help and on an unknown flag. Every flag listed here must
/// be documented in docs/OPERATIONS.md — scripts/ci.sh cross-checks the
/// two and fails the build on drift.
const char kUsage[] =
    "usage: dbph_serverd [flags]\n"
    "  --port=N                listen port (default 7690)\n"
    "  --bind=ADDR             bind address (default 0.0.0.0)\n"
    "  --threads=N             batch worker threads (0 = hardware)\n"
    "  --shards=N              shards per relation scan (0 = 4x workers)\n"
    "  --max-conns=N           concurrent connection cap\n"
    "  --idle-timeout-ms=N     reap idle connections after N ms\n"
    "  --read-workers=N        dispatch workers; reads run off-lock (0 = inline)\n"
    "  --persist=DIR           continuous durability (WAL + snapshots)\n"
    "  --fsync=always|batch    WAL sync policy (with --persist)\n"
    "  --index=on|off          trapdoor memo (default on)\n"
    "  --index-capacity=N      memoized trapdoors per relation\n"
    "  --integrity=on|off      Merkle result proofs (default on)\n"
    "  --observation=full|aggregate  observation log mode\n"
    "  --metrics=on|off        metrics + query tracing (default on)\n"
    "  --metrics-port=N        Prometheus text endpoint on port N\n"
    "  --slow-query-ms=N       log queries slower than N ms (0 = off)\n"
    "  --leakage=on|off        online leakage auditor (default on)\n"
    "  --leakage-topk=N        tag digests tracked per relation\n"
    "  --leakage-alert-millis=N  advantage alert budget in thousandths\n"
    "  --help                  print this and exit\n"
    "full reference: docs/OPERATIONS.md\n";

}  // namespace

int main(int argc, char** argv) {
  net::NetServerOptions net_options;
  net_options.port = 7690;
  net_options.bind_address = "0.0.0.0";
  server::ServerRuntimeOptions runtime_options;
  std::string persist_dir;
  std::string fsync_mode;
  std::string index_mode;
  std::string integrity_mode;
  std::string observation_mode;
  std::string metrics_mode;
  std::string leakage_mode;

  size_t port = net_options.port;
  size_t max_conns = net_options.max_connections;
  size_t idle_ms = static_cast<size_t>(net_options.idle_timeout_ms);
  size_t metrics_port = 0;
  bool have_metrics_port = false;
  size_t slow_query_ms = 0;
  size_t leakage_alert_millis = runtime_options.leakage_alert_millis;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    bool bad_value = false;
    if (ParseSizeFlag(argv[i], "--metrics-port=", &metrics_port, &bad_value)) {
      if (bad_value) {
        std::fprintf(stderr, "bad numeric value in '%s'\n", argv[i]);
        return 2;
      }
      have_metrics_port = true;
      continue;
    }
    if (ParseSizeFlag(argv[i], "--port=", &port, &bad_value) ||
        ParseSizeFlag(argv[i], "--threads=", &runtime_options.num_threads,
                      &bad_value) ||
        ParseSizeFlag(argv[i], "--shards=", &runtime_options.num_shards,
                      &bad_value) ||
        ParseSizeFlag(argv[i], "--max-conns=", &max_conns, &bad_value) ||
        ParseSizeFlag(argv[i], "--idle-timeout-ms=", &idle_ms, &bad_value) ||
        ParseSizeFlag(argv[i], "--read-workers=", &net_options.read_workers,
                      &bad_value) ||
        ParseSizeFlag(argv[i], "--index-capacity=",
                      &runtime_options.max_indexed_trapdoors, &bad_value) ||
        ParseSizeFlag(argv[i], "--slow-query-ms=", &slow_query_ms,
                      &bad_value) ||
        ParseSizeFlag(argv[i], "--leakage-topk=",
                      &runtime_options.leakage_topk, &bad_value) ||
        ParseSizeFlag(argv[i], "--leakage-alert-millis=",
                      &leakage_alert_millis, &bad_value) ||
        ParseStringFlag(argv[i], "--leakage=", &leakage_mode) ||
        ParseStringFlag(argv[i], "--metrics=", &metrics_mode) ||
        ParseStringFlag(argv[i], "--bind=", &net_options.bind_address) ||
        ParseStringFlag(argv[i], "--fsync=", &fsync_mode) ||
        ParseStringFlag(argv[i], "--index=", &index_mode) ||
        ParseStringFlag(argv[i], "--integrity=", &integrity_mode) ||
        ParseStringFlag(argv[i], "--observation=", &observation_mode) ||
        ParseStringFlag(argv[i], "--persist=", &persist_dir)) {
      if (bad_value) {
        std::fprintf(stderr, "bad numeric value in '%s'\n", argv[i]);
        return 2;
      }
      continue;
    }
    std::fprintf(stderr, "unknown flag '%s'\n%s", argv[i], kUsage);
    return 2;
  }
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "--port must be in [1, 65535], got %zu\n", port);
    return 2;
  }
  if (!fsync_mode.empty() && persist_dir.empty()) {
    // Silently ignoring --fsync would let an operator believe writes are
    // durable while running memory-only.
    std::fprintf(stderr, "--fsync only applies with --persist=DIR\n");
    return 2;
  }
  if (fsync_mode.empty()) fsync_mode = "always";
  if (fsync_mode != "always" && fsync_mode != "batch") {
    std::fprintf(stderr, "--fsync must be 'always' or 'batch', got '%s'\n",
                 fsync_mode.c_str());
    return 2;
  }
  if (index_mode.empty()) index_mode = "on";
  if (index_mode != "on" && index_mode != "off") {
    std::fprintf(stderr, "--index must be 'on' or 'off', got '%s'\n",
                 index_mode.c_str());
    return 2;
  }
  runtime_options.enable_trapdoor_index = index_mode == "on";
  if (integrity_mode.empty()) integrity_mode = "on";
  if (integrity_mode != "on" && integrity_mode != "off") {
    std::fprintf(stderr, "--integrity must be 'on' or 'off', got '%s'\n",
                 integrity_mode.c_str());
    return 2;
  }
  runtime_options.enable_integrity = integrity_mode == "on";
  if (observation_mode.empty()) observation_mode = "full";
  if (observation_mode != "full" && observation_mode != "aggregate") {
    std::fprintf(stderr,
                 "--observation must be 'full' or 'aggregate', got '%s'\n",
                 observation_mode.c_str());
    return 2;
  }
  if (metrics_mode.empty()) metrics_mode = "on";
  if (metrics_mode != "on" && metrics_mode != "off") {
    std::fprintf(stderr, "--metrics must be 'on' or 'off', got '%s'\n",
                 metrics_mode.c_str());
    return 2;
  }
  runtime_options.enable_metrics = metrics_mode == "on";
  runtime_options.slow_query_ms = static_cast<int>(slow_query_ms);
  if (leakage_mode.empty()) leakage_mode = "on";
  if (leakage_mode != "on" && leakage_mode != "off") {
    std::fprintf(stderr, "--leakage must be 'on' or 'off', got '%s'\n",
                 leakage_mode.c_str());
    return 2;
  }
  runtime_options.enable_leakage = leakage_mode == "on";
  if (runtime_options.leakage_topk == 0) {
    std::fprintf(stderr, "--leakage-topk must be positive\n");
    return 2;
  }
  runtime_options.leakage_alert_millis = leakage_alert_millis;
  if (have_metrics_port) {
    if (metrics_port == 0 || metrics_port > 65535) {
      std::fprintf(stderr, "--metrics-port must be in [1, 65535], got %zu\n",
                   metrics_port);
      return 2;
    }
    net_options.metrics_port = static_cast<int>(metrics_port);
  }
  net_options.port = static_cast<uint16_t>(port);
  net_options.max_connections = max_conns;
  net_options.idle_timeout_ms = static_cast<int>(idle_ms);

  server::UntrustedServer eve(runtime_options);
  if (observation_mode == "aggregate") {
    // Bounded transcript before any traffic arrives: a long-running
    // daemon keeps counts and a result-size histogram, not per-query
    // vectors.
    eve.mutable_observations()->SetMode(server::ObservationMode::kAggregate);
  }

  // Recovery before the first socket opens: snapshot + WAL replay, then
  // the durability hooks route every further mutation through the log.
  std::unique_ptr<server::DurableStore> store;
  if (!persist_dir.empty()) {
    server::DurableStoreOptions store_options;
    store_options.sync_mode = fsync_mode == "batch"
                                  ? storage::WalSyncMode::kBatch
                                  : storage::WalSyncMode::kAlways;
    store_options.checkpoint_interval_ms = 5000;
    store = std::make_unique<server::DurableStore>(&eve, persist_dir,
                                                   store_options);
    if (Status opened = store->Open(); !opened.ok()) {
      std::fprintf(stderr, "dbph_serverd: refusing to start: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
    auto stats = store->stats();
    std::fprintf(stderr,
                 "dbph_serverd: recovered %zu relation(s) from %s"
                 " (replayed %llu WAL record(s)%s), fsync=%s\n",
                 eve.num_relations(), persist_dir.c_str(),
                 static_cast<unsigned long long>(stats.replayed_records),
                 stats.recovered_torn_tail ? ", truncated torn tail" : "",
                 fsync_mode.c_str());
  }

  net::NetServer server(&eve, net_options);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "dbph_serverd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "dbph_serverd: listening on %s:%u\n",
               net_options.bind_address.c_str(), server.port());
  if (have_metrics_port) {
    std::fprintf(stderr, "dbph_serverd: metrics on http://%s:%u/metrics\n",
                 net_options.bind_address.c_str(), server.metrics_http_port());
  }

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  std::fprintf(stderr, "dbph_serverd: shutting down...\n");
  server.Stop();
  auto stats = server.stats();
  std::fprintf(stderr,
               "dbph_serverd: served %llu frame(s) over %llu connection(s)"
               " (%llu rejected, %llu idle-reaped, %llu framing errors)\n",
               static_cast<unsigned long long>(stats.frames_in),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.timed_out),
               static_cast<unsigned long long>(stats.framing_errors));

  if (store) {
    // Graceful exit: final checkpoint, empty WAL — restart replays
    // nothing.
    if (Status closed = store->Close(); !closed.ok()) {
      std::fprintf(stderr, "dbph_serverd: final checkpoint failed: %s\n",
                   closed.ToString().c_str());
      return 1;
    }
    auto durable = store->stats();
    std::fprintf(stderr,
                 "dbph_serverd: checkpointed %zu relation(s) to %s"
                 " (%llu WAL record(s), %llu checkpoint(s))\n",
                 eve.num_relations(), persist_dir.c_str(),
                 static_cast<unsigned long long>(durable.wal_records),
                 static_cast<unsigned long long>(durable.checkpoints));
  }
  return 0;
}
