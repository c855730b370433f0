#ifndef DBPH_SERVER_UNTRUSTED_SERVER_H_
#define DBPH_SERVER_UNTRUSTED_SERVER_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "crypto/merkle.h"
#include "crypto/search_tree.h"
#include "obs/leakage/auditor.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "dbph/encrypted_relation.h"
#include "dbph/query.h"
#include "protocol/messages.h"
#include "protocol/plan_report.h"
#include "protocol/result_proof.h"
#include "server/observation.h"
#include "server/runtime/thread_pool.h"
#include "server/snapshot.h"

namespace dbph {
namespace server {

/// \brief Tuning for the server: scan parallelism, the trapdoor index,
/// integrity and observability.
struct ServerRuntimeOptions {
  /// Worker threads for batched selects. 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Shards per relation scan. 0 = 4x the worker count (over-splitting
  /// keeps all cores busy when shards finish unevenly).
  size_t num_shards = 0;
  /// Trapdoor memo (TrapdoorIndex): memoize select answers so a repeated
  /// trapdoor fetches its rows and scans only the rows stored since,
  /// instead of the whole relation. Results and observation-log entries
  /// are byte-identical either way (tests assert it), so this is purely
  /// a performance switch. The memo holds only answers selects already
  /// revealed — see docs/SECURITY.md §2.
  bool enable_trapdoor_index = true;
  /// Distinct trapdoors memoized per relation (0 = unlimited). Bounds
  /// memo memory on a long-running daemon; at capacity new trapdoors
  /// keep scanning while existing entries keep serving (stop-memoizing,
  /// never evict — a performance plateau, not a correctness change).
  size_t max_indexed_trapdoors = 65536;
  /// Result integrity: maintain a per-relation Merkle tree over the
  /// stored ciphertext (in storage order) and attach a
  /// protocol::ResultProof to every select / fetch / delete response, so
  /// a verifying client can detect a server (or a path in between) that
  /// drops, substitutes, reorders, or replays rows. Proofs are a
  /// function of stored state only — both access paths (scan and index)
  /// produce byte-identical proofs, like results. Off restores the
  /// proof-free wire format exactly. See docs/SECURITY.md for what proofs
  /// do and do not guarantee.
  bool enable_integrity = true;
  /// Metrics and per-query tracing (src/obs): per-op counters, stage
  /// latency histograms, dispatch-lock wait times. Hot-path cost is a
  /// few clock reads and relaxed atomic adds per request (bench_e6
  /// --stats measures the overhead; the acceptance bar is <= 2%). Off
  /// skips every clock read; the registry still exists and kStats still
  /// answers, with empty histograms.
  bool enable_metrics = true;
  /// Requests slower than this (parse through serialize, inclusive) are
  /// logged at Warning with their per-stage trace. 0 disables. The log
  /// line carries metadata only — operation, relation name, timings,
  /// result count — never trapdoor or ciphertext bytes (see
  /// docs/OPERATIONS.md "Slow-query log").
  int slow_query_ms = 0;
  /// Online leakage auditor (src/obs/leakage): continuously mirrors the
  /// adversary's view — per-relation tag-frequency sketches, entropy,
  /// result-size distributions, and a live frequency-attack advantage —
  /// and surfaces it via dbph_leakage_* metrics, kLeakageReport, and the
  /// LEAKAGE REPL command. Hot-path cost is one salted SHA-256 of the
  /// trapdoor plus a staged ring append per observed query (bench_e6
  /// --stats measures the ratio; acceptance bar is >= 0.97). Sketches
  /// key on salted digests, never raw trapdoor bytes.
  bool enable_leakage = true;
  /// Space-saving sketch capacity per relation (distinct tag digests
  /// tracked exactly before heavy-hitter approximation kicks in).
  size_t leakage_topk = 128;
  /// Log a redacted Warning (and count an alert) when a relation's
  /// observed frequency-attack advantage reaches this many thousandths.
  uint64_t leakage_alert_millis = 500;
  /// Digest salt override for deterministic tests; empty (production)
  /// draws a fresh random salt per server, so leakage reports cannot be
  /// linked back to captured wire trapdoors across restarts.
  Bytes leakage_salt;
};

/// \brief Eve: the honest-but-curious service provider.
///
/// Holds only ciphertext: each relation is one immutable RelationSnapshot
/// whose sealed chunks are the only copy of its encrypted documents.
/// Executes encrypted exact selects by scanning documents and evaluating
/// the trapdoor — it owns no keys (note that every operation here
/// type-checks against public data only).
///
/// Per the paper's trust model, Eve follows the protocol but records
/// everything she sees in an ObservationLog; the Section 2 experiments
/// mount their inference attacks on that log.
class UntrustedServer {
 public:
  UntrustedServer() {
    InitInstruments();
    published_ = std::make_shared<const ServerSnapshot>();
  }
  explicit UntrustedServer(ServerRuntimeOptions runtime_options)
      : runtime_options_(runtime_options) {
    InitInstruments();
    published_ = std::make_shared<const ServerSnapshot>();
  }

  /// Transport entry point: parse request envelope, dispatch, serialize
  /// the response envelope. Never returns malformed bytes. Safe to call
  /// from any number of transport threads concurrently.
  ///
  /// Locking model — single-writer / multi-reader snapshots. Mutating
  /// requests (store / append / delete / drop / attest / flush, and any
  /// batch containing one) serialize on `dispatch_mutex_` for their full
  /// duration. Each builds its relation's successor state (sealed chunks
  /// + Merkle tree/epoch/attestation, sharing the trapdoor memo) aside,
  /// and before releasing the lock publishes the map of relation states
  /// via one shared_ptr swap.
  /// Read-shaped requests (select, all-select batches, EXPLAIN, fetch,
  /// stats, leakage report, ping) pin the published snapshot with a
  /// single acquire load and execute WITHOUT the dispatch lock —
  /// concurrent reads proceed in parallel, each fanning out internally
  /// across the worker pool. A reader re-enters a short critical section
  /// only to append its observation-log entries (`log_mutex_`) and stage
  /// its metrics deltas (`stats_mutex_`). The read legs of a mixed batch
  /// run the same read dispatch, on a snapshot published just before
  /// the leg.
  ///
  /// Invariants: every trapdoor is evaluated on a published snapshot —
  /// one read path — and snapshots freeze the proof source with the
  /// documents, so a proof always describes the exact state that
  /// answered (a racing mutation can never splice a stale root under
  /// it); the observation log gains exactly one atomic entry per
  /// executed query — an entry reflects its query's pinned snapshot, and
  /// a reader racing a writer may be transcribed after that writer's
  /// entry (the matched row ids identify the snapshot it read).
  Bytes HandleRequest(const Bytes& request);

  /// As above, with the caller's identity for the debug-only
  /// exclusive-mutation-dispatcher assertion (see
  /// BindExclusiveDispatcher).
  Bytes HandleRequest(const Bytes& request, const void* dispatcher);

  /// Debug contract for the network deployment: after binding, every
  /// MUTATING HandleRequest must come from `dispatcher` (NetServer binds
  /// itself on Start); a stray direct mutator trips an assert in debug
  /// builds. Read-shaped requests are exempt — they take no exclusive
  /// resource and may come from any thread (NetServer's read workers,
  /// the metrics responder, tests). Unbound servers accept any caller.
  void BindExclusiveDispatcher(const void* dispatcher) {
    bound_dispatcher_.store(dispatcher, std::memory_order_release);
  }

  /// Releases the binding iff it still belongs to `dispatcher`. A
  /// stopping NetServer must not blindly store nullptr: with a Stop/Start
  /// race a new server may already have bound itself, and clobbering its
  /// binding would disarm (or misfire) the assert for the wrong party.
  void UnbindExclusiveDispatcher(const void* dispatcher) {
    const void* expected = dispatcher;
    bound_dispatcher_.compare_exchange_strong(expected, nullptr,
                                              std::memory_order_acq_rel);
  }

  /// psi: returns the matching encrypted documents. The in-process twin
  /// of a wire kSelect, through the same snapshot pipeline: index hit or
  /// sharded scan, one observation-log entry, the same documents.
  Result<std::vector<swp::EncryptedDocument>> Select(
      const core::EncryptedQuery& query);

  /// Persists all stored ciphertext to a file (the server restarting
  /// must not lose Alex's data — it is the only copy). The write is
  /// atomic: temp file + fsync + rename, so a crash mid-save can never
  /// destroy a previous snapshot. The observation log is volatile state
  /// and is not persisted. Takes the dispatch lock (a quiescent image).
  Status SaveTo(const std::string& path) const;

  /// Restores a server from SaveTo output. Existing state is replaced.
  Status LoadFrom(const std::string& path);

  /// The SaveTo image as bytes, for the durability layer (which wraps it
  /// in its own checkpoint header and already holds the dispatch lock
  /// via WithDispatchLock when it calls this). Caller-locked: must run
  /// under the dispatch lock or on an otherwise-quiescent server.
  Result<Bytes> SerializeState() const;

  /// Restores from a SerializeState image. Parses and validates fully
  /// (duplicate relation names included) before mutating, so a corrupt
  /// image cannot leave the server half-loaded. Clears the observation
  /// log (re-stores during a restore are not observations).
  Status RestoreState(const Bytes& data);

  // -------- durability hooks (installed by server::DurableStore) --------

  /// Called under the dispatch lock with every mutating envelope
  /// (kStoreRelation / kDropRelation / kAppendTuples / kDeleteWhere whose
  /// payload parsed) *before* it is applied; a failing hook fails the
  /// request with kUnavailable and nothing is applied. Because the hook
  /// runs inside the single-writer dispatch, WAL order always equals
  /// apply order, even with racing transports.
  using MutationHook = std::function<Status(const protocol::Envelope&)>;
  void SetMutationHook(MutationHook hook) {
    // Installed/removed under the dispatch lock so racing dispatchers
    // never observe a half-assigned std::function.
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    mutation_hook_ = std::move(hook);
  }

  /// Serves kFlush: force a durability point. Without a hook the server
  /// is memory-only and kFlush trivially succeeds (there is nothing to
  /// make durable beyond the process).
  using FlushHook = std::function<Status()>;
  void SetFlushHook(FlushHook hook) {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    flush_hook_ = std::move(hook);
  }

  /// Runs `fn` while holding the dispatch lock — the same serialization
  /// point as every mutation — so `fn` observes a quiescent state with no
  /// mutation half-applied. (Snapshot readers may still be executing
  /// against previously published state; they touch nothing `fn` can
  /// mutate.) The checkpointer snapshots through this.
  Status WithDispatchLock(const std::function<Status()>& fn) {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    return fn();
  }

  size_t num_relations() const { return PinSnapshot()->relations.size(); }
  Result<size_t> RelationSize(const std::string& name) const;

  /// Eve's accumulated view. Reading the per-event transcripts is only
  /// race-free on a quiescent server (tests and the Section 2 games
  /// quiesce first); live appends serialize on an internal mutex.
  const ObservationLog& observations() const { return log_; }
  ObservationLog* mutable_observations() { return &log_; }

  // ------------------------- observability (src/obs) -------------------

  /// The server's instrument registry. Components sharing the process
  /// (net::NetServer, server::DurableStore) register their instruments
  /// here at startup, so one kStats / Prometheus snapshot covers every
  /// layer. Registration locks; updates are lock-free.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// Whether timed instrumentation is on (ServerRuntimeOptions
  /// enable_metrics). Co-resident components gate their clock reads on
  /// this, matching the server's own hot path.
  bool metrics_enabled() const { return runtime_options_.enable_metrics; }

  /// A full snapshot with derived gauges (relation count, trapdoor-index
  /// totals) refreshed first. Lock-free against the dispatch lock: the
  /// derived gauges come from the published snapshot, so a scrape never
  /// queues behind a mutation (the metrics HTTP responder and benches
  /// call this from their own threads).
  obs::RegistrySnapshot CollectStats();

  /// The live leakage auditor, or null when ServerRuntimeOptions
  /// enable_leakage is off. Tests and benches read reports through this
  /// without a wire round trip; the kLeakageReport handler is the wire
  /// surface.
  obs::leakage::LeakageAuditor* leakage_auditor() { return auditor_.get(); }

 private:
  /// One select's outcome: the documents plus their leaf positions
  /// (empty when integrity is off); `rel` (borrowed from the pinned
  /// snapshot, which the caller keeps alive) is the proof source.
  struct SelectOutcome {
    Result<std::vector<swp::EncryptedDocument>> docs;
    std::vector<uint64_t> positions;
    const RelationSnapshot* rel = nullptr;
    /// The queried trapdoor's search-tree tag (set when integrity is
    /// on), so the response builder can attach a CompletenessProof.
    crypto::MerkleTree::Hash tag{};
    bool has_tag = false;

    SelectOutcome() : docs(Status::OK()) {}
  };

  /// One completed request's metric deltas, staged before they reach the
  /// registry. The instruments live in scattered heap allocations, and a
  /// request's working set (Merkle proof build, decrypt-sized scans)
  /// evicts them between requests — updating ~13 of them inline costs a
  /// cold cache miss each, several times the instruments' instruction
  /// cost. So the hot path appends one plain 56-byte entry to a small
  /// ring instead, and the ring folds into the registry in batches
  /// (cache-hot, amortized) and on every read path. The ring is guarded
  /// by stats_mutex_ (every request stages here); readers of the atomic
  /// instruments stay lock-free.
  struct PendingRequestStat {
    enum : uint8_t {
      kIsError = 1 << 0,
      kIsSelect = 1 << 1,
      kRanPipeline = 1 << 2,
      kUsedIndex = 1 << 3,
      kUsedScan = 1 << 4,
      kBuiltProof = 1 << 5,
    };
    uint32_t parse_micros = 0;
    uint32_t lock_wait_micros = 0;
    uint32_t handle_micros = 0;
    uint32_t serialize_micros = 0;
    uint32_t total_micros = 0;
    uint32_t plan_micros = 0;
    uint32_t execute_index_micros = 0;
    uint32_t execute_scan_micros = 0;
    uint32_t proof_micros = 0;
    uint32_t result_size = 0;
    uint32_t index_queries = 0;
    uint32_t scan_queries = 0;
    uint32_t match_evals = 0;
    uint8_t op = 0;
    uint8_t flags = 0;
  };

  /// One request's private stage trace + staged metric deltas, carried
  /// on the stack: any number of reads run at once, and a locked
  /// request's read legs accumulate into the same scratch.
  struct RequestScratch {
    obs::QueryTrace trace;
    PendingRequestStat cur;
    /// Set for a request that holds dispatch_mutex_ (a mutation or a
    /// mixed batch): its select legs memoize directly instead of
    /// try-locking the mutex their own thread already holds.
    bool holds_dispatch_lock = false;
  };

  // Mutation bodies: the caller holds dispatch_mutex_. Each builds its
  // relation's successor state aside and installs it only on success;
  // HandleRequest publishes before releasing the lock.

  /// Deletes every document matching the trapdoor; returns the count.
  /// Deletions leak exactly like selects (the matched identities) and are
  /// recorded in the observation log accordingly: the match set is a full
  /// scan of the relation's current state (every write applied so far),
  /// the rows a select of the same trapdoor returns. The memo is left
  /// alone: its entries skip deleted rows. When `removed_out` is non-null it
  /// receives the pre-delete (leaf position, serialized document)
  /// manifest the client verifies against its own tree.
  Result<size_t> DeleteWhereLocked(
      const core::EncryptedQuery& query,
      std::vector<std::pair<uint64_t, Bytes>>* removed_out,
      RequestScratch* scratch);

  /// `search_entries` (optional) is the owner-computed search-entry
  /// section riding on the store payload — the relation's full
  /// (tag → positions) map; null/absent leaves the search tree empty.
  Status StoreRelationLocked(
      const core::EncryptedRelation& relation,
      const std::vector<crypto::SearchTree::Entry>* search_entries = nullptr);
  Status DropRelationLocked(const std::string& name);
  /// `search_delta` (optional) holds the appended rows' (tag →
  /// positions) contributions; a malformed delta rejects the whole
  /// append with the relation untouched.
  Status AppendTuplesLocked(
      const std::string& name,
      const std::vector<swp::EncryptedDocument>& documents,
      const std::vector<crypto::SearchTree::Entry>* search_delta = nullptr);
  /// Stores the data owner's signature over (relation, epoch, root) —
  /// the kAttestRoot handler. Eve holds no keys, so she can only accept
  /// and echo the signature; she verifies nothing beyond "the claimed
  /// (epoch, root) is my current state" (a stale attestation is the
  /// client's bug, not hers to repair). Attested roots are mutations for
  /// durability purposes: WAL-logged and persisted, so recovery restores
  /// them alongside the ciphertext they bless.
  /// `search_root`/`search_signature` (optional, both or neither) extend
  /// the attestation to the search tree; an old-style attestation
  /// without them clears any previously deposited search signature.
  Status AttestRootLocked(const std::string& name, uint64_t epoch,
                          const crypto::MerkleTree::Hash& root,
                          const Bytes& signature,
                          const crypto::MerkleTree::Hash* search_root = nullptr,
                          const Bytes* search_signature = nullptr);
  Status RestoreStateLocked(const Bytes& data);
  /// A new relation's first state: `relation`'s documents sealed into
  /// chunks under fresh row ids, with its row tree, the owner's search
  /// entries (optional) and an empty index. Shared by store and restore.
  Result<std::shared_ptr<RelationSnapshot>> NewRelationLocked(
      const core::EncryptedRelation& relation,
      const std::vector<crypto::SearchTree::Entry>* search_entries);
  /// Installs `next` as `name`'s state; the next publish exposes it.
  void InstallLocked(const std::string& name,
                     std::shared_ptr<const RelationSnapshot> next);

  /// Dispatch for requests that hold the dispatch lock: the mutations,
  /// kFlush, and batches with at least one mutating leg. `scratch` is
  /// never null.
  protocol::Envelope Dispatch(const protocol::Envelope& request,
                              RequestScratch* scratch);
  /// A mixed batch, leg by leg in order: mutating legs go through
  /// Dispatch; before each read-shaped leg every write applied so far is
  /// published, and the leg runs through DispatchRead on that snapshot.
  protocol::Envelope DispatchBatch(const protocol::Envelope& request,
                                   RequestScratch* scratch);

  // ------------------- snapshot read path (the only one) ------------------

  std::shared_ptr<const ServerSnapshot> PinSnapshot() const {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    return published_;
  }

  /// Serves one read-shaped request against the pinned snapshot, without
  /// the dispatch lock: the read-path twin of the locked HandleRequest
  /// tail (timing, metrics staging, slow-query log).
  Bytes HandleReadRequest(const protocol::Envelope& envelope,
                          uint64_t parse_micros);

  /// Builds every select, EXPLAIN, fetch, stats, leakage and ping
  /// response, and all-select batches: top-level reads and the read legs
  /// of a locked batch alike. `scratch` null = untimed.
  protocol::Envelope DispatchRead(const protocol::Envelope& request,
                                  const ServerSnapshot& snap,
                                  RequestScratch* scratch);

  /// EXPLAIN against a pinned snapshot: the access path the select
  /// pipeline would take and what it would cost, through the frozen
  /// memo (EXPLAIN never counts toward the hit/miss gauges).
  Result<protocol::PlanReport> ExplainFromSnapshot(
      const ServerSnapshot& snap, const core::EncryptedQuery& query);

  /// The select pipeline: plans with the frozen memo, serves hits
  /// (memoized rows plus a scan of the rows stored since) or runs sharded
  /// scans over the frozen documents, feeds the auditor, and appends one
  /// observation-log entry per query (in query order, atomically under
  /// log_mutex_). `scratch` null = untimed.
  std::vector<SelectOutcome> SnapshotSelectBatch(
      const ServerSnapshot& snap,
      const std::vector<core::EncryptedQuery>& queries,
      RequestScratch* scratch);

  /// Renders one select outcome as its wire envelope — kSelectResult
  /// with proofs from the pinned relation snapshot's frozen
  /// tree/epoch/attestation (integrity on), or a kError.
  protocol::Envelope MakeSelectResponse(SelectOutcome* outcome,
                                        RequestScratch* scratch);

  /// Memoizes `matches`, the answer a trapdoor got on the pinned state
  /// `scanned` (a scan that missed the memo, or a hit that scanned or
  /// dropped rows), into a successor of the relation's current state and
  /// republishes. The entry is exact for the current state however far
  /// it moved past `scanned` (see TrapdoorIndex), so nothing is checked.
  /// A top-level read only try-locks the dispatch mutex and skips on
  /// contention — a pure performance loss, never a correctness one; a
  /// read leg of a locked request already holds it
  /// (`holds_dispatch_lock`).
  void TryMemoizeFromSnapshot(const std::string& relation,
                              const RelationSnapshot& scanned,
                              const Bytes& trapdoor_bytes,
                              const std::vector<SnapshotMatch>& matches,
                              bool holds_dispatch_lock);

  // ---------------- snapshot publication (dispatch lock held) -----------

  /// Swaps in a ServerSnapshot holding a copy of relations_ (pointers
  /// only: no document, tree or index is copied). No-op when nothing was
  /// installed since the last publish.
  void PublishDirtyLocked();

  /// Write-ahead point for a mutating envelope: hands it to the mutation
  /// hook (if any) before the typed handler applies it. kUnavailable on
  /// hook failure — the mutation must not be applied.
  Status LogMutation(const protocol::Envelope& request);

  // Observation-log appends serialize on log_mutex_ (mutators under the
  // dispatch lock race snapshot readers here); every write goes through
  // these.
  void RecordStoreObservation(const std::string& relation,
                              size_t num_documents, size_t ciphertext_bytes);
  void RecordQueryObservation(QueryObservation observation);

  /// Cached instrument pointers (stable for the registry's lifetime), so
  /// the hot path never touches the registry map or its mutex.
  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* slow_queries = nullptr;
    obs::Counter* select_scan = nullptr;
    obs::Counter* select_index = nullptr;
    obs::Counter* scan_match_evals = nullptr;
    obs::Counter* attestations = nullptr;
    obs::Histogram* parse = nullptr;
    obs::Histogram* lock_wait = nullptr;
    obs::Histogram* handle = nullptr;
    obs::Histogram* plan = nullptr;
    obs::Histogram* execute_scan = nullptr;
    obs::Histogram* execute_index = nullptr;
    obs::Histogram* proof_build = nullptr;
    obs::Histogram* serialize = nullptr;
    obs::Histogram* select_total = nullptr;
    obs::Histogram* select_result_size = nullptr;
    obs::Gauge* relations = nullptr;
    obs::Gauge* index_trapdoors = nullptr;
    obs::Gauge* index_postings = nullptr;
    obs::Gauge* index_hits = nullptr;
    obs::Gauge* index_misses = nullptr;
    obs::Gauge* index_memoized = nullptr;
    obs::Gauge* index_at_capacity = nullptr;
  };
  void InitInstruments();

  /// Per-op counter for a request envelope type (registered lazily; the
  /// name is a fixed function of the type byte, never of payload).
  /// Caller holds stats_mutex_ (the lazy cache array is guarded by it).
  obs::Counter* OpCounter(protocol::MessageType type);

  static constexpr size_t kPendingRingSize = 128;

  /// Completes `cur` from `trace`, stages it as a ring entry (under
  /// stats_mutex_, folding the ring when it fills), and emits the
  /// slow-query log line. Callable from any request thread.
  void RecordRequestMetrics(const obs::QueryTrace& trace,
                            PendingRequestStat* cur,
                            protocol::MessageType request_type,
                            protocol::MessageType response_type,
                            uint64_t handle_micros);

  /// Folds every staged ring entry into the registry instruments.
  /// Caller holds stats_mutex_.
  void FlushPendingStatsLocked();

  /// Folds staged request stats and recomputes the derived gauges
  /// (relation count, trapdoor-index aggregates, auditor) from a pinned
  /// snapshot — kStats reads and CollectStats/scrape. Mutations
  /// republish before acknowledging, so at any quiescent point the
  /// gauges describe the live state.
  void RefreshGaugesFromSnapshot(const ServerSnapshot& snap);

  /// Lazily started worker pool (no threads until the first scan);
  /// concurrent readers race here, so initialization is call_once.
  runtime::ThreadPool* pool();
  size_t ShardCount();

  /// Each relation's current state, under the dispatch lock. The trapdoor
  /// memo inside is volatile cache: it dies with the relation (Drop) and
  /// starts cold after RestoreState / recovery.
  std::map<std::string, std::shared_ptr<const RelationSnapshot>> relations_;
  ObservationLog log_;
  /// Eve's-view leakage statistics (null when disabled). Thread-safe
  /// behind its own internal mutex; fed by the locked and snapshot
  /// select/delete pipelines alike.
  std::unique_ptr<obs::leakage::LeakageAuditor> auditor_;

  ServerRuntimeOptions runtime_options_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::once_flag pool_once_;
  /// Serializes mutations (single-writer); snapshot reads never take it
  /// (their parallelism is the point). mutable so const state readers
  /// (SaveTo) can quiesce.
  mutable std::mutex dispatch_mutex_;
  /// Serializes observation-log appends: mutators (under the dispatch
  /// lock) race snapshot readers here. Lock order: dispatch_mutex_ →
  /// log_mutex_, never the reverse.
  std::mutex log_mutex_;
  /// Guards the pending-stats ring (and the lazy op-counter cache):
  /// locked requests and snapshot readers both stage entries.
  std::mutex stats_mutex_;
  /// The published immutable state the read path executes against.
  /// Replaced under the dispatch lock, pinned (shared_ptr copy) by any
  /// reader. publish_mutex_ guards ONLY the pointer swap/copy — never
  /// held while building, executing against, or destroying a snapshot —
  /// so readers pay one uncontended lock per request, not serialization.
  /// (Not std::atomic<shared_ptr>: libstdc++'s _Sp_atomic unlocks its
  /// embedded spinlock with relaxed order on the load path, which TSan —
  /// and a strict memory-model reading — flags as racing the next store.)
  mutable std::mutex publish_mutex_;
  std::shared_ptr<const ServerSnapshot> published_;
  /// Set while relations_ holds a state not yet published.
  bool snapshot_stale_ = true;
  /// Source of row ids (monotone across all relations, restores
  /// included), so no id ever names two documents within a process —
  /// the order every memo entry's watermark relies on.
  uint64_t next_row_id_ = 0;
  /// Frozen-memo consultations by selects — the only hit/miss count
  /// (the installed memo is immutable).
  std::atomic<uint64_t> reader_index_hits_{0};
  std::atomic<uint64_t> reader_index_misses_{0};
  /// Debug-only: the one transport allowed to dispatch MUTATIONS, when
  /// bound.
  std::atomic<const void*> bound_dispatcher_{nullptr};
  MutationHook mutation_hook_;
  FlushHook flush_hook_;

  /// Process-wide instrument registry (see metrics()). The maps inside
  /// grow at registration only; instrument updates are lock-free.
  obs::MetricsRegistry metrics_;
  Instruments ins_;
  /// Per-op-type counters, registered on first use of each type and
  /// looked up by the raw type byte (no map walk in the fold loop).
  /// Guarded by stats_mutex_ with the ring.
  std::array<obs::Counter*, 256> op_counters_{};
  /// Completed-but-unfolded request entries; folded into the registry by
  /// FlushPendingStatsLocked (ring full, or any stats read). Guarded by
  /// stats_mutex_.
  std::array<PendingRequestStat, kPendingRingSize> pending_{};
  size_t pending_count_ = 0;
};

}  // namespace server
}  // namespace dbph

#endif  // DBPH_SERVER_UNTRUSTED_SERVER_H_
