#include "server/untrusted_server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <ctime>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "crypto/sha256_compress.h"
#include "protocol/completeness_proof.h"
#include "storage/wal.h"
#include "swp/search.h"

// Build metadata for dbph_build_info: CMake injects the git describe
// string; a build outside the tree (or without git) falls back.
#ifndef DBPH_GIT_DESCRIBE
#define DBPH_GIT_DESCRIBE "unknown"
#endif
#ifndef DBPH_VERSION
#define DBPH_VERSION "0.7"
#endif

namespace dbph {
namespace server {

// --------------------------------------------------------- observability

void UntrustedServer::InitInstruments() {
  using obs::Unit;
  ins_.requests = metrics_.GetCounter("dbph_requests_total");
  ins_.errors = metrics_.GetCounter("dbph_op_errors_total");
  ins_.slow_queries = metrics_.GetCounter("dbph_slow_queries_total");
  ins_.select_scan = metrics_.GetCounter("dbph_select_scan_total");
  ins_.select_index = metrics_.GetCounter("dbph_select_index_total");
  ins_.scan_match_evals = metrics_.GetCounter("dbph_scan_match_evals_total");
  ins_.attestations = metrics_.GetCounter("dbph_integrity_attestations_total");
  ins_.parse = metrics_.GetHistogram("dbph_query_parse_seconds", Unit::kMicros);
  ins_.lock_wait =
      metrics_.GetHistogram("dbph_dispatch_lock_wait_seconds", Unit::kMicros);
  ins_.handle =
      metrics_.GetHistogram("dbph_dispatch_handle_seconds", Unit::kMicros);
  ins_.plan = metrics_.GetHistogram("dbph_query_plan_seconds", Unit::kMicros);
  ins_.execute_scan =
      metrics_.GetHistogram("dbph_query_execute_scan_seconds", Unit::kMicros);
  ins_.execute_index =
      metrics_.GetHistogram("dbph_query_execute_index_seconds", Unit::kMicros);
  ins_.proof_build = metrics_.GetHistogram(
      "dbph_integrity_proof_build_seconds", Unit::kMicros);
  ins_.serialize =
      metrics_.GetHistogram("dbph_query_serialize_seconds", Unit::kMicros);
  ins_.select_total =
      metrics_.GetHistogram("dbph_select_seconds", Unit::kMicros);
  ins_.select_result_size =
      metrics_.GetHistogram("dbph_select_result_size", Unit::kCount);
  ins_.relations = metrics_.GetGauge("dbph_server_relations");
  ins_.index_trapdoors = metrics_.GetGauge("dbph_index_trapdoors");
  ins_.index_postings = metrics_.GetGauge("dbph_index_postings");
  ins_.index_hits = metrics_.GetGauge("dbph_index_hits");
  ins_.index_misses = metrics_.GetGauge("dbph_index_misses");
  ins_.index_memoized = metrics_.GetGauge("dbph_index_memoized");
  ins_.index_at_capacity =
      metrics_.GetGauge("dbph_index_relations_at_capacity");
  metrics_.SetInfo(
      "dbph_build_info",
      std::string("version=\"") + DBPH_VERSION +
          "\",revision=\"" DBPH_GIT_DESCRIBE "\",sha256_kernel=\"" +
          crypto::Sha256KernelName(crypto::ActiveSha256Kernel()) + "\"");
  // Unix wall clock at construction, so scrapes compute uptime and spot
  // restarts (the Prometheus convention for this metric name).
  metrics_.GetGauge("dbph_process_start_time_seconds")
      ->Set(static_cast<int64_t>(std::time(nullptr)));
  if (runtime_options_.enable_leakage) {
    obs::leakage::LeakageOptions leakage_options;
    leakage_options.top_k = runtime_options_.leakage_topk;
    leakage_options.alert_advantage_millis =
        runtime_options_.leakage_alert_millis;
    leakage_options.salt = runtime_options_.leakage_salt;
    auditor_ = std::make_unique<obs::leakage::LeakageAuditor>(leakage_options,
                                                              &metrics_);
  }
}

namespace {

/// Wire-op slug for per-op counters and the slow-query log. A fixed
/// function of the type byte — never of the payload.
const char* OpSlug(protocol::MessageType type) {
  using protocol::MessageType;
  switch (type) {
    case MessageType::kStoreRelation:
      return "store";
    case MessageType::kSelect:
      return "select";
    case MessageType::kDropRelation:
      return "drop";
    case MessageType::kAppendTuples:
      return "append";
    case MessageType::kDeleteWhere:
      return "delete";
    case MessageType::kFetchRelation:
      return "fetch";
    case MessageType::kBatchRequest:
      return "batch";
    case MessageType::kPing:
      return "ping";
    case MessageType::kFlush:
      return "flush";
    case MessageType::kExplain:
      return "explain";
    case MessageType::kAttestRoot:
      return "attest";
    case MessageType::kStats:
      return "stats";
    case MessageType::kLeakageReport:
      return "leakage";
    default:
      return "other";
  }
}

// Ring entries hold micros as uint32 (2^32 us ~ 71 minutes; anything
// slower saturates, which the log2 buckets cannot distinguish anyway).
uint32_t SaturateU32(uint64_t value) {
  return value > 0xffffffffull ? 0xffffffffu : static_cast<uint32_t>(value);
}

uint64_t MicrosBetween(Stopwatch::Clock::time_point from,
                       Stopwatch::Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

obs::Counter* UntrustedServer::OpCounter(protocol::MessageType type) {
  uint8_t key = static_cast<uint8_t>(type);
  obs::Counter* counter = op_counters_[key];
  if (counter != nullptr) return counter;
  counter = metrics_.GetCounter(
      std::string("dbph_op_") + OpSlug(type) + "_total");
  op_counters_[key] = counter;
  return counter;
}

void UntrustedServer::RecordRequestMetrics(
    const obs::QueryTrace& trace, PendingRequestStat* cur,
    protocol::MessageType request_type, protocol::MessageType response_type,
    uint64_t handle_micros) {
  cur->op = static_cast<uint8_t>(request_type);
  if (response_type == protocol::MessageType::kError) {
    cur->flags |= PendingRequestStat::kIsError;
  }
  if (request_type == protocol::MessageType::kSelect) {
    cur->flags |= PendingRequestStat::kIsSelect;
  }
  cur->parse_micros = SaturateU32(trace.parse_micros);
  cur->lock_wait_micros = SaturateU32(trace.lock_wait_micros);
  cur->handle_micros = SaturateU32(handle_micros);
  cur->serialize_micros = SaturateU32(trace.serialize_micros);
  cur->total_micros = SaturateU32(trace.total_micros);
  cur->result_size = SaturateU32(trace.result_size);
  cur->match_evals = SaturateU32(trace.match_evals);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    pending_[pending_count_++] = *cur;
    if (pending_count_ == kPendingRingSize) FlushPendingStatsLocked();
  }
  if (runtime_options_.slow_query_ms > 0 &&
      trace.total_micros >=
          static_cast<uint64_t>(runtime_options_.slow_query_ms) * 1000) {
    ins_.slow_queries->Add();
    // Redaction contract (docs/OPERATIONS.md): metadata and timings
    // only; trapdoor and ciphertext bytes never reach the log.
    DBPH_LOG(Warning) << "slow query: " << trace.Describe();
  }
}

void UntrustedServer::FlushPendingStatsLocked() {
  if (pending_count_ == 0) return;
  // Local plain accumulation first, one Merge/Add per instrument after:
  // a flush of N entries pays one relaxed atomic add per touched bucket,
  // not 3 RMWs per recorded value — the entries overwhelmingly hit the
  // same handful of buckets.
  obs::HistogramDelta parse, lock_wait, handle, serialize, select_total,
      result_size, plan, execute_index, execute_scan, proof;
  uint64_t errors = 0, index_queries = 0, scan_queries = 0, match_evals = 0;
  std::array<uint32_t, 256> op_counts{};
  for (size_t i = 0; i < pending_count_; ++i) {
    const PendingRequestStat& e = pending_[i];
    ++op_counts[e.op];
    if (e.flags & PendingRequestStat::kIsError) ++errors;
    parse.Add(e.parse_micros);
    lock_wait.Add(e.lock_wait_micros);
    handle.Add(e.handle_micros);
    serialize.Add(e.serialize_micros);
    if (e.flags & PendingRequestStat::kIsSelect) {
      select_total.Add(e.total_micros);
      result_size.Add(e.result_size);
    }
    if (e.flags & PendingRequestStat::kRanPipeline) plan.Add(e.plan_micros);
    if (e.flags & PendingRequestStat::kUsedIndex) {
      index_queries += e.index_queries;
      execute_index.Add(e.execute_index_micros);
    }
    if (e.flags & PendingRequestStat::kUsedScan) {
      scan_queries += e.scan_queries;
      execute_scan.Add(e.execute_scan_micros);
    }
    // Kernel scans and kernel-matched deletes both account evaluations.
    match_evals += e.match_evals;
    if (e.flags & PendingRequestStat::kBuiltProof) proof.Add(e.proof_micros);
  }
  ins_.requests->Add(pending_count_);
  for (size_t op = 0; op < op_counts.size(); ++op) {
    if (op_counts[op] != 0) {
      OpCounter(static_cast<protocol::MessageType>(op))->Add(op_counts[op]);
    }
  }
  if (errors != 0) ins_.errors->Add(errors);
  if (index_queries != 0) ins_.select_index->Add(index_queries);
  if (scan_queries != 0) ins_.select_scan->Add(scan_queries);
  if (match_evals != 0) ins_.scan_match_evals->Add(match_evals);
  ins_.parse->Merge(parse);
  ins_.lock_wait->Merge(lock_wait);
  ins_.handle->Merge(handle);
  ins_.serialize->Merge(serialize);
  ins_.select_total->Merge(select_total);
  ins_.select_result_size->Merge(result_size);
  ins_.plan->Merge(plan);
  ins_.execute_index->Merge(execute_index);
  ins_.execute_scan->Merge(execute_scan);
  ins_.proof_build->Merge(proof);
  pending_count_ = 0;
}

void UntrustedServer::RefreshGaugesFromSnapshot(const ServerSnapshot& snap) {
  // Every stats read folds staged request entries before snapshotting.
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    FlushPendingStatsLocked();
  }
  ins_.relations->Set(static_cast<int64_t>(snap.relations.size()));
  int64_t memoized = 0;
  int64_t trapdoors = 0;
  int64_t postings = 0;
  int64_t at_capacity = 0;
  for (const auto& [name, rel] : snap.relations) {
    if (rel->index == nullptr) continue;
    memoized += static_cast<int64_t>(rel->index->memoized());
    trapdoors += static_cast<int64_t>(rel->index->num_trapdoors());
    postings += static_cast<int64_t>(rel->index->num_postings());
    if (rel->index->AtCapacity()) ++at_capacity;
  }
  // Selects consult the frozen memos and count into the server-level
  // atomics — the only hit/miss count.
  ins_.index_hits->Set(static_cast<int64_t>(
      reader_index_hits_.load(std::memory_order_relaxed)));
  ins_.index_misses->Set(static_cast<int64_t>(
      reader_index_misses_.load(std::memory_order_relaxed)));
  ins_.index_memoized->Set(memoized);
  ins_.index_trapdoors->Set(trapdoors);
  ins_.index_postings->Set(postings);
  ins_.index_at_capacity->Set(at_capacity);
  if (auditor_ != nullptr) auditor_->RefreshMetrics();
}

obs::RegistrySnapshot UntrustedServer::CollectStats() {
  // Lock-free against the dispatch lock: mutations republish before
  // acknowledging, so the pinned snapshot's derived gauges agree with
  // the live state at every quiescent point.
  std::shared_ptr<const ServerSnapshot> snap = PinSnapshot();
  RefreshGaugesFromSnapshot(*snap);
  return metrics_.Snapshot();
}

// --------------------------------------------------- observation log

void UntrustedServer::RecordStoreObservation(const std::string& relation,
                                             size_t num_documents,
                                             size_t ciphertext_bytes) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  log_.RecordStore(relation, num_documents, ciphertext_bytes);
}

void UntrustedServer::RecordQueryObservation(QueryObservation observation) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  log_.RecordQuery(std::move(observation));
}

// ----------------------------------------------- snapshot publication

void UntrustedServer::InstallLocked(
    const std::string& name, std::shared_ptr<const RelationSnapshot> next) {
  relations_[name] = std::move(next);
  snapshot_stale_ = true;
}

void UntrustedServer::PublishDirtyLocked() {
  if (!snapshot_stale_) return;
  auto next = std::make_shared<const ServerSnapshot>(ServerSnapshot{relations_});
  // Swap in the new snapshot; the old one is released outside the
  // publish mutex so a slow snapshot destructor never blocks readers.
  std::shared_ptr<const ServerSnapshot> retired;
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    retired = std::exchange(published_, std::move(next));
  }
  snapshot_stale_ = false;
}

void UntrustedServer::TryMemoizeFromSnapshot(
    const std::string& relation, const RelationSnapshot& scanned,
    const Bytes& trapdoor_bytes, const std::vector<SnapshotMatch>& matches,
    bool holds_dispatch_lock) {
  // A top-level read is best-effort only: a contended writer wins and we
  // simply don't memoize (the next select of this trapdoor gets another
  // chance). A read leg of a locked request already holds the mutex;
  // locking it again from the same thread would be undefined behavior.
  std::unique_lock<std::mutex> lock(dispatch_mutex_, std::defer_lock);
  if (!holds_dispatch_lock && !lock.try_lock()) return;
  auto it = relations_.find(relation);
  if (it == relations_.end()) return;
  std::shared_ptr<RelationSnapshot> next =
      it->second->WithMemo(scanned, trapdoor_bytes, matches);
  if (next == nullptr) return;
  InstallLocked(relation, std::move(next));
  PublishDirtyLocked();
}

// ----------------------------------------------------- typed handlers

Result<std::shared_ptr<RelationSnapshot>> UntrustedServer::NewRelationLocked(
    const core::EncryptedRelation& relation,
    const std::vector<crypto::SearchTree::Entry>* search_entries) {
  auto rel = std::make_shared<RelationSnapshot>();
  rel->check_length = relation.check_length;
  if (runtime_options_.enable_integrity) {
    // Validate (and adopt) the owner's search structure before sealing
    // any document: a malformed section rejects the whole store.
    auto search = std::make_shared<crypto::SearchTree>();
    if (search_entries != nullptr) {
      DBPH_RETURN_IF_ERROR(
          search->Assign(*search_entries, relation.documents.size()));
    }
    rel->search = std::move(search);
  }
  DBPH_RETURN_IF_ERROR(rel->AppendDocuments(relation.documents, &next_row_id_));
  if (runtime_options_.enable_integrity) {
    std::vector<crypto::MerkleTree::Hash> leaves;
    leaves.reserve(rel->num_docs);
    for (const auto& chunk : rel->chunks) {
      for (size_t d = 0; d < chunk->size(); ++d) {
        const std::span<const uint8_t> doc = chunk->doc(d);
        leaves.push_back(crypto::MerkleTree::LeafHash(doc.data(), doc.size()));
      }
    }
    auto tree = std::make_shared<crypto::MerkleTree>();
    tree->Assign(std::move(leaves));
    rel->tree = std::move(tree);
    rel->epoch = 1;
  }
  if (runtime_options_.enable_trapdoor_index) {
    rel->index = std::make_shared<const TrapdoorIndex>(
        runtime_options_.max_indexed_trapdoors);
  }
  return rel;
}

Status UntrustedServer::StoreRelationLocked(
    const core::EncryptedRelation& relation,
    const std::vector<crypto::SearchTree::Entry>* search_entries) {
  if (relations_.count(relation.name) > 0) {
    return Status::AlreadyExists("relation '" + relation.name +
                                 "' already stored");
  }
  DBPH_ASSIGN_OR_RETURN(std::shared_ptr<RelationSnapshot> rel,
                        NewRelationLocked(relation, search_entries));
  RecordStoreObservation(relation.name, relation.documents.size(),
                         relation.CiphertextBytes());
  InstallLocked(relation.name, std::move(rel));
  return Status::OK();
}

Status UntrustedServer::DropRelationLocked(const std::string& name) {
  if (relations_.erase(name) == 0) {
    return Status::NotFound("relation '" + name + "' not stored");
  }
  snapshot_stale_ = true;  // the next publish simply omits the relation
  return Status::OK();
}

Result<size_t> UntrustedServer::RelationSize(const std::string& name) const {
  std::shared_ptr<const ServerSnapshot> snap = PinSnapshot();
  auto it = snap->relations.find(name);
  if (it == snap->relations.end()) {
    return Status::NotFound("relation '" + name + "' not stored");
  }
  return static_cast<size_t>(it->second->num_docs);
}

Result<std::vector<swp::EncryptedDocument>> UntrustedServer::Select(
    const core::EncryptedQuery& query) {
  std::shared_ptr<const ServerSnapshot> snap = PinSnapshot();
  std::vector<SelectOutcome> outcomes =
      SnapshotSelectBatch(*snap, {query}, /*scratch=*/nullptr);
  return std::move(outcomes[0].docs);
}

Status UntrustedServer::AttestRootLocked(
    const std::string& name, uint64_t epoch,
    const crypto::MerkleTree::Hash& root, const Bytes& signature,
    const crypto::MerkleTree::Hash* search_root,
    const Bytes* search_signature) {
  if (!runtime_options_.enable_integrity) {
    return Status::FailedPrecondition("integrity disabled on this server");
  }
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' not stored");
  }
  if (signature.size() != 32) {
    return Status::InvalidArgument("attestation signature must be 32 bytes");
  }
  const RelationSnapshot& live = *it->second;
  // Eve cannot verify the HMAC (she has no keys) but she refuses an
  // attestation of a state she does not hold: storing it would hand the
  // next verifier a signature that never matches a proof.
  if (epoch != live.epoch || root != live.tree->Root()) {
    return Status::FailedPrecondition(
        "attestation does not match the server's current (epoch, root)");
  }
  auto next = std::make_shared<RelationSnapshot>(live);
  if (search_root != nullptr) {
    if (search_signature == nullptr || search_signature->size() != 32) {
      return Status::InvalidArgument(
          "search attestation signature must be 32 bytes");
    }
    if (*search_root != live.search->Root()) {
      return Status::FailedPrecondition(
          "attestation does not match the server's current search root");
    }
    next->search_signature = *search_signature;
  } else {
    // An old-style attestation blesses only the row tree; a previously
    // deposited search signature would then be over a stale state.
    next->search_signature.clear();
  }
  next->attested_epoch = epoch;
  next->root_signature = signature;
  InstallLocked(name, std::move(next));
  if (runtime_options_.enable_metrics) ins_.attestations->Add();
  return Status::OK();
}

namespace {

/// The proof constructor for selects and fetches, over a pinned
/// snapshot's frozen tree, epoch and attestation.
protocol::ResultProof BuildProofFromParts(const crypto::MerkleTree& tree,
                                          uint64_t epoch,
                                          uint64_t attested_epoch,
                                          const Bytes& root_signature,
                                          std::vector<uint64_t> positions) {
  protocol::ResultProof proof;
  proof.epoch = epoch;
  proof.leaf_count = tree.size();
  proof.root = tree.Root();
  if (attested_epoch == epoch) {
    proof.root_signature = root_signature;
  }
  proof.siblings = tree.SubsetProof(positions);
  proof.positions = std::move(positions);
  return proof;
}

/// The completeness twin of BuildProofFromParts: both access paths (scan
/// and index) build the CompletenessProof for a queried tag from the
/// same frozen parts, so the two are byte-identical by construction.
protocol::CompletenessProof BuildCompletenessFromParts(
    const crypto::SearchTree& search, uint64_t epoch, uint64_t attested_epoch,
    const Bytes& search_signature, const crypto::MerkleTree::Hash& tag) {
  protocol::CompletenessProof proof;
  proof.epoch = epoch;
  proof.tree_size = search.size();
  proof.search_root = search.Root();
  if (attested_epoch == epoch) proof.root_signature = search_signature;
  if (const crypto::SearchTree::Entry* entry = search.Find(tag)) {
    proof.kind = protocol::kCompletenessMember;
    proof.index = search.LowerBound(tag);
    proof.positions = entry->positions;
    proof.path = search.MembershipPath(proof.index);
  } else {
    proof.kind = protocol::kCompletenessAbsent;
    proof.neighbors = search.NonMembershipProof(tag);
  }
  return proof;
}

}  // namespace

runtime::ThreadPool* UntrustedServer::pool() {
  // Concurrent snapshot readers race to the first scan; call_once makes
  // the lazy spawn safe without taxing the steady state.
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<runtime::ThreadPool>(runtime_options_.num_threads);
  });
  return pool_.get();
}

size_t UntrustedServer::ShardCount() {
  if (runtime_options_.num_shards > 0) return runtime_options_.num_shards;
  return 4 * pool()->num_threads();
}

std::vector<UntrustedServer::SelectOutcome>
UntrustedServer::SnapshotSelectBatch(
    const ServerSnapshot& snap, const std::vector<core::EncryptedQuery>& queries,
    RequestScratch* scratch) {
  const bool timed = scratch != nullptr && runtime_options_.enable_metrics;
  using SteadyClock = Stopwatch::Clock;

  struct QueryState {
    const RelationSnapshot* rel = nullptr;
    Bytes trapdoor_bytes;
    /// The frozen memo's entry for the trapdoor; null = full scan.
    const TrapdoorIndex::Entry* hit = nullptr;
    bool will_memoize = false;
    bool failed = false;
    std::vector<SnapshotMatch> matches;
  };
  std::vector<QueryState> states(queries.size());
  std::vector<SelectOutcome> results(queries.size());

  // ---- plan: resolve + consult the frozen memo (hit/miss accounting
  // goes to the server-level reader atomics) ----
  SteadyClock::time_point plan_start{};
  if (timed) plan_start = SteadyClock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto it = snap.relations.find(queries[i].relation);
    if (it == snap.relations.end()) {
      results[i].docs = Status::NotFound("relation '" + queries[i].relation +
                                         "' not stored");
      continue;
    }
    QueryState& st = states[i];
    st.rel = it->second.get();
    queries[i].trapdoor.AppendTo(&st.trapdoor_bytes);
    if (st.rel->index != nullptr) {
      st.hit = st.rel->index->Find(st.trapdoor_bytes);
      if (st.hit != nullptr) {
        reader_index_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        reader_index_misses_.fetch_add(1, std::memory_order_relaxed);
        st.will_memoize = !st.rel->index->AtCapacity();
      }
    }
  }

  // ---- execute: the memo hits (each its live rows plus a scan of the
  // rows stored since), then the full scans (each a sharded wave over the
  // pool, results in storage order); a stale hit or a scan memoizes ----
  const bool holds_lock = scratch != nullptr && scratch->holds_dispatch_lock;
  uint64_t batch_match_evals = 0;
  const auto execute = [&](size_t i) {
    QueryState& st = states[i];
    Status status =
        st.hit != nullptr
            ? st.rel->ScanFromMemo(*st.hit, queries[i].trapdoor, ShardCount(),
                                   pool(), &st.matches, &batch_match_evals,
                                   &st.will_memoize)
            : st.rel->Scan(queries[i].trapdoor, 0, ShardCount(), pool(),
                           &st.matches, &batch_match_evals);
    if (!status.ok()) {
      st.matches.clear();
      st.failed = true;
      results[i].docs = status;
      return;
    }
    if (st.will_memoize) {
      TryMemoizeFromSnapshot(queries[i].relation, *st.rel, st.trapdoor_bytes,
                             st.matches, holds_lock);
    }
  };
  SteadyClock::time_point index_start{};
  if (timed) index_start = SteadyClock::now();
  size_t index_queries = 0;
  size_t scan_queries = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (states[i].hit == nullptr) continue;
    ++index_queries;
    execute(i);
  }
  SteadyClock::time_point scan_start{};
  if (timed) scan_start = SteadyClock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (states[i].rel == nullptr || states[i].hit != nullptr) continue;
    ++scan_queries;
    execute(i);
  }
  SteadyClock::time_point scan_end{};
  if (timed) scan_end = SteadyClock::now();

  if (timed) {
    const uint64_t plan_micros = MicrosBetween(plan_start, index_start);
    const uint64_t index_micros = MicrosBetween(index_start, scan_start);
    const uint64_t scan_micros = MicrosBetween(scan_start, scan_end);
    scratch->trace.plan_micros += plan_micros;
    scratch->trace.execute_micros += index_micros + scan_micros;
    scratch->trace.execute_index_micros += index_micros;
    scratch->trace.execute_scan_micros += scan_micros;
    scratch->cur.flags |= PendingRequestStat::kRanPipeline;
    scratch->cur.plan_micros += SaturateU32(plan_micros);
    if (index_queries > 0) {
      scratch->trace.used_index = true;
      scratch->cur.flags |= PendingRequestStat::kUsedIndex;
      scratch->cur.index_queries += SaturateU32(index_queries);
      scratch->cur.execute_index_micros += SaturateU32(index_micros);
    }
    if (scan_queries > 0) {
      scratch->cur.flags |= PendingRequestStat::kUsedScan;
      scratch->cur.scan_queries += SaturateU32(scan_queries);
      scratch->cur.execute_scan_micros += SaturateU32(scan_micros);
    }
    scratch->trace.match_evals += batch_match_evals;
    scratch->cur.match_evals += SaturateU32(batch_match_evals);
    if (scratch->trace.relation.empty() && !queries.empty()) {
      scratch->trace.relation = queries.front().relation;
    }
  }

  // ---- fold: observations + positions + documents, in query order ----
  std::vector<QueryObservation> observations;
  observations.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryState& st = states[i];
    if (st.rel == nullptr || st.failed) continue;
    QueryObservation observation;
    observation.relation = queries[i].relation;
    observation.trapdoor_bytes = st.trapdoor_bytes;
    if (st.rel->tree != nullptr) {
      results[i].tag = crypto::SearchTree::TagDigest(st.trapdoor_bytes);
      results[i].has_tag = true;
    }
    std::vector<swp::EncryptedDocument> docs;
    docs.reserve(st.matches.size());
    for (SnapshotMatch& match : st.matches) {
      observation.matched_records.push_back(match.row_id);
      if (st.rel->tree != nullptr) {
        results[i].positions.push_back(match.position);
      }
      docs.push_back(std::move(match.doc));
    }
    if (auditor_ != nullptr) {
      auditor_->RecordQuery(queries[i].relation, observation.trapdoor_bytes,
                            docs.size(),
                            /*used_index=*/st.hit != nullptr);
    }
    if (timed) scratch->trace.result_size += docs.size();
    observations.push_back(std::move(observation));
    results[i].docs = std::move(docs);
    results[i].rel = st.rel;
  }

  // ---- log: one short critical section for the whole batch, entries
  // in query order (the batch transcribes exactly like the same selects
  // arriving one by one). On a top-level read the lock-wait metric means
  // THIS wait — the only lock a snapshot read contends on (a locked
  // request reports its dispatch-lock wait instead; see HandleRequest).
  if (!observations.empty()) {
    SteadyClock::time_point lock_start{};
    if (timed) lock_start = SteadyClock::now();
    std::lock_guard<std::mutex> lock(log_mutex_);
    if (timed) {
      scratch->trace.lock_wait_micros +=
          MicrosBetween(lock_start, SteadyClock::now());
    }
    for (QueryObservation& observation : observations) {
      log_.RecordQuery(std::move(observation));
    }
  }
  return results;
}

Result<protocol::PlanReport> UntrustedServer::ExplainFromSnapshot(
    const ServerSnapshot& snap, const core::EncryptedQuery& query) {
  auto it = snap.relations.find(query.relation);
  if (it == snap.relations.end()) {
    return Status::NotFound("relation '" + query.relation + "' not stored");
  }
  const RelationSnapshot& rel = *it->second;
  Bytes trapdoor_bytes;
  query.trapdoor.AppendTo(&trapdoor_bytes);
  // The decision SnapshotSelectBatch makes, against the same frozen
  // state (EXPLAIN is plan-only: nothing matched, nothing logged).
  protocol::PlanReport report;
  report.relation = query.relation;
  report.num_records = static_cast<uint32_t>(rel.num_docs);
  report.num_shards = static_cast<uint32_t>(rel.ScanShardCount(ShardCount()));
  report.index_enabled = rel.index != nullptr;
  report.indexed_trapdoors = static_cast<uint32_t>(
      rel.index != nullptr ? rel.index->num_trapdoors() : 0);
  if (rel.index != nullptr) {
    if (const TrapdoorIndex::Entry* entry = rel.index->Find(trapdoor_bytes)) {
      // A hit fetches the entry's live rows and matches the word slots
      // stored since; it re-memoizes when either differs from the entry.
      report.access_path = protocol::PlanAccessPath::kIndexLookup;
      const uint64_t live = rel.LiveRows(*entry);
      report.posting_size = static_cast<uint32_t>(live);
      report.match_evals = rel.WordSlotsFrom(entry->watermark);
      report.will_memoize = live < entry->row_ids.size() ||
                            rel.Watermark() > entry->watermark;
      return report;
    }
    report.will_memoize = !rel.index->AtCapacity();
  }
  // Scan path: every stored word slot is matched exactly once.
  report.match_evals = rel.word_slots;
  return report;
}

Status UntrustedServer::AppendTuplesLocked(
    const std::string& name,
    const std::vector<swp::EncryptedDocument>& documents,
    const std::vector<crypto::SearchTree::Entry>* search_delta) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + name + "' not stored");
  }
  const RelationSnapshot& live = *it->second;
  auto next = std::make_shared<RelationSnapshot>(live);
  const bool integrity = runtime_options_.enable_integrity;
  if (integrity && search_delta != nullptr) {
    auto search = std::make_shared<crypto::SearchTree>(*live.search);
    DBPH_RETURN_IF_ERROR(search->ApplyAppendDelta(
        *search_delta, live.num_docs, live.num_docs + documents.size()));
    next->search = std::move(search);
  }
  DBPH_RETURN_IF_ERROR(next->AppendDocuments(documents, &next_row_id_));
  std::shared_ptr<crypto::MerkleTree> tree;
  if (integrity) tree = std::make_shared<crypto::MerkleTree>(*live.tree);
  size_t bytes = 0;
  for (uint64_t pos = live.num_docs; pos < next->num_docs; ++pos) {
    const std::span<const uint8_t> doc = next->doc(pos);
    bytes += doc.size();
    if (tree) tree->AppendLeaf(crypto::MerkleTree::LeafHash(doc.data(), doc.size()));
  }
  if (integrity) {
    next->tree = std::move(tree);
    // Every append (even an empty one) is an epoch: the client mirrors
    // the same rule, so epochs agree without a negotiation round trip.
    ++next->epoch;
  }
  RecordStoreObservation(name, documents.size(), bytes);
  InstallLocked(name, std::move(next));
  return Status::OK();
}

Result<size_t> UntrustedServer::DeleteWhereLocked(
    const core::EncryptedQuery& query,
    std::vector<std::pair<uint64_t, Bytes>>* removed_out,
    RequestScratch* scratch) {
  auto it = relations_.find(query.relation);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + query.relation + "' not stored");
  }
  const RelationSnapshot& live = *it->second;
  // The match set is a full scan of the current state (every write
  // applied so far, earlier batch legs included): the rows a select of
  // this trapdoor returns. Nothing is installed unless the scan succeeds.
  std::vector<SnapshotMatch> matches;
  uint64_t match_evals = 0;
  DBPH_RETURN_IF_ERROR(live.Scan(query.trapdoor, 0, ShardCount(), pool(),
                                 &matches, &match_evals));

  QueryObservation observation;
  observation.relation = query.relation;
  query.trapdoor.AppendTo(&observation.trapdoor_bytes);
  // Pre-delete leaf positions, in storage order: with integrity on, the
  // manifest the client checks against its own tree before mirroring
  // the removal.
  std::vector<uint64_t> removed_positions;
  removed_positions.reserve(matches.size());
  for (const SnapshotMatch& match : matches) {
    observation.matched_records.push_back(match.row_id);
    removed_positions.push_back(match.position);
    if (removed_out != nullptr) {
      const std::span<const uint8_t> doc = live.doc(match.position);
      removed_out->emplace_back(match.position, Bytes(doc.begin(), doc.end()));
    }
  }
  const size_t removed = matches.size();
  if (runtime_options_.enable_metrics) {
    scratch->trace.relation = query.relation;
    scratch->trace.result_size += removed;
    scratch->trace.match_evals += match_evals;
    scratch->cur.match_evals += SaturateU32(match_evals);
  }
  auto next = std::make_shared<RelationSnapshot>(live);
  if (removed > 0) {
    next->RemovePositions(removed_positions);
    if (runtime_options_.enable_integrity) {
      auto tree = std::make_shared<crypto::MerkleTree>(*live.tree);
      tree->RemoveSorted(removed_positions);
      next->tree = std::move(tree);
      // Both sides apply the identical transform from the (verified)
      // manifest positions, so the search roots stay in lockstep.
      auto search = std::make_shared<crypto::SearchTree>(*live.search);
      search->ApplyDelete(removed_positions);
      next->search = std::move(search);
    }
  }
  // Even a match-less delete is an epoch (the client mirrors the rule).
  if (runtime_options_.enable_integrity) ++next->epoch;
  if (auditor_ != nullptr) {
    // Deletes leak exactly like selects (matched identities via a full
    // scan), so they feed the same per-relation spectrum.
    auditor_->RecordQuery(query.relation, observation.trapdoor_bytes, removed,
                          /*used_index=*/false);
  }
  RecordQueryObservation(std::move(observation));
  InstallLocked(query.relation, std::move(next));
  return removed;
}

Result<Bytes> UntrustedServer::SerializeState() const {
  Bytes out;
  AppendUint32(&out, 0x44425048);  // "DBPH" magic
  AppendUint32(&out, 3);           // format version
  AppendUint32(&out, static_cast<uint32_t>(relations_.size()));
  for (const auto& [name, rel] : relations_) {
    // The EncryptedRelation encoding, with the documents written as the
    // chunks hold them (they are already in their wire serialization).
    AppendLengthPrefixed(&out, ToBytes(name));
    AppendUint32(&out, rel->check_length);
    AppendUint32(&out, static_cast<uint32_t>(rel->num_docs));
    for (const auto& chunk : rel->chunks) {
      out.insert(out.end(), chunk->bytes.begin(), chunk->bytes.end());
    }
    // v2: integrity state rides along. The tree itself is NOT persisted
    // — it is a deterministic function of the ciphertext and rebuilds on
    // restore — but the epoch and the owner's signed root cannot be
    // recomputed from what Eve holds, so they round-trip explicitly.
    AppendUint64(&out, rel->epoch);
    AppendUint64(&out, rel->attested_epoch);
    AppendLengthPrefixed(&out, rel->root_signature);
    // v3: the search structure and its signature. Unlike the row tree,
    // the search entries are NOT derivable from the ciphertext Eve
    // holds (only the owner can enumerate tags), so they round-trip
    // explicitly.
    protocol::AppendSearchEntries(
        rel->search != nullptr ? rel->search->entries()
                               : std::vector<crypto::SearchTree::Entry>{},
        &out);
    AppendLengthPrefixed(&out, rel->search_signature);
  }
  return out;
}

Status UntrustedServer::SaveTo(const std::string& path) const {
  // Quiesce mutations for the read (SerializeState is caller-locked).
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  DBPH_ASSIGN_OR_RETURN(Bytes out, SerializeState());
  // Atomic: a crash mid-save leaves the previous snapshot intact.
  return storage::AtomicWriteFile(path, out);
}

Status UntrustedServer::LoadFrom(const std::string& path) {
  DBPH_ASSIGN_OR_RETURN(Bytes data, storage::ReadWholeFile(path));
  return RestoreState(data);
}

Status UntrustedServer::RestoreState(const Bytes& data) {
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  Status status = RestoreStateLocked(data);
  PublishDirtyLocked();
  return status;
}

Status UntrustedServer::RestoreStateLocked(const Bytes& data) {
  ByteReader reader(data);
  DBPH_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadUint32());
  if (magic != 0x44425048) return Status::DataLoss("bad magic");
  DBPH_ASSIGN_OR_RETURN(uint32_t version, reader.ReadUint32());
  if (version != 1 && version != 2 && version != 3) {
    return Status::DataLoss("unsupported format version");
  }
  DBPH_ASSIGN_OR_RETURN(uint32_t count, reader.ReadUint32());

  // Parse fully before mutating state so a corrupt file cannot leave the
  // server half-loaded.
  struct LoadedRelation {
    core::EncryptedRelation relation;
    uint64_t epoch = 0;
    uint64_t attested_epoch = 0;
    Bytes root_signature;
    std::vector<crypto::SearchTree::Entry> search_entries;
    Bytes search_signature;
  };
  std::vector<LoadedRelation> loaded;
  loaded.reserve(count);
  std::set<std::string> names;
  for (uint32_t i = 0; i < count; ++i) {
    LoadedRelation entry;
    DBPH_ASSIGN_OR_RETURN(entry.relation,
                          core::EncryptedRelation::ReadFrom(&reader));
    // A repeated name would silently shadow its twin in the rebuilt map:
    // reject it here, before anything is replaced.
    if (!names.insert(entry.relation.name).second) {
      return Status::DataLoss("duplicate relation '" + entry.relation.name +
                              "' in state image");
    }
    if (version >= 2) {
      DBPH_ASSIGN_OR_RETURN(entry.epoch, reader.ReadUint64());
      DBPH_ASSIGN_OR_RETURN(entry.attested_epoch, reader.ReadUint64());
      DBPH_ASSIGN_OR_RETURN(entry.root_signature,
                            reader.ReadLengthPrefixed());
      if (!entry.root_signature.empty() &&
          entry.root_signature.size() != 32) {
        return Status::DataLoss("bad root signature length");
      }
    }
    if (version >= 3) {
      DBPH_ASSIGN_OR_RETURN(
          entry.search_entries,
          protocol::ReadSearchEntries(&reader,
                                      entry.relation.documents.size()));
      DBPH_ASSIGN_OR_RETURN(entry.search_signature,
                            reader.ReadLengthPrefixed());
      if (!entry.search_signature.empty() &&
          entry.search_signature.size() != 32) {
        return Status::DataLoss("bad search signature length");
      }
    }
    // v1/v2 images carry no search section: the relation loads with an
    // empty (vacuously consistent) search tree; WAL replay of later
    // store/append envelopes restores whatever deltas followed the image.
    loaded.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes");

  // Build the new relation map aside (fresh row ids, trees rebuilt from
  // the ciphertext) and swap it in only once every relation loaded.
  std::map<std::string, std::shared_ptr<const RelationSnapshot>> restored;
  for (const auto& entry : loaded) {
    DBPH_ASSIGN_OR_RETURN(
        std::shared_ptr<RelationSnapshot> rel,
        NewRelationLocked(entry.relation, entry.search_entries.empty()
                                              ? nullptr
                                              : &entry.search_entries));
    if (runtime_options_.enable_integrity && entry.epoch != 0) {
      // The tree's root is deterministic from the ciphertext; the
      // mutation counter and the owner's signed roots come from the
      // image.
      rel->epoch = entry.epoch;
      rel->attested_epoch = entry.attested_epoch;
      rel->root_signature = entry.root_signature;
      rel->search_signature = entry.search_signature;
    }
    restored.emplace(entry.relation.name, std::move(rel));
  }
  relations_ = std::move(restored);
  snapshot_stale_ = true;
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    log_.Clear();
  }
  return Status::OK();
}

namespace {

/// kSelectResult payload: count | documents | [ResultProof
/// [CompletenessProof]]. The proofs are optional trailing data —
/// pre-integrity clients stop after the documents; verifying clients
/// parse them from the remainder (the completeness proof rides only
/// after a row proof, never alone).
protocol::Envelope MakeSelectResultEnvelope(
    const std::vector<swp::EncryptedDocument>& docs,
    const protocol::ResultProof* proof,
    const protocol::CompletenessProof* completeness) {
  protocol::Envelope response;
  response.type = protocol::MessageType::kSelectResult;
  AppendUint32(&response.payload, static_cast<uint32_t>(docs.size()));
  for (const auto& doc : docs) doc.AppendTo(&response.payload);
  if (proof != nullptr) proof->AppendTo(&response.payload);
  if (proof != nullptr && completeness != nullptr) {
    completeness->AppendTo(&response.payload);
  }
  return response;
}

}  // namespace

protocol::Envelope UntrustedServer::MakeSelectResponse(
    SelectOutcome* outcome, RequestScratch* scratch) {
  if (!outcome->docs.ok()) {
    return protocol::MakeErrorEnvelope(outcome->docs.status());
  }
  if (outcome->rel != nullptr && outcome->rel->tree != nullptr) {
    // The proof source is the pinned snapshot's frozen tree/epoch — the
    // exact state the documents came from, so a racing mutation can
    // never splice a stale root under this proof.
    const bool timed = scratch != nullptr && runtime_options_.enable_metrics;
    Stopwatch::Clock::time_point start{};
    if (timed) start = Stopwatch::Clock::now();
    protocol::ResultProof proof = BuildProofFromParts(
        *outcome->rel->tree, outcome->rel->epoch, outcome->rel->attested_epoch,
        outcome->rel->root_signature, std::move(outcome->positions));
    protocol::CompletenessProof completeness;
    const bool has_completeness =
        outcome->has_tag && outcome->rel->search != nullptr;
    if (has_completeness) {
      completeness = BuildCompletenessFromParts(
          *outcome->rel->search, outcome->rel->epoch,
          outcome->rel->attested_epoch, outcome->rel->search_signature,
          outcome->tag);
    }
    if (timed) {
      uint64_t micros = MicrosBetween(start, Stopwatch::Clock::now());
      scratch->trace.proof_micros += micros;
      scratch->cur.flags |= PendingRequestStat::kBuiltProof;
      scratch->cur.proof_micros += SaturateU32(micros);
    }
    return MakeSelectResultEnvelope(*outcome->docs, &proof,
                                    has_completeness ? &completeness : nullptr);
  }
  return MakeSelectResultEnvelope(*outcome->docs, nullptr, nullptr);
}

namespace {

/// Request types DispatchRead serves against a published snapshot,
/// whether they arrive top-level or as a leg of a locked batch.
bool IsReadType(protocol::MessageType type) {
  using protocol::MessageType;
  switch (type) {
    case MessageType::kSelect:
    case MessageType::kExplain:
    case MessageType::kFetchRelation:
    case MessageType::kStats:
    case MessageType::kLeakageReport:
    case MessageType::kPing:
      return true;
    default:
      return false;
  }
}

bool IsAllSelectBatch(const protocol::Envelope& envelope) {
  auto parts = protocol::ParseBatchPayload(envelope.payload);
  if (!parts.ok()) return false;  // the locked path reproduces the error
  for (const auto& part : *parts) {
    if (part.type != protocol::MessageType::kSelect) return false;
  }
  return true;
}

/// Read-shaped requests execute against the published snapshot without
/// the dispatch lock. Everything else — including batches with even one
/// mutating part — serializes on the single-writer locked path.
bool IsSnapshotRead(const protocol::Envelope& envelope) {
  if (envelope.type == protocol::MessageType::kBatchRequest) {
    return IsAllSelectBatch(envelope);
  }
  return IsReadType(envelope.type);
}

}  // namespace

protocol::Envelope UntrustedServer::DispatchBatch(
    const protocol::Envelope& request, RequestScratch* scratch) {
  auto parts = protocol::ParseBatchPayload(request.payload);
  if (!parts.ok()) return protocol::MakeErrorEnvelope(parts.status());

  // Sub-requests execute in order. A read leg first publishes every
  // write applied so far, so it sees the earlier writes in its batch,
  // and then runs exactly as it would top-level: one read path.
  std::vector<protocol::Envelope> responses;
  responses.reserve(parts->size());
  for (const protocol::Envelope& part : *parts) {
    if (IsReadType(part.type)) {
      PublishDirtyLocked();
      std::shared_ptr<const ServerSnapshot> snap = PinSnapshot();
      responses.push_back(DispatchRead(part, *snap, scratch));
    } else {
      responses.push_back(Dispatch(part, scratch));
    }
  }

  protocol::Envelope response;
  response.type = protocol::MessageType::kBatchResponse;
  response.payload = protocol::SerializeBatchPayload(responses);
  return response;
}

Status UntrustedServer::LogMutation(const protocol::Envelope& request) {
  if (!mutation_hook_) return Status::OK();
  Status logged = mutation_hook_(request);
  if (!logged.ok()) {
    return Status::Unavailable("durability: " + logged.message());
  }
  return Status::OK();
}

protocol::Envelope UntrustedServer::Dispatch(
    const protocol::Envelope& request, RequestScratch* scratch) {
  using protocol::Envelope;
  using protocol::MessageType;
  switch (request.type) {
    case MessageType::kStoreRelation: {
      ByteReader reader(request.payload);
      auto relation = core::EncryptedRelation::ReadFrom(&reader);
      if (!relation.ok()) return protocol::MakeErrorEnvelope(relation.status());
      // Optional trailing search-entry section (integrity-tracking
      // clients): the owner's (tag → positions) commitment for the
      // stored rows. Non-integrity servers keep ignoring trailing bytes.
      std::vector<crypto::SearchTree::Entry> search_entries;
      bool has_search = false;
      if (runtime_options_.enable_integrity && !reader.AtEnd()) {
        auto entries =
            protocol::ReadSearchEntries(&reader, relation->documents.size());
        if (!entries.ok()) {
          return protocol::MakeErrorEnvelope(entries.status());
        }
        search_entries = std::move(*entries);
        has_search = true;
      }
      if (Status wal = LogMutation(request); !wal.ok()) {
        return protocol::MakeErrorEnvelope(wal);
      }
      Status status = StoreRelationLocked(
          *relation, has_search ? &search_entries : nullptr);
      if (!status.ok()) return protocol::MakeErrorEnvelope(status);
      // Publish while the parsed request is still allocated, so the
      // snapshot's long-lived copies land above the request's transient
      // buffers: freed, those become bins that malloc_trim releases
      // rather than one resident top of this thread's malloc arena.
      PublishDirtyLocked();
      Envelope ok;
      ok.type = MessageType::kStoreOk;
      return ok;
    }
    case MessageType::kBatchRequest:
      return DispatchBatch(request, scratch);
    case MessageType::kFlush: {
      // Durability point: every mutation acknowledged before this reply
      // is on stable storage. Carries no payload by definition.
      if (!request.payload.empty()) {
        return protocol::MakeErrorEnvelope(
            Status::InvalidArgument("kFlush carries no payload"));
      }
      if (flush_hook_) {
        if (Status flushed = flush_hook_(); !flushed.ok()) {
          return protocol::MakeErrorEnvelope(
              Status::Unavailable("durability: " + flushed.message()));
        }
      }
      Envelope ok;
      ok.type = MessageType::kFlushOk;
      return ok;
    }
    case MessageType::kDropRelation: {
      if (Status wal = LogMutation(request); !wal.ok()) {
        return protocol::MakeErrorEnvelope(wal);
      }
      Status status = DropRelationLocked(ToString(request.payload));
      if (!status.ok()) return protocol::MakeErrorEnvelope(status);
      Envelope ok;
      ok.type = MessageType::kDropOk;
      return ok;
    }
    case MessageType::kAppendTuples: {
      ByteReader reader(request.payload);
      auto name = reader.ReadLengthPrefixed();
      if (!name.ok()) return protocol::MakeErrorEnvelope(name.status());
      auto documents = swp::ReadDocumentList(&reader);
      if (!documents.ok()) {
        return protocol::MakeErrorEnvelope(documents.status());
      }
      // Optional trailing delta section: the appended rows' (tag →
      // positions) contributions. The position range is validated by
      // ApplyAppendDelta against the live leaf count, so the parse-time
      // limit is only the wire-format one.
      std::vector<crypto::SearchTree::Entry> search_delta;
      bool has_delta = false;
      if (runtime_options_.enable_integrity && !reader.AtEnd()) {
        auto delta = protocol::ReadSearchEntries(&reader, ~0ull);
        if (!delta.ok()) return protocol::MakeErrorEnvelope(delta.status());
        search_delta = std::move(*delta);
        has_delta = true;
      }
      if (Status wal = LogMutation(request); !wal.ok()) {
        return protocol::MakeErrorEnvelope(wal);
      }
      Status status = AppendTuplesLocked(ToString(*name), *documents,
                                         has_delta ? &search_delta : nullptr);
      if (!status.ok()) return protocol::MakeErrorEnvelope(status);
      Envelope ok;
      ok.type = MessageType::kAppendOk;
      return ok;
    }
    case MessageType::kDeleteWhere: {
      ByteReader reader(request.payload);
      auto query = core::EncryptedQuery::ReadFrom(&reader);
      if (!query.ok()) return protocol::MakeErrorEnvelope(query.status());
      if (Status wal = LogMutation(request); !wal.ok()) {
        return protocol::MakeErrorEnvelope(wal);
      }
      const bool integrity = runtime_options_.enable_integrity;
      std::vector<std::pair<uint64_t, Bytes>> manifest;
      auto removed =
          DeleteWhereLocked(*query, integrity ? &manifest : nullptr, scratch);
      if (!removed.ok()) return protocol::MakeErrorEnvelope(removed.status());
      Envelope response;
      response.type = MessageType::kDeleteResult;
      AppendUint32(&response.payload, static_cast<uint32_t>(*removed));
      if (integrity) {
        // Delete manifest: the pre-delete (leaf position, document)
        // pairs, so the owner can check each removed row against its own
        // tree — hash AND trapdoor match — before mirroring the removal.
        AppendUint32(&response.payload,
                     static_cast<uint32_t>(manifest.size()));
        for (const auto& [position, doc_bytes] : manifest) {
          AppendUint64(&response.payload, position);
          AppendLengthPrefixed(&response.payload, doc_bytes);
        }
      }
      return response;
    }
    case MessageType::kAttestRoot: {
      ByteReader reader(request.payload);
      auto name = reader.ReadLengthPrefixed();
      if (!name.ok()) return protocol::MakeErrorEnvelope(name.status());
      auto epoch = reader.ReadUint64();
      if (!epoch.ok()) return protocol::MakeErrorEnvelope(epoch.status());
      auto root_bytes = reader.ReadRaw(32);
      if (!root_bytes.ok()) {
        return protocol::MakeErrorEnvelope(root_bytes.status());
      }
      auto root = crypto::MerkleTree::FromBytes(*root_bytes);
      if (!root.ok()) return protocol::MakeErrorEnvelope(root.status());
      auto signature = reader.ReadRaw(32);
      if (!signature.ok()) {
        return protocol::MakeErrorEnvelope(signature.status());
      }
      // Optional search-tree extension: (search_root 32B | search_sig
      // 32B). Old-style attestations stop after the row signature.
      crypto::MerkleTree::Hash search_root{};
      Bytes search_sig;
      bool has_search = false;
      if (!reader.AtEnd()) {
        auto sr_bytes = reader.ReadRaw(32);
        if (!sr_bytes.ok()) {
          return protocol::MakeErrorEnvelope(sr_bytes.status());
        }
        auto sr = crypto::MerkleTree::FromBytes(*sr_bytes);
        if (!sr.ok()) return protocol::MakeErrorEnvelope(sr.status());
        auto ss = reader.ReadRaw(32);
        if (!ss.ok()) return protocol::MakeErrorEnvelope(ss.status());
        search_root = *sr;
        search_sig = *ss;
        has_search = true;
      }
      if (!reader.AtEnd()) {
        return protocol::MakeErrorEnvelope(
            Status::DataLoss("trailing bytes after attestation"));
      }
      // Attested roots must survive restarts like the ciphertext they
      // bless: WAL-logged before applying, replayed on recovery.
      if (Status wal = LogMutation(request); !wal.ok()) {
        return protocol::MakeErrorEnvelope(wal);
      }
      Status status = AttestRootLocked(
          ToString(*name), *epoch, *root, *signature,
          has_search ? &search_root : nullptr,
          has_search ? &search_sig : nullptr);
      if (!status.ok()) return protocol::MakeErrorEnvelope(status);
      Envelope ok;
      ok.type = MessageType::kAttestOk;
      return ok;
    }
    default:
      return protocol::MakeErrorEnvelope(
          Status::InvalidArgument("unexpected message type"));
  }
}

// ---------------------------------------------------- read dispatch

protocol::Envelope UntrustedServer::DispatchRead(
    const protocol::Envelope& request, const ServerSnapshot& snap,
    RequestScratch* scratch) {
  using protocol::Envelope;
  using protocol::MessageType;
  switch (request.type) {
    case MessageType::kSelect: {
      ByteReader reader(request.payload);
      auto query = core::EncryptedQuery::ReadFrom(&reader);
      if (!query.ok()) return protocol::MakeErrorEnvelope(query.status());
      auto outcomes = SnapshotSelectBatch(snap, {*query}, scratch);
      return MakeSelectResponse(&outcomes[0], scratch);
    }
    case MessageType::kBatchRequest: {
      // Routing guarantees every part is a kSelect (mixed batches take
      // the locked path, which hands their legs here one by one); the
      // whole batch becomes one snapshot wave.
      auto parts = protocol::ParseBatchPayload(request.payload);
      if (!parts.ok()) return protocol::MakeErrorEnvelope(parts.status());
      std::vector<Envelope> responses(parts->size());
      std::vector<core::EncryptedQuery> wave;
      std::vector<size_t> wave_slots;
      wave.reserve(parts->size());
      wave_slots.reserve(parts->size());
      for (size_t i = 0; i < parts->size(); ++i) {
        ByteReader reader((*parts)[i].payload);
        auto query = core::EncryptedQuery::ReadFrom(&reader);
        if (!query.ok()) {
          responses[i] = protocol::MakeErrorEnvelope(query.status());
          continue;
        }
        wave.push_back(std::move(*query));
        wave_slots.push_back(i);
      }
      auto results = SnapshotSelectBatch(snap, wave, scratch);
      for (size_t k = 0; k < wave_slots.size(); ++k) {
        responses[wave_slots[k]] =
            MakeSelectResponse(&results[k], scratch);
      }
      Envelope response;
      response.type = MessageType::kBatchResponse;
      response.payload = protocol::SerializeBatchPayload(responses);
      return response;
    }
    case MessageType::kExplain: {
      // Plan-only: parses like kSelect, executes nothing, logs nothing
      // (no matches are computed, so there is no query observation — the
      // report is a function of state Eve already holds).
      ByteReader reader(request.payload);
      auto query = core::EncryptedQuery::ReadFrom(&reader);
      if (!query.ok()) return protocol::MakeErrorEnvelope(query.status());
      auto report = ExplainFromSnapshot(snap, *query);
      if (!report.ok()) return protocol::MakeErrorEnvelope(report.status());
      Envelope response;
      response.type = MessageType::kExplainResult;
      report->AppendTo(&response.payload);
      return response;
    }
    case MessageType::kFetchRelation: {
      const std::string name = ToString(request.payload);
      auto it = snap.relations.find(name);
      if (it == snap.relations.end()) {
        return protocol::MakeErrorEnvelope(
            Status::NotFound("relation '" + name + "' not stored"));
      }
      const RelationSnapshot& rel = *it->second;
      Envelope response;
      response.type = MessageType::kFetchResult;
      AppendUint32(&response.payload, static_cast<uint32_t>(rel.num_docs));
      for (const auto& chunk : rel.chunks) {
        // The chunks hold the documents in their serialized form —
        // appending them is byte-identical to re-serializing each one.
        response.payload.insert(response.payload.end(), chunk->bytes.begin(),
                                chunk->bytes.end());
      }
      if (rel.tree != nullptr) {
        // Whole-relation completeness proof: positions [0, n) — the
        // client verifies it received every leaf, in order.
        std::vector<uint64_t> all(rel.num_docs);
        for (size_t i = 0; i < all.size(); ++i) all[i] = i;
        protocol::ResultProof proof =
            BuildProofFromParts(*rel.tree, rel.epoch, rel.attested_epoch,
                                rel.root_signature, std::move(all));
        proof.AppendTo(&response.payload);
        if (rel.search != nullptr) {
          // Search-structure dump: the bootstrap source SyncIntegrity
          // rebuilds its mirror from, with the owner's signature when
          // the current epoch is attested.
          protocol::AppendSearchEntries(rel.search->entries(),
                                        &response.payload);
          AppendLengthPrefixed(&response.payload,
                               rel.attested_epoch == rel.epoch
                                   ? rel.search_signature
                                   : Bytes{});
        }
      }
      return response;
    }
    case MessageType::kStats: {
      // Keys-free live stats: everything in the snapshot is derived from
      // Eve's own observations (op counts, timings, sizes) — safe to
      // serve to anyone who can already reach the wire. Carries no
      // request payload by definition.
      if (!request.payload.empty()) {
        return protocol::MakeErrorEnvelope(
            Status::InvalidArgument("kStats carries no payload"));
      }
      RefreshGaugesFromSnapshot(snap);
      Envelope response;
      response.type = MessageType::kStatsResult;
      metrics_.Snapshot().AppendTo(&response.payload);
      return response;
    }
    case MessageType::kLeakageReport: {
      // The adversary's view of itself: salted tag digests, counts, and
      // derived rates only — never raw trapdoor or ciphertext bytes
      // (the auditor's redaction contract). Carries no request payload.
      if (!request.payload.empty()) {
        return protocol::MakeErrorEnvelope(
            Status::InvalidArgument("kLeakageReport carries no payload"));
      }
      if (auditor_ == nullptr) {
        return protocol::MakeErrorEnvelope(Status::FailedPrecondition(
            "leakage auditor disabled (--leakage=off)"));
      }
      Envelope response;
      response.type = MessageType::kLeakageReportResult;
      auditor_->Report().AppendTo(&response.payload);
      return response;
    }
    case MessageType::kPing: {
      // Keys-free health check: echo the client's cookie. Pings carry no
      // trapdoors and match nothing, so they are not query observations.
      Envelope pong;
      pong.type = MessageType::kPong;
      pong.payload = request.payload;
      return pong;
    }
    default:
      // Unreachable via IsSnapshotRead / IsReadType routing; fail like
      // Dispatch would.
      return protocol::MakeErrorEnvelope(
          Status::InvalidArgument("unexpected message type"));
  }
}

Bytes UntrustedServer::HandleReadRequest(const protocol::Envelope& envelope,
                                         uint64_t parse_micros) {
  const bool timed = runtime_options_.enable_metrics;
  std::shared_ptr<const ServerSnapshot> snap = PinSnapshot();
  if (!timed) return DispatchRead(envelope, *snap, nullptr).Serialize();

  using SteadyClock = Stopwatch::Clock;
  RequestScratch scratch;
  scratch.trace.op = OpSlug(envelope.type);
  scratch.trace.parse_micros = parse_micros;
  SteadyClock::time_point started = SteadyClock::now();
  protocol::Envelope response = DispatchRead(envelope, *snap, &scratch);
  SteadyClock::time_point handled = SteadyClock::now();
  Bytes wire = response.Serialize();
  SteadyClock::time_point serialized = SteadyClock::now();
  uint64_t handle_micros = MicrosBetween(started, handled);
  scratch.trace.serialize_micros = MicrosBetween(handled, serialized);
  // On the read path lock_wait (the observation-log mutex wait, recorded
  // by the select pipeline) is a sub-span of handle, so the total is
  // parse + handle + serialize — not lock_wait again.
  scratch.trace.total_micros = scratch.trace.parse_micros + handle_micros +
                               scratch.trace.serialize_micros;
  RecordRequestMetrics(scratch.trace, &scratch.cur, envelope.type,
                       response.type, handle_micros);
  return wire;
}

Bytes UntrustedServer::HandleRequest(const Bytes& request) {
  return HandleRequest(request, nullptr);
}

Bytes UntrustedServer::HandleRequest(const Bytes& request,
                                     const void* dispatcher) {
  const bool timed = runtime_options_.enable_metrics;
  // One timestamp per stage boundary, each closing one span and opening
  // the next (5 clock reads per request, not a Reset/Elapsed pair per
  // stage).
  using SteadyClock = Stopwatch::Clock;
  SteadyClock::time_point entered{};
  if (timed) entered = SteadyClock::now();
  auto envelope = protocol::Envelope::Parse(request);
  if (!envelope.ok()) {
    if (timed) ins_.errors->Add();
    return protocol::MakeErrorEnvelope(envelope.status()).Serialize();
  }
  SteadyClock::time_point parsed{};
  if (timed) parsed = SteadyClock::now();
  if (IsSnapshotRead(*envelope)) {
    // Snapshot reads take no exclusive resource, so they are exempt from
    // the exclusive-mutation-dispatcher assert and may arrive from any
    // thread (NetServer read workers, the metrics responder, tests).
    return HandleReadRequest(*envelope,
                             timed ? MicrosBetween(entered, parsed) : 0);
  }
#ifndef NDEBUG
  const void* bound = bound_dispatcher_.load(std::memory_order_acquire);
  assert((bound == nullptr || bound == dispatcher) &&
         "UntrustedServer has an exclusive MUTATION dispatcher bound (a "
         "running NetServer); direct mutating HandleRequest calls bypass "
         "the single-writer dispatch loop");
#else
  (void)dispatcher;
#endif
  // Single-writer mutation loop: concurrent mutators queue here; snapshot
  // reads never do. Storage, the relation map, and the Merkle trees are
  // only ever touched under this lock.
  RequestScratch scratch;
  scratch.holds_dispatch_lock = true;
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  if (!timed) {
    protocol::Envelope response = Dispatch(*envelope, &scratch);
    PublishDirtyLocked();
    return response.Serialize();
  }

  SteadyClock::time_point locked = SteadyClock::now();
  scratch.trace.op = OpSlug(envelope->type);
  scratch.trace.parse_micros = MicrosBetween(entered, parsed);
  const uint64_t lock_wait_micros = MicrosBetween(parsed, locked);
  protocol::Envelope response = Dispatch(*envelope, &scratch);
  // Publishing is part of the mutation's cost (and its handle span):
  // readers must see this request's effects the moment its response can
  // be on the wire.
  PublishDirtyLocked();
  SteadyClock::time_point handled = SteadyClock::now();
  Bytes wire = response.Serialize();
  SteadyClock::time_point serialized = SteadyClock::now();
  uint64_t handle_micros = MicrosBetween(locked, handled);
  scratch.trace.serialize_micros = MicrosBetween(handled, serialized);
  // A locked request's lock_wait is the dispatch-lock wait alone: its
  // select legs' observation-log waits are sub-spans of handle, so they
  // are not counted a second time.
  scratch.trace.lock_wait_micros = lock_wait_micros;
  scratch.trace.total_micros = scratch.trace.parse_micros + lock_wait_micros +
                               handle_micros + scratch.trace.serialize_micros;
  RecordRequestMetrics(scratch.trace, &scratch.cur, envelope->type,
                       response.type, handle_micros);
  return wire;
}

}  // namespace server
}  // namespace dbph
