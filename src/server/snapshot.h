#ifndef DBPH_SERVER_SNAPSHOT_H_
#define DBPH_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/merkle.h"
#include "crypto/search_tree.h"
#include "server/planner/trapdoor_index.h"
#include "server/runtime/thread_pool.h"
#include "swp/match_kernel.h"
#include "swp/search.h"

namespace dbph {
namespace server {

/// \brief Immutable published state for the server's one read path
/// (MVCC-style): mutations run under the server's single-writer
/// dispatch lock and, before acknowledging, publish a frozen copy of
/// each touched relation via one atomic shared_ptr swap. Readers pin the
/// current ServerSnapshot with a single acquire load and execute
/// entirely against it — no dispatch lock, no borrowed storage views —
/// so a racing append/delete can neither tear a result set nor splice a
/// stale Merkle root under a proof. Every trapdoor the server evaluates
/// is evaluated here: selects, EXPLAIN and fetches (top-level or legs of
/// a mixed batch, which publishes before each read leg) and the match
/// set of a delete.
///
/// Everything here is deep-frozen at publish time: document bytes are
/// OWNED copies (the heap file compacts pages in place, so borrowing
/// record ids across a mutation is unsound), the trapdoor index is a
/// value copy consulted only through its stats-free Peek, and the
/// Merkle tree/epoch/attestation triple is the proof source for exactly
/// the documents frozen beside it.

/// One stored ciphertext document frozen at publish time: its heap
/// identity (what Eve correlates across results) plus the serialized
/// bytes as stored — exactly what heap.Get returns.
struct SnapshotDoc {
  uint64_t rid_packed = 0;
  Bytes bytes;
};

/// A contiguous run of documents in storage order. Chunks are shared
/// between snapshot generations so an append publishes O(appended)
/// new state (old chunks + one new chunk) instead of recopying the
/// relation; deletes and stores rebuild a single chunk (they are O(n)
/// operations already).
struct SnapshotChunk {
  std::vector<SnapshotDoc> docs;
  /// rid.Pack() -> index into docs; built once by Seal().
  std::unordered_map<uint64_t, uint32_t> pos_in_chunk;

  // ---- scan-kernel arena (built once by Seal(); see docs/ARCHITECTURE
  // "The hot-scan kernel"). Every word ciphertext of every well-formed
  // document in this chunk, copied into ONE contiguous buffer so a
  // trapdoor scan streams linearly through word bytes instead of
  // pointer-chasing per-document heap allocations. ----

  /// All word ciphertexts back to back, in (document, slot) order.
  Bytes word_arena;
  /// One ref per word slot, offsets into word_arena. Document i's slots
  /// are the contiguous run word_refs[word_first[i] .. word_first[i+1]).
  std::vector<swp::WordRef> word_refs;
  /// Prefix offsets into word_refs; size docs.size() + 1.
  std::vector<uint32_t> word_first;
  /// Parallel to docs: 1 when CollectWordRefs succeeded (it fails on
  /// exactly the inputs EncryptedDocument::ReadFrom rejects). A scan
  /// hitting a 0 re-parses for the exact error status the scalar path
  /// would have returned.
  std::vector<uint8_t> doc_wellformed;
  /// False when the arena could not be built (offsets would overflow
  /// uint32); the scan falls back to the per-document scalar path.
  bool arena_built = false;

  void Seal();

  /// The arena size/ref-count ceiling Seal() enforces (normally the
  /// uint32 offset limit). Tests lower it to force the scalar-fallback
  /// branch without materializing 4 GiB of ciphertext; production code
  /// never calls this. Restore the default (0xffffffff) afterwards.
  static void SetArenaCapForTesting(uint64_t cap);
};

/// One document matched by a snapshot select, in storage order: the
/// global leaf position (for the proof), the record identity (for the
/// observation log), and the parsed document (for the response).
struct SnapshotMatch {
  uint64_t position = 0;
  uint64_t rid_packed = 0;
  swp::EncryptedDocument doc;
};

/// \brief One relation frozen at a publish point. Everything is
/// immutable after construction; const methods are safe from any
/// number of threads concurrently.
class RelationSnapshot {
 public:
  static constexpr uint64_t kNotFound = ~uint64_t{0};

  uint32_t check_length = 4;
  size_t num_docs = 0;
  std::vector<std::shared_ptr<const SnapshotChunk>> chunks;
  /// Global position of chunks[i].docs[0]; parallel to chunks.
  std::vector<uint64_t> chunk_first;
  /// Frozen copy of the relation's trapdoor index at publish time, or
  /// null when the runtime option disables the index. Readers consult
  /// it only through Peek; hit/miss accounting lives in server-level
  /// atomics so the frozen copy stays truly immutable.
  std::shared_ptr<const planner::TrapdoorIndex> index;
  /// Frozen Merkle tree (null when integrity is off) plus the epoch /
  /// attestation metadata proofs are built from. Pinning these with
  /// the documents is what makes a reader's ResultProof consistent
  /// under racing mutations: the proof's epoch and root always match
  /// the documents it covers.
  std::shared_ptr<const crypto::MerkleTree> tree;
  uint64_t epoch = 0;
  uint64_t attested_epoch = 0;
  Bytes root_signature;
  /// Frozen authenticated search structure (null when integrity is
  /// off): the proof source for CompletenessProofs, pinned with the
  /// documents and the row tree so a reader's completeness evidence
  /// always describes the exact state its results came from.
  std::shared_ptr<const crypto::SearchTree> search;
  /// The owner's signature over (relation, attested_epoch, search
  /// root); empty until attested, stale once epoch moves past
  /// attested_epoch (same rule as root_signature).
  Bytes search_signature;
  /// Server-wide generation stamp of the relation's DOCUMENT state
  /// (bumps on store/append/delete-with-matches, not on index or
  /// attestation changes). Lets a reader's deferred scan-memoization
  /// prove its result still describes the live documents.
  uint64_t doc_generation = 0;
  /// Total word slots across the relation (copied from the live
  /// relation at publish) — the match_evals count a full scan performs
  /// and EXPLAIN predicts.
  uint64_t word_slots = 0;
  /// Whether Scan runs through the batched match kernel over the chunk
  /// arenas (ServerRuntimeOptions::enable_scan_kernel at publish time).
  /// Either way results, proofs, and observation entries are
  /// byte-identical; this is purely an A/B performance switch.
  bool use_scan_kernel = true;

  /// rid.Pack() -> global leaf position; kNotFound when absent.
  uint64_t PositionOf(uint64_t rid_packed) const;

  /// The frozen document at global position `position` (< num_docs).
  const SnapshotDoc& doc(uint64_t position) const;

  /// Parses the frozen bytes at `position`.
  Result<swp::EncryptedDocument> ParseDoc(uint64_t position) const;

  /// Index-path fetch: resolves a memoized posting list (packed record
  /// ids, storage order) to parsed documents + leaf positions. The
  /// frozen index and frozen documents were copied in the same
  /// critical section, so every posting resolves by construction.
  Status FetchPostings(const std::vector<uint64_t>& postings,
                       std::vector<SnapshotMatch>* out) const;

  /// The scan fan-out for `num_shards` requested shards: at least one,
  /// and no more than there are documents. Scan splits into exactly
  /// this many ranges, and EXPLAIN reports it.
  size_t ScanShardCount(size_t num_shards) const;

  /// Scan-path execution: the full trapdoor scan over the frozen
  /// documents, split into ScanShardCount(num_shards) balanced
  /// contiguous ranges whose matches concatenate in storage order, so
  /// the result does not depend on the shard count. `pool` null runs
  /// inline. When use_scan_kernel is set the scan batches PRF
  /// evaluations through one MatchContext per shard over the chunk
  /// arenas — results are bit-identical to the scalar path, only faster.
  /// `match_evals`, when non-null, accumulates the PRF evaluations the
  /// kernel performed (the per-query accounting the obs stack exports).
  Status Scan(const swp::Trapdoor& trapdoor, size_t num_shards,
              runtime::ThreadPool* pool, std::vector<SnapshotMatch>* out,
              uint64_t* match_evals = nullptr) const;
};

/// \brief The whole server's published state: one frozen relation per
/// name. Swapped wholesale (the map is small — shared_ptr copies) under
/// the dispatch lock; loaded with one atomic acquire by readers.
struct ServerSnapshot {
  std::map<std::string, std::shared_ptr<const RelationSnapshot>> relations;
};

}  // namespace server
}  // namespace dbph

#endif  // DBPH_SERVER_SNAPSHOT_H_
