#ifndef DBPH_SERVER_SNAPSHOT_H_
#define DBPH_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
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

/// \brief The byte cap of one sealed chunk. A chunk takes documents until
/// the next would push its buffer past this, so every offset into it fits
/// in 32 bits; a single document larger than the cap gets a chunk of its
/// own (and is rejected with DataLoss if even that would overflow).
inline constexpr size_t kChunkBytes = 64 * 1024;

/// \brief A sealed run of stored documents: the server's only copy of the
/// ciphertext. Immutable once built and shared by every relation state
/// that still holds all of its rows; an append rebuilds only the tail
/// chunk, a delete only the chunks that lost rows.
struct SealedChunk {
  /// The documents in their wire serialization, back to back. A trapdoor
  /// scan streams the word ciphertexts straight out of this buffer.
  Bytes bytes;
  /// Document i is bytes[doc_begin[i], doc_begin[i + 1]); size() + 1
  /// entries.
  std::vector<uint32_t> doc_begin;
  /// Row id of document i, ascending.
  std::vector<uint64_t> row_ids;
  /// One ref per word slot, offsets into `bytes`. Document i's slots are
  /// word_refs[word_first[i] .. word_first[i + 1]).
  std::vector<swp::WordRef> word_refs;
  std::vector<uint32_t> word_first;

  size_t size() const { return row_ids.size(); }
  std::span<const uint8_t> doc(size_t i) const {
    return std::span<const uint8_t>(bytes).subspan(
        doc_begin[i], doc_begin[i + 1] - doc_begin[i]);
  }
};

/// One document matched by a scan or a posting fetch, in storage order:
/// the leaf position (for the proof), the row id (for the observation
/// log), and the parsed document (for the response).
struct SnapshotMatch {
  uint64_t position = 0;
  uint64_t row_id = 0;
  swp::EncryptedDocument doc;
};

/// \brief One relation's whole state, immutable once it is installed: the
/// sealed document chunks, the trapdoor index, the Merkle row tree, the
/// authenticated search tree, and the epoch and owner signatures proofs
/// are built from. Every mutation builds a successor under the server's
/// dispatch lock, sharing each chunk, tree and index it does not change
/// and copying only what it does, and installs it only on success.
/// Publishing copies the map of these pointers, so readers pin the exact
/// committed state: a proof always describes the documents it came with.
///
/// Const methods are safe from any number of threads concurrently. The
/// mutators (AppendDocuments, RemovePositions) run only on a private
/// successor before it is installed.
///
/// Row ids are the server-visible identity of a ciphertext (what Eve
/// correlates across results): drawn from one server-wide counter, so an
/// id is never reused for another document within a process, and
/// ascending in storage order within a relation.
class RelationSnapshot {
 public:
  static constexpr uint64_t kNotFound = ~uint64_t{0};

  uint32_t check_length = 4;
  size_t num_docs = 0;
  std::vector<std::shared_ptr<const SealedChunk>> chunks;
  /// Global position of chunks[i]'s first document; parallel to chunks.
  std::vector<uint64_t> chunk_first;
  /// Total word slots across the relation: the match_evals count a full
  /// scan performs and EXPLAIN predicts.
  uint64_t word_slots = 0;
  /// The relation's trapdoor → posting-list memo, or null when the runtime
  /// option disables the index. Readers consult it only through the
  /// stats-free Peek; hit/miss accounting lives in server-level atomics.
  std::shared_ptr<const planner::TrapdoorIndex> index;
  /// Merkle tree over the documents in storage order (null when integrity
  /// is off), plus the epoch/attestation metadata proofs are built from.
  /// The tree is deterministic from the ciphertext, so restore and WAL
  /// replay rebuild the identical root.
  std::shared_ptr<const crypto::MerkleTree> tree;
  /// Mutation counter: 1 at store, +1 per append and per delete.
  uint64_t epoch = 0;
  /// The owner's HMAC over (name, attested_epoch, root); proofs carry it
  /// only while attested_epoch == epoch (a signature over an older state
  /// must not bless the current one).
  uint64_t attested_epoch = 0;
  Bytes root_signature;
  /// The owner's authenticated search structure (null when integrity is
  /// off): sorted (trapdoor-tag digest → posting-list digest) entries
  /// from the search-entry sections of store and append payloads, empty
  /// (vacuously consistent) when the client sent none. The proof source
  /// for CompletenessProofs; shares `epoch` with `tree`.
  std::shared_ptr<const crypto::SearchTree> search;
  /// The owner's signature over (relation, attested_epoch, search root);
  /// empty until attested, stale once epoch moves past attested_epoch
  /// (same rule as root_signature).
  Bytes search_signature;
  /// Server-wide stamp of the relation's DOCUMENT state (moves on
  /// store/append/delete-with-matches, not on index or attestation
  /// changes). Lets a reader's deferred scan-memoization prove its
  /// result still describes the current documents.
  uint64_t doc_generation = 0;

  /// Row id -> global leaf position; kNotFound when absent.
  uint64_t PositionOf(uint64_t row_id) const;

  /// The serialized document at global position `position` (< num_docs),
  /// a view into its chunk.
  std::span<const uint8_t> doc(uint64_t position) const;
  uint64_t row_id(uint64_t position) const;

  /// Parses the document at `position` straight from its chunk.
  Result<swp::EncryptedDocument> ParseDoc(uint64_t position) const;

  /// Index-path fetch: resolves a memoized posting list (row ids, storage
  /// order) to parsed documents + leaf positions. The index and the
  /// chunks belong to the same state, so every posting resolves by
  /// construction.
  Status FetchPostings(const std::vector<uint64_t>& postings,
                       std::vector<SnapshotMatch>* out) const;

  /// The scan fan-out for `num_shards` requested shards: at least one,
  /// and no more than there are documents. Scan splits into exactly
  /// this many ranges, and EXPLAIN reports it.
  size_t ScanShardCount(size_t num_shards) const;

  /// The full trapdoor scan, split into ScanShardCount(num_shards)
  /// balanced contiguous ranges whose matches concatenate in storage
  /// order, so the result does not depend on the shard count. `pool` null
  /// runs inline. Each shard batches PRF evaluations through one
  /// MatchContext over the chunks' word refs; only matching documents
  /// are parsed. `match_evals`, when non-null, accumulates the PRF
  /// evaluations performed (the per-query accounting the obs stack
  /// exports).
  Status Scan(const swp::Trapdoor& trapdoor, size_t num_shards,
              runtime::ThreadPool* pool, std::vector<SnapshotMatch>* out,
              uint64_t* match_evals = nullptr) const;

  /// The reference scalar sweep Scan must equal: parse every document
  /// and match every slot one word at a time. A test oracle (tests and
  /// bench_e6 --scan); the server never calls it.
  Status ScanReference(const swp::Trapdoor& trapdoor,
                       std::vector<SnapshotMatch>* out) const;

  /// Appends `docs` in order, with row ids drawn from `*next_row_id`:
  /// the tail chunk is rebuilt with as many as fit under kChunkBytes,
  /// the rest start new chunks. DataLoss (nothing changed) for a
  /// document too large for 32-bit offsets.
  Status AppendDocuments(const std::vector<swp::EncryptedDocument>& docs,
                         uint64_t* next_row_id);

  /// Removes the documents at `positions` (ascending, each < num_docs).
  /// Chunks that lose no rows are shared; chunks that lose every row are
  /// dropped.
  void RemovePositions(const std::vector<uint64_t>& positions);

 private:
  /// The chunk holding global position `position`.
  size_t ChunkAt(uint64_t position) const;
};

/// \brief The whole server's published state: one relation state per
/// name. Swapped wholesale (a map of shared_ptr copies) under the
/// dispatch lock; pinned by readers with one shared_ptr copy.
struct ServerSnapshot {
  std::map<std::string, std::shared_ptr<const RelationSnapshot>> relations;
};

}  // namespace server
}  // namespace dbph

#endif  // DBPH_SERVER_SNAPSHOT_H_
