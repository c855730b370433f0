#ifndef DBPH_SERVER_SNAPSHOT_H_
#define DBPH_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/merkle.h"
#include "crypto/search_tree.h"
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

/// \brief A relation's trapdoor memo: answers that selects already
/// computed, so a repeated trapdoor fetches its rows instead of scanning.
///
/// Each entry is one select's answer, {trapdoor bytes, matched row ids,
/// watermark}, and never changes once built. The watermark is one past
/// the last row id of the state the answer was computed on (0 for an
/// empty one). Row ids ascend in storage order and are never reused, so
/// every row of a later state of the relation that lies below the
/// watermark was in that state, and matches iff the entry lists it:
/// RelationSnapshot::ScanFromMemo serves a hit from the entry's rows
/// that are still stored plus a Scan of the rows at or above the
/// watermark. Appends and deletes therefore never touch the index; an
/// entry stays exact for every later state, including one it is
/// installed into after a drop and re-store of its relation.
///
/// Leakage: an entry holds what a select already revealed (the trapdoor,
/// the row ids it matched) and nothing else; the server evaluates a
/// trapdoor only for a select or delete that carries it.
///
/// Immutable once installed: a memoize builds a successor that copies
/// the entry pointers and shares every entry but the one it adds.
class TrapdoorIndex {
 public:
  struct Entry {
    /// The trapdoor's wire serialization, the lookup key.
    Bytes trapdoor_bytes;
    /// The row ids it matched, ascending.
    std::vector<uint64_t> row_ids;
    /// One past the last row id of the scanned state; 0 for an empty one.
    uint64_t watermark = 0;
  };

  /// `max_trapdoors` caps the entries held (0 = unlimited). It bounds
  /// memory only: at capacity a new trapdoor keeps scanning, while held
  /// entries keep serving and refreshing.
  explicit TrapdoorIndex(size_t max_trapdoors = 0)
      : max_trapdoors_(max_trapdoors) {}

  /// The entry for `trapdoor_bytes`, or null.
  const Entry* Find(const Bytes& trapdoor_bytes) const;

  /// The successor holding `entry`, or null when it would change
  /// nothing: the trapdoor's entry is at least as fresh (a higher
  /// watermark, or the same one with no more rows), or the trapdoor is
  /// new and the index is at capacity. Shares every other entry.
  std::shared_ptr<const TrapdoorIndex> With(
      std::shared_ptr<const Entry> entry) const;

  bool AtCapacity() const {
    return max_trapdoors_ > 0 && entries_.size() >= max_trapdoors_;
  }
  size_t num_trapdoors() const { return entries_.size(); }
  /// Row ids held across all entries (deleted rows included until a
  /// refresh drops them).
  size_t num_postings() const { return num_postings_; }
  /// Entries installed since the relation was stored, refreshes included.
  uint64_t memoized() const { return memoized_; }
  /// Every entry, sorted by trapdoor bytes.
  const std::vector<std::shared_ptr<const Entry>>& entries() const {
    return entries_;
  }

 private:
  /// The first entry whose trapdoor bytes are not below `trapdoor_bytes`.
  std::vector<std::shared_ptr<const Entry>>::const_iterator LowerBound(
      const Bytes& trapdoor_bytes) const;

  size_t max_trapdoors_;
  std::vector<std::shared_ptr<const Entry>> entries_;
  size_t num_postings_ = 0;
  uint64_t memoized_ = 0;
};

/// One document matched by a scan or a memo hit, in storage order:
/// the leaf position (for the proof), the row id (for the observation
/// log), and the parsed document (for the response).
struct SnapshotMatch {
  uint64_t position = 0;
  uint64_t row_id = 0;
  swp::EncryptedDocument doc;
};

/// \brief One relation's whole state, immutable once it is installed: the
/// sealed document chunks, the trapdoor memo, the Merkle row tree, the
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
  /// The relation's trapdoor memo, or null when the runtime option
  /// disables it. Shared unchanged by every mutation's successor.
  std::shared_ptr<const TrapdoorIndex> index;
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

  /// Row id -> global leaf position; kNotFound when absent.
  uint64_t PositionOf(uint64_t row_id) const;

  /// The serialized document at global position `position` (< num_docs),
  /// a view into its chunk.
  std::span<const uint8_t> doc(uint64_t position) const;
  uint64_t row_id(uint64_t position) const;

  /// Parses the document at `position` straight from its chunk.
  Result<swp::EncryptedDocument> ParseDoc(uint64_t position) const;

  /// One past the last stored row id; 0 when empty. A memo entry computed
  /// on this state covers every row id below it.
  uint64_t Watermark() const;

  /// How many of `entry`'s rows this state still stores.
  uint64_t LiveRows(const TrapdoorIndex::Entry& entry) const;

  /// The word slots of the rows whose id is at least `row_id`: the
  /// match_evals of a memo hit with that watermark.
  uint64_t WordSlotsFrom(uint64_t row_id) const;

  /// The scan fan-out for `num_shards` requested shards: at least one,
  /// and no more than there are documents. A full Scan splits into
  /// exactly this many ranges (a tail scan into no more than it has
  /// documents), and EXPLAIN reports it.
  size_t ScanShardCount(size_t num_shards) const;

  /// The trapdoor scan of positions [first, num_docs) (a full scan passes
  /// 0), split into at most ScanShardCount(num_shards) balanced
  /// contiguous ranges whose matches append to `out` in storage order,
  /// so the result does not depend on the shard count. `pool` null runs
  /// inline. Each shard batches PRF evaluations through one MatchContext
  /// over the chunks' word refs; only matching documents are parsed.
  /// `match_evals`, when non-null, accumulates the PRF evaluations
  /// performed (the per-query accounting the obs stack exports).
  Status Scan(const swp::Trapdoor& trapdoor, uint64_t first,
              size_t num_shards, runtime::ThreadPool* pool,
              std::vector<SnapshotMatch>* out,
              uint64_t* match_evals = nullptr) const;

  /// A memo hit: `entry`'s rows that this state still stores, then Scan
  /// over the positions whose row id is at or above its watermark, in
  /// storage order. Equals a full Scan for an entry memoized on this
  /// state or an earlier one of its relation (see TrapdoorIndex).
  /// `*refresh` tells whether the answer differs from the entry (a row
  /// was scanned or a memoized row is gone), so memoizing it saves work.
  Status ScanFromMemo(const TrapdoorIndex::Entry& entry,
                      const swp::Trapdoor& trapdoor, size_t num_shards,
                      runtime::ThreadPool* pool,
                      std::vector<SnapshotMatch>* out, uint64_t* match_evals,
                      bool* refresh) const;

  /// This state with `matches` memoized for `trapdoor_bytes`, or null
  /// when the index is off or would not change. `matches` is the answer
  /// the trapdoor got on `scanned`: this state, an earlier one, or one of
  /// a relation this one replaced. The entry's watermark comes from
  /// `scanned` (raised to that of the entry `scanned` served it from).
  std::shared_ptr<RelationSnapshot> WithMemo(
      const RelationSnapshot& scanned, const Bytes& trapdoor_bytes,
      const std::vector<SnapshotMatch>& matches) const;

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
  /// The (chunk, index in it) of the first row whose id is at least
  /// `row_id`; (chunks.size(), 0) when there is none.
  std::pair<size_t, size_t> Locate(uint64_t row_id) const;
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
