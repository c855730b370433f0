#ifndef DBPH_CRYPTO_SEARCH_TREE_H_
#define DBPH_CRYPTO_SEARCH_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/merkle.h"

namespace dbph {
namespace crypto {

/// \brief The authenticated *search* structure (AuthPDB-style): a Merkle
/// tree over the relation's trapdoor tags in sorted order, each leaf
/// committing one (tag digest, posting-list digest) pair.
///
/// The row tree (MerkleTree over document leaves) authenticates what a
/// query RETURNS; this tree authenticates what a query SHOULD return.
/// The data owner — the only party who can enumerate which trapdoors its
/// plaintext contains — computes the (tag → leaf positions) map at
/// upload/append time and both sides maintain identical copies: the
/// server so it can attach membership / non-membership proofs to every
/// select, the owner-side client so it can verify them against its own
/// root. Deletes need no extra wire data: both sides apply the same
/// deterministic transform to the posting lists from the (already
/// verified) delete manifest positions.
///
/// Sortedness by tag is what makes zero-result answers provable: for an
/// absent tag the server shows the two adjacent committed entries that
/// bracket it (or the single boundary entry, or nothing for an empty
/// tree), and the verifier checks adjacency plus strict ordering — no
/// gap can hide a committed posting list. Sorted order is an invariant
/// every mutator preserves and Assign() validates, so a client that
/// bootstraps from a signed dump (SyncIntegrity) re-checks it once and
/// can then trust adjacency forever.
///
/// Complexity: a mutator recomputes the leaf of each entry whose posting
/// list changed (one PostingDigest, then EntryLeaf 16 at a time) and
/// rehashes the interior from the first entry that changed or moved;
/// every other entry keeps its cached leaf. A new tag or an emptied
/// entry moves every entry after it, and a delete changes every list
/// holding a position above the lowest removed one (they shift down),
/// so a mutation still costs O(#tags) node hashes in the worst case.
/// Select-path proofs cost O(log #tags) each.
class SearchTree {
 public:
  using Hash = MerkleTree::Hash;

  /// One committed entry: the tag digest and the full posting list
  /// (row-tree leaf positions, strictly increasing). The full list is
  /// kept on both sides — the server serves it in membership proofs and
  /// bootstrap dumps, the client checks returned results against it and
  /// both transform it through deletes.
  struct Entry {
    Hash tag{};
    std::vector<uint64_t> positions;

    bool operator==(const Entry& other) const = default;
  };

  /// One proved boundary entry of a non-membership proof.
  struct Neighbor {
    uint64_t index = 0;
    Hash tag{};
    Hash posting_digest{};
    std::vector<Hash> path;

    bool operator==(const Neighbor& other) const = default;
  };

  /// The tag digest of a serialized trapdoor (domain-separated SHA-256).
  /// Trapdoors are deterministic per (relation, attribute, value), so
  /// the digest the owner computes at upload time equals the digest the
  /// server computes from a query's wire bytes.
  static Hash TagDigest(const Bytes& trapdoor_bytes);

  /// Commitment to a posting list: SHA-256 over a domain prefix, the
  /// count, and each position.
  static Hash PostingDigest(const std::vector<uint64_t>& positions);

  /// The Merkle leaf committing one entry: LeafHash(tag | posting_digest).
  static Hash EntryLeaf(const Hash& tag, const Hash& posting_digest);

  SearchTree() = default;

  /// Replaces the whole structure. Validates what a hostile source could
  /// get wrong: tags strictly increasing, every posting list non-empty
  /// and strictly increasing with positions < `num_positions`.
  Status Assign(std::vector<Entry> entries, uint64_t num_positions);

  /// Applies an append delta: `delta` holds the new (tag → positions)
  /// pairs contributed by rows appended at leaf positions
  /// [begin_position, end_position), merged into the existing entries.
  /// Validates the delta fully before mutating anything (all-or-nothing).
  Status ApplyAppendDelta(const std::vector<Entry>& delta,
                          uint64_t begin_position, uint64_t end_position);

  /// The deterministic delete transform both sides apply from the
  /// verified delete-manifest positions (strictly increasing): deleted
  /// positions leave every posting list, surviving positions shift down
  /// by the number of deletions below them, entries with emptied lists
  /// are dropped. No-op for an empty removal.
  void ApplyDelete(const std::vector<uint64_t>& removed_positions);

  void Clear();

  size_t size() const { return entries_.size(); }
  const Entry& entry(size_t index) const { return entries_[index]; }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Index of the first entry with tag >= `tag`; size() when none.
  size_t LowerBound(const Hash& tag) const;

  /// The entry committed for `tag`, or nullptr when absent.
  const Entry* Find(const Hash& tag) const;

  Hash Root() const { return tree_.Root(); }

  /// Sibling path proving entry `index` (< size()) against Root().
  std::vector<Hash> MembershipPath(size_t index) const;

  /// The boundary entries proving `tag` is NOT committed: the two
  /// adjacent entries bracketing it, one boundary entry when the tag
  /// sorts before the first / after the last, none for an empty tree.
  /// Returns an (unverifiable) empty set when the tag is present.
  std::vector<Neighbor> NonMembershipProof(const Hash& tag) const;

  /// Verifies one committed entry against a trusted root.
  static Status VerifyMember(const Hash& root, uint64_t tree_size,
                             uint64_t index, const Hash& tag,
                             const Hash& posting_digest,
                             const std::vector<Hash>& path);

  /// Verifies that `tag` is absent from the committed sorted sequence:
  /// every neighbor's inclusion path must fold into `root` and the
  /// neighbor indices/tags must bracket `tag` with strict ordering and
  /// exact adjacency. Fails closed on any other shape — in particular
  /// for a tag that IS committed, no neighbor set can satisfy both
  /// adjacency and strict ordering.
  static Status VerifyNonMember(const Hash& root, uint64_t tree_size,
                                const Hash& tag,
                                const std::vector<Neighbor>& neighbors);

 private:
  /// Installs `leaves` as the tree's leaf sequence after computing the
  /// entries at `changed` (ascending) from entries_; the tree rehashes
  /// its interior from `first_changed` on.
  void Rehash(std::vector<Hash> leaves, const std::vector<size_t>& changed,
              size_t first_changed);

  /// Sorted by tag, strictly increasing; positions_ strictly increasing
  /// within each entry.
  std::vector<Entry> entries_;
  /// Derived: leaf i = EntryLeaf(entries_[i]), kept across mutations for
  /// every entry whose posting list did not change.
  MerkleTree tree_;
};

}  // namespace crypto
}  // namespace dbph

#endif  // DBPH_CRYPTO_SEARCH_TREE_H_
