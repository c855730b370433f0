#ifndef DBPH_CRYPTO_MERKLE_H_
#define DBPH_CRYPTO_MERKLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"

namespace dbph {
namespace crypto {

/// \brief SHA-256 Merkle tree over an ordered leaf sequence, in the
/// RFC 6962 style: leaf and interior hashes live in separate domains
/// (SHA-256(0x00 | data) vs SHA-256(0x01 | left | right)), so an interior
/// node can never be replayed as a leaf (the classic second-preimage
/// trick against domain-free trees).
///
/// Shape: level 0 holds the leaf hashes; each higher level pairs
/// neighbours left-to-right, and an unpaired rightmost node is promoted
/// unchanged (no self-pairing — duplicating the odd node, Bitcoin-style,
/// admits distinct leaf sequences with equal roots). The tree of n leaves
/// therefore has a unique root per (n, leaf sequence), and the root of
/// the empty tree is the defined constant EmptyRoot() = SHA-256("").
///
/// All interior levels are cached, so Root() is O(1) and proof
/// generation collects existing node hashes without rehashing anything.
/// Every mutator ends in one interior rehash (RehashFrom) from the first
/// changed leaf to the right edge, 16 nodes per batched compression
/// call: AppendLeaf and removing trailing leaves cost O(log n) hashes,
/// removing or replacing leaf i about n - i.
///
/// Proofs:
///  - InclusionProof(i): the classic sibling path for one leaf.
///  - SubsetProof(positions): one proof for a whole result set — the
///    hashes of every maximal subtree containing no selected position,
///    in deterministic pre-order. Verification folds the claimed leaf
///    hashes and the proof back into a root; because the proof covers
///    the entire tree, the claimed positions are bound collectively:
///    removing, reordering, or substituting any claimed leaf changes the
///    recomputed root. A contiguous positions range [i, j) doubles as a
///    completeness proof for that range: the verifier learns these are
///    ALL the leaves between i and j. positions = [0, n) degenerates to
///    a full rebuild with an empty proof — the whole-relation
///    completeness check Recall uses.
class MerkleTree {
 public:
  using Hash = std::array<uint8_t, 32>;

  /// The one-byte prefix that separates leaf from interior hashes.
  enum class Domain : uint8_t { kLeaf = 0x00, kNode = 0x01 };

  /// SHA-256(""): the root of a tree with no leaves.
  static Hash EmptyRoot();
  /// Leaf domain: SHA-256(0x00 | data).
  static Hash LeafHash(const Bytes& data);
  static Hash LeafHash(const uint8_t* data, size_t len);
  /// A hasher that has absorbed the leaf domain byte: stream a leaf's
  /// bytes into it and FinishInto a Hash for LeafHash(bytes), without
  /// materializing them.
  static Sha256 LeafHasher();
  /// Interior domain: SHA-256(0x01 | left | right).
  static Hash NodeHash(const Hash& left, const Hash& right);

  /// \brief The batched 65-byte hash: out[i] = SHA-256(domain |
  /// pairs[2i] | pairs[2i+1]) for i < n, so Domain::kNode gives n
  /// NodeHash results and Domain::kLeaf n LeafHash(left | right) results.
  /// Such a message is exactly two blocks, the second constant except
  /// its first byte; both go through Sha256CompressMany
  /// kSha256BatchLanes messages at a time. No heap.
  static void HashPairs(Domain domain, const Hash* pairs, size_t n,
                        Hash* out);

  MerkleTree() = default;

  /// Builds the whole tree from `leaves` (already leaf-hashed).
  void Assign(std::vector<Hash> leaves) {
    ReplaceLeaves(std::move(leaves), 0);
  }

  /// \brief Replaces the leaf sequence with `leaves`, whose first
  /// `first_changed` hashes must equal the current leaves at those
  /// indices (the caller's promise, asserted in debug builds). Only
  /// nodes covering a leaf at or after `first_changed` are rehashed.
  void ReplaceLeaves(std::vector<Hash> leaves, size_t first_changed);

  /// Appends one leaf hash; only the right spine is rehashed.
  void AppendLeaf(const Hash& leaf);

  /// Removes the leaves at `positions` (strictly increasing, in range).
  /// Survivors before positions.front() keep their place and their
  /// subtrees; the interior is rehashed from there on, so removing the
  /// last leaves costs O(log n).
  void RemoveSorted(const std::vector<uint64_t>& positions);

  void Clear();

  size_t size() const { return levels_.empty() ? 0 : levels_[0].size(); }
  const Hash& leaf(size_t index) const { return levels_[0][index]; }
  Hash Root() const;

  /// Sibling path for leaf `index` (bottom-up). index must be < size().
  std::vector<Hash> InclusionProof(size_t index) const;

  /// Verifies a sibling path against a root for a tree of `tree_size`
  /// leaves. Fails closed on any mismatch, including a path of the wrong
  /// length for (tree_size, index).
  static Status VerifyInclusion(const Hash& root, uint64_t tree_size,
                                uint64_t index, const Hash& leaf,
                                const std::vector<Hash>& path);

  /// One proof for the whole selected set: hashes of every maximal
  /// unselected subtree, pre-order. `positions` must be strictly
  /// increasing and < size(). An empty selection proves only the root
  /// (the proof is {Root()}).
  std::vector<Hash> SubsetProof(const std::vector<uint64_t>& positions) const;

  /// Recomputes the root of a `tree_size`-leaf tree from the selected
  /// leaves and a SubsetProof. `positions` must be strictly increasing
  /// and < tree_size, with one entry of `leaves` per position. Errors on
  /// a malformed selection or a proof with missing or surplus hashes —
  /// the caller compares the returned root against the trusted one.
  /// Work is O((|positions| + |proof|) * log(tree_size)) regardless of
  /// the (attacker-supplied) tree_size — no allocation scales with it.
  static Result<Hash> RootFromSubset(uint64_t tree_size,
                                     const std::vector<uint64_t>& positions,
                                     const std::vector<Hash>& leaves,
                                     const std::vector<Hash>& proof);

  static Bytes ToBytes(const Hash& hash) {
    return Bytes(hash.begin(), hash.end());
  }
  static Result<Hash> FromBytes(const Bytes& bytes);

 private:
  /// levels_[0] = leaves, levels_.back() = {root} (absent when empty).
  std::vector<std::vector<Hash>> levels_;

  /// The one interior rehash: with levels_[0] final, recomputes every
  /// node that covers a leaf at or after `first` (each node before it
  /// keeps its cached hash) and drops levels above the new root.
  void RehashFrom(size_t first);
};

}  // namespace crypto
}  // namespace dbph

#endif  // DBPH_CRYPTO_MERKLE_H_
