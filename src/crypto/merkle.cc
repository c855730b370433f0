#include "crypto/merkle.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/sha256.h"

namespace dbph {
namespace crypto {

MerkleTree::Hash MerkleTree::EmptyRoot() {
  Sha256 sha;
  Hash hash;
  sha.FinishInto(hash.data());
  return hash;
}

MerkleTree::Hash MerkleTree::LeafHash(const Bytes& data) {
  return LeafHash(data.data(), data.size());
}

MerkleTree::Hash MerkleTree::LeafHash(const uint8_t* data, size_t len) {
  Sha256 sha = LeafHasher();
  sha.Update(data, len);
  Hash hash;
  sha.FinishInto(hash.data());
  return hash;
}

Sha256 MerkleTree::LeafHasher() {
  Sha256 sha;
  const uint8_t domain = static_cast<uint8_t>(Domain::kLeaf);
  sha.Update(&domain, 1);
  return sha;
}

MerkleTree::Hash MerkleTree::NodeHash(const Hash& left, const Hash& right) {
  Sha256 sha;
  const uint8_t domain = static_cast<uint8_t>(Domain::kNode);
  sha.Update(&domain, 1);
  sha.Update(left.data(), left.size());
  sha.Update(right.data(), right.size());
  Hash hash;
  sha.FinishInto(hash.data());
  return hash;
}

void MerkleTree::HashPairs(Domain domain, const Hash* pairs, size_t n,
                           Hash* out) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  constexpr size_t kLanes = kSha256BatchLanes;
  // Message i is domain | pairs[2i] | pairs[2i+1]: 65 bytes. Block one
  // holds the domain byte and the first 63 bytes of the pair; block two
  // the pair's last byte, 0x80, zeros and the bit length 65 * 8 = 0x208.
  uint8_t first[kLanes][kBlock];
  uint8_t second[kLanes][kBlock] = {};
  for (size_t l = 0; l < kLanes; ++l) {
    first[l][0] = static_cast<uint8_t>(domain);
    second[l][1] = 0x80;
    second[l][kBlock - 2] = 0x02;
    second[l][kBlock - 1] = 0x08;
  }
  Sha256State states[kLanes];
  const uint8_t* blocks[kLanes];
  for (size_t base = 0; base < n; base += kLanes) {
    const size_t lanes = std::min(kLanes, n - base);
    for (size_t l = 0; l < lanes; ++l) {
      const uint8_t* left = pairs[2 * (base + l)].data();
      const uint8_t* right = pairs[2 * (base + l) + 1].data();
      std::memcpy(first[l] + 1, left, 32);
      std::memcpy(first[l] + 33, right, 31);
      second[l][0] = right[31];
      states[l] = Sha256InitialState();
      blocks[l] = first[l];
    }
    Sha256CompressMany(states, blocks, lanes);
    for (size_t l = 0; l < lanes; ++l) blocks[l] = second[l];
    Sha256CompressMany(states, blocks, lanes);
    for (size_t l = 0; l < lanes; ++l) {
      Sha256::StoreDigest(states[l], out[base + l].data());
    }
  }
}

void MerkleTree::ReplaceLeaves(std::vector<Hash> leaves,
                               size_t first_changed) {
  // Only leaves the old tree had can keep their subtrees.
  first_changed = std::min({first_changed, size(), leaves.size()});
  assert(std::equal(leaves.begin(), leaves.begin() + first_changed,
                    levels_.empty() ? leaves.begin() : levels_[0].begin()));
  if (levels_.empty()) levels_.emplace_back();
  levels_[0] = std::move(leaves);
  RehashFrom(first_changed);
}

void MerkleTree::AppendLeaf(const Hash& leaf) {
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].push_back(leaf);
  RehashFrom(levels_[0].size() - 1);
}

void MerkleTree::RemoveSorted(const std::vector<uint64_t>& positions) {
  if (positions.empty() || levels_.empty()) return;
  // Close the gaps in place: the leaves before positions.front() stay.
  std::vector<Hash>& leaves = levels_[0];
  const size_t first = std::min<uint64_t>(positions.front(), leaves.size());
  size_t kept = first;
  size_t next = 0;
  for (size_t i = first; i < leaves.size(); ++i) {
    if (next < positions.size() && positions[next] == i) {
      ++next;
      continue;
    }
    leaves[kept++] = leaves[i];
  }
  leaves.resize(kept);
  RehashFrom(first);
}

void MerkleTree::RehashFrom(size_t first) {
  for (size_t level = 0;; ++level) {
    const size_t width = levels_[level].size();
    if (width <= 1) {
      levels_.resize(width == 0 ? 0 : level + 1);
      return;
    }
    if (level + 1 == levels_.size()) levels_.emplace_back();
    const std::vector<Hash>& below = levels_[level];
    std::vector<Hash>& above = levels_[level + 1];
    above.resize((width + 1) / 2);
    // Parent p covers nodes 2p and 2p + 1: the first one to redo is the
    // parent of `first`.
    const size_t parent = first / 2;
    const size_t pairs = width / 2;
    if (parent < pairs) {
      HashPairs(Domain::kNode, &below[2 * parent], pairs - parent,
                &above[parent]);
    }
    if (width % 2 == 1) above.back() = below.back();  // promote
    first = parent;
  }
}

void MerkleTree::Clear() { levels_.clear(); }

MerkleTree::Hash MerkleTree::Root() const {
  if (levels_.empty()) return EmptyRoot();
  return levels_.back()[0];
}

std::vector<MerkleTree::Hash> MerkleTree::InclusionProof(size_t index) const {
  std::vector<Hash> path;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    size_t sibling = index ^ 1;
    // A promoted (unpaired) node contributes no sibling hash; the
    // verifier reconstructs the same skip from (tree_size, index).
    if (sibling < levels_[level].size()) path.push_back(levels_[level][sibling]);
    index /= 2;
  }
  return path;
}

Status MerkleTree::VerifyInclusion(const Hash& root, uint64_t tree_size,
                                   uint64_t index, const Hash& leaf,
                                   const std::vector<Hash>& path) {
  if (index >= tree_size) {
    return Status::InvalidArgument("merkle: index outside tree");
  }
  Hash node = leaf;
  uint64_t width = tree_size;
  size_t used = 0;
  while (width > 1) {
    uint64_t sibling = index ^ 1;
    if (sibling < width) {
      if (used >= path.size()) {
        return Status::DataLoss("merkle: inclusion path too short");
      }
      node = (index % 2 == 1) ? NodeHash(path[used], node)
                              : NodeHash(node, path[used]);
      ++used;
    }
    index /= 2;
    width = (width + 1) / 2;
  }
  if (used != path.size()) {
    return Status::DataLoss("merkle: inclusion path has surplus hashes");
  }
  if (node != root) return Status::DataLoss("merkle: root mismatch");
  return Status::OK();
}

namespace {

/// Shared recursion shape for subset proofs: visits the implicit node
/// (level, idx) of a `counts[level]`-wide level, with the selected
/// positions inside its range given as [begin, end) into the sorted
/// positions array.
struct SubsetProver {
  const std::vector<std::vector<MerkleTree::Hash>>* levels;
  std::vector<MerkleTree::Hash>* out;

  void Visit(size_t level, size_t idx, const uint64_t* begin,
             const uint64_t* end) {
    if (begin == end) {
      out->push_back((*levels)[level][idx]);
      return;
    }
    if (level == 0) return;  // a selected leaf — the verifier supplies it
    uint64_t mid = static_cast<uint64_t>(2 * idx + 1) << (level - 1);
    const uint64_t* split = std::lower_bound(begin, end, mid);
    Visit(level - 1, 2 * idx, begin, split);
    if (2 * idx + 1 < (*levels)[level - 1].size()) {
      Visit(level - 1, 2 * idx + 1, split, end);
    }
  }
};

struct SubsetVerifier {
  const std::vector<uint64_t>* counts;  // level widths, bottom-up
  const std::vector<MerkleTree::Hash>* leaves;
  const std::vector<MerkleTree::Hash>* proof;
  size_t next_leaf = 0;
  size_t next_proof = 0;
  bool failed = false;

  MerkleTree::Hash Visit(size_t level, size_t idx, const uint64_t* begin,
                         const uint64_t* end) {
    if (failed) return {};
    if (begin == end) {
      if (next_proof >= proof->size()) {
        failed = true;
        return {};
      }
      return (*proof)[next_proof++];
    }
    if (level == 0) {
      // Exactly one selected position covers a leaf node.
      if (end - begin != 1 || next_leaf >= leaves->size()) {
        failed = true;
        return {};
      }
      return (*leaves)[next_leaf++];
    }
    uint64_t mid = static_cast<uint64_t>(2 * idx + 1) << (level - 1);
    const uint64_t* split = std::lower_bound(begin, end, mid);
    MerkleTree::Hash left = Visit(level - 1, 2 * idx, begin, split);
    if (2 * idx + 1 < (*counts)[level - 1]) {
      MerkleTree::Hash right = Visit(level - 1, 2 * idx + 1, split, end);
      return MerkleTree::NodeHash(left, right);
    }
    if (split != end) failed = true;  // positions past the tree edge
    return left;
  }
};

}  // namespace

std::vector<MerkleTree::Hash> MerkleTree::SubsetProof(
    const std::vector<uint64_t>& positions) const {
  std::vector<Hash> proof;
  if (levels_.empty()) return proof;
  SubsetProver prover{&levels_, &proof};
  prover.Visit(levels_.size() - 1, 0, positions.data(),
               positions.data() + positions.size());
  return proof;
}

Result<MerkleTree::Hash> MerkleTree::RootFromSubset(
    uint64_t tree_size, const std::vector<uint64_t>& positions,
    const std::vector<Hash>& leaves, const std::vector<Hash>& proof) {
  if (leaves.size() != positions.size()) {
    return Status::InvalidArgument("merkle: one leaf hash per position");
  }
  for (size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] >= tree_size ||
        (i > 0 && positions[i] <= positions[i - 1])) {
      return Status::InvalidArgument(
          "merkle: positions must be strictly increasing and inside the tree");
    }
  }
  if (tree_size == 0) {
    if (!proof.empty()) {
      return Status::DataLoss("merkle: proof for an empty tree");
    }
    return EmptyRoot();
  }
  // Level widths bottom-up; at most 64 levels whatever tree_size claims,
  // and the recursion below touches O((|positions|+|proof|) * 64) nodes,
  // never tree_size of anything.
  std::vector<uint64_t> counts;
  for (uint64_t width = tree_size;; width = (width + 1) / 2) {
    counts.push_back(width);
    if (width == 1) break;
  }
  SubsetVerifier verifier{&counts, &leaves, &proof};
  Hash root = verifier.Visit(counts.size() - 1, 0, positions.data(),
                             positions.data() + positions.size());
  if (verifier.failed || verifier.next_leaf != leaves.size() ||
      verifier.next_proof != proof.size()) {
    return Status::DataLoss("merkle: malformed subset proof");
  }
  return root;
}

Result<MerkleTree::Hash> MerkleTree::FromBytes(const Bytes& bytes) {
  if (bytes.size() != 32) {
    return Status::InvalidArgument("merkle: a hash is exactly 32 bytes");
  }
  Hash hash;
  std::copy(bytes.begin(), bytes.end(), hash.begin());
  return hash;
}

}  // namespace crypto
}  // namespace dbph
