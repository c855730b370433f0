#include "crypto/search_tree.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/macros.h"
#include "crypto/sha256.h"

namespace dbph {
namespace crypto {

namespace {

/// Domain prefixes: a tag digest can never collide with a posting
/// digest, and neither can be replayed as a document leaf (EntryLeaf
/// goes through the MerkleTree leaf domain on 64 bytes no serialized
/// document can be, but the explicit prefixes keep the separation
/// independent of that accident).
constexpr char kTagDomain[] = "dbph-search-tag-v1";
constexpr char kPostingDomain[] = "dbph-posting-list-v1";

void AppendUint64To(Sha256* hasher, uint64_t value) {
  uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>(value >> (8 * i));
  hasher->Update(buf, sizeof(buf));
}

}  // namespace

SearchTree::Hash SearchTree::TagDigest(const Bytes& trapdoor_bytes) {
  Sha256 hasher;
  hasher.Update(reinterpret_cast<const uint8_t*>(kTagDomain),
                sizeof(kTagDomain) - 1);
  hasher.Update(trapdoor_bytes);
  Hash out;
  hasher.FinishInto(out.data());
  return out;
}

SearchTree::Hash SearchTree::PostingDigest(
    const std::vector<uint64_t>& positions) {
  Sha256 hasher;
  hasher.Update(reinterpret_cast<const uint8_t*>(kPostingDomain),
                sizeof(kPostingDomain) - 1);
  AppendUint64To(&hasher, positions.size());
  for (uint64_t position : positions) AppendUint64To(&hasher, position);
  Hash out;
  hasher.FinishInto(out.data());
  return out;
}

SearchTree::Hash SearchTree::EntryLeaf(const Hash& tag,
                                       const Hash& posting_digest) {
  uint8_t buf[64];
  std::copy(tag.begin(), tag.end(), buf);
  std::copy(posting_digest.begin(), posting_digest.end(), buf + 32);
  return MerkleTree::LeafHash(buf, sizeof(buf));
}

Status SearchTree::Assign(std::vector<Entry> entries,
                          uint64_t num_positions) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && !(entries[i - 1].tag < entries[i].tag)) {
      return Status::InvalidArgument(
          "search tree: tags not strictly increasing");
    }
    const std::vector<uint64_t>& positions = entries[i].positions;
    if (positions.empty()) {
      return Status::InvalidArgument("search tree: empty posting list");
    }
    for (size_t j = 0; j < positions.size(); ++j) {
      if (positions[j] >= num_positions ||
          (j > 0 && positions[j] <= positions[j - 1])) {
        return Status::InvalidArgument(
            "search tree: posting positions not increasing in range");
      }
    }
  }
  entries_ = std::move(entries);
  std::vector<size_t> all(entries_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  Rehash(std::vector<Hash>(entries_.size()), all, 0);
  return Status::OK();
}

Status SearchTree::ApplyAppendDelta(const std::vector<Entry>& delta,
                                    uint64_t begin_position,
                                    uint64_t end_position) {
  // Validate everything first: a rejected delta must leave the committed
  // state untouched (the caller has not applied the append either).
  for (size_t i = 0; i < delta.size(); ++i) {
    if (i > 0 && !(delta[i - 1].tag < delta[i].tag)) {
      return Status::InvalidArgument(
          "search delta: tags not strictly increasing");
    }
    const std::vector<uint64_t>& positions = delta[i].positions;
    if (positions.empty()) {
      return Status::InvalidArgument("search delta: empty posting list");
    }
    for (size_t j = 0; j < positions.size(); ++j) {
      if (positions[j] < begin_position || positions[j] >= end_position ||
          (j > 0 && positions[j] <= positions[j - 1])) {
        return Status::InvalidArgument(
            "search delta: positions not increasing in the appended range");
      }
    }
  }

  // Sorted merge; appended positions are all >= begin_position and every
  // committed position is below it (the invariant Assign enforces and
  // ApplyDelete preserves), so a merged list stays strictly increasing.
  // An entry the delta misses keeps its list and so its cached leaf.
  std::vector<Entry> merged;
  std::vector<Hash> leaves;
  std::vector<size_t> changed;
  merged.reserve(entries_.size() + delta.size());
  leaves.reserve(entries_.size() + delta.size());
  changed.reserve(delta.size());
  size_t a = 0;
  size_t b = 0;
  while (a < entries_.size() || b < delta.size()) {
    if (b == delta.size() ||
        (a < entries_.size() && entries_[a].tag < delta[b].tag)) {
      leaves.push_back(tree_.leaf(a));
      merged.push_back(std::move(entries_[a++]));
      continue;
    }
    changed.push_back(merged.size());
    leaves.emplace_back();
    if (a == entries_.size() || delta[b].tag < entries_[a].tag) {
      merged.push_back(delta[b++]);
    } else {
      Entry entry = std::move(entries_[a++]);
      entry.positions.insert(entry.positions.end(),
                             delta[b].positions.begin(),
                             delta[b].positions.end());
      merged.push_back(std::move(entry));
      ++b;
    }
  }
  entries_ = std::move(merged);
  const size_t first_changed =
      changed.empty() ? entries_.size() : changed.front();
  Rehash(std::move(leaves), changed, first_changed);
  return Status::OK();
}

void SearchTree::ApplyDelete(const std::vector<uint64_t>& removed_positions) {
  if (removed_positions.empty()) return;
  std::vector<Entry> kept;
  std::vector<Hash> leaves;
  std::vector<size_t> changed;
  kept.reserve(entries_.size());
  leaves.reserve(entries_.size());
  // The first index whose leaf changed or moved (a dropped entry shifts
  // every later one down).
  size_t first_changed = entries_.size();
  for (size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    // Positions below the lowest removed one neither leave nor shift, so
    // a list that ends below it keeps its digest and its cached leaf.
    if (entry.positions.back() < removed_positions.front()) {
      leaves.push_back(tree_.leaf(i));
      kept.push_back(std::move(entry));
      continue;
    }
    first_changed = std::min(first_changed, kept.size());
    std::vector<uint64_t> survivors;
    survivors.reserve(entry.positions.size());
    for (uint64_t position : entry.positions) {
      auto it = std::lower_bound(removed_positions.begin(),
                                 removed_positions.end(), position);
      if (it != removed_positions.end() && *it == position) continue;
      // Shift down by the number of removed positions below this one.
      survivors.push_back(position - static_cast<uint64_t>(
                                         it - removed_positions.begin()));
    }
    if (survivors.empty()) continue;
    entry.positions = std::move(survivors);
    changed.push_back(kept.size());
    leaves.emplace_back();
    kept.push_back(std::move(entry));
  }
  entries_ = std::move(kept);
  Rehash(std::move(leaves), changed, first_changed);
}

void SearchTree::Clear() {
  entries_.clear();
  tree_.Clear();
}

size_t SearchTree::LowerBound(const Hash& tag) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), tag,
      [](const Entry& entry, const Hash& t) { return entry.tag < t; });
  return static_cast<size_t>(it - entries_.begin());
}

const SearchTree::Entry* SearchTree::Find(const Hash& tag) const {
  size_t index = LowerBound(tag);
  if (index < entries_.size() && entries_[index].tag == tag) {
    return &entries_[index];
  }
  return nullptr;
}

std::vector<SearchTree::Hash> SearchTree::MembershipPath(size_t index) const {
  return tree_.InclusionProof(index);
}

std::vector<SearchTree::Neighbor> SearchTree::NonMembershipProof(
    const Hash& tag) const {
  std::vector<Neighbor> neighbors;
  if (entries_.empty()) return neighbors;
  size_t index = LowerBound(tag);
  if (index < entries_.size() && entries_[index].tag == tag) {
    // Present: there is no honest non-membership proof. Return the empty
    // set, which VerifyNonMember rejects for a non-empty tree.
    return neighbors;
  }
  const auto make = [&](size_t i) {
    Neighbor neighbor;
    neighbor.index = i;
    neighbor.tag = entries_[i].tag;
    neighbor.posting_digest = PostingDigest(entries_[i].positions);
    neighbor.path = tree_.InclusionProof(i);
    return neighbor;
  };
  if (index == 0) {
    neighbors.push_back(make(0));
  } else if (index == entries_.size()) {
    neighbors.push_back(make(entries_.size() - 1));
  } else {
    neighbors.push_back(make(index - 1));
    neighbors.push_back(make(index));
  }
  return neighbors;
}

Status SearchTree::VerifyMember(const Hash& root, uint64_t tree_size,
                                uint64_t index, const Hash& tag,
                                const Hash& posting_digest,
                                const std::vector<Hash>& path) {
  return MerkleTree::VerifyInclusion(root, tree_size, index,
                                     EntryLeaf(tag, posting_digest), path);
}

Status SearchTree::VerifyNonMember(const Hash& root, uint64_t tree_size,
                                   const Hash& tag,
                                   const std::vector<Neighbor>& neighbors) {
  if (tree_size == 0) {
    // An empty tree commits to nothing, but tree_size itself is wire
    // data the owner never signed — only the root is. Demand the root
    // actually be the empty-tree constant, or a server could replay a
    // genuinely signed non-empty root with tree_size=0 and pass off
    // "no committed matches" for any tag.
    if (root != MerkleTree::EmptyRoot()) {
      return Status::DataLoss(
          "non-membership: tree_size=0 against a non-empty root");
    }
    if (!neighbors.empty()) {
      return Status::DataLoss("non-membership: neighbors for an empty tree");
    }
    return Status::OK();
  }
  const auto verify_neighbor = [&](const Neighbor& neighbor) {
    return MerkleTree::VerifyInclusion(
        root, tree_size, neighbor.index,
        EntryLeaf(neighbor.tag, neighbor.posting_digest), neighbor.path);
  };
  if (neighbors.size() == 1) {
    const Neighbor& boundary = neighbors[0];
    DBPH_RETURN_IF_ERROR(verify_neighbor(boundary));
    const bool before_first = boundary.index == 0 && tag < boundary.tag;
    const bool after_last =
        boundary.index + 1 == tree_size && boundary.tag < tag;
    if (!before_first && !after_last) {
      return Status::DataLoss("non-membership: tag not outside the boundary");
    }
    return Status::OK();
  }
  if (neighbors.size() == 2) {
    const Neighbor& low = neighbors[0];
    const Neighbor& high = neighbors[1];
    if (low.index + 1 != high.index) {
      return Status::DataLoss("non-membership: neighbors not adjacent");
    }
    if (!(low.tag < tag) || !(tag < high.tag)) {
      return Status::DataLoss("non-membership: tag not between neighbors");
    }
    DBPH_RETURN_IF_ERROR(verify_neighbor(low));
    DBPH_RETURN_IF_ERROR(verify_neighbor(high));
    return Status::OK();
  }
  return Status::DataLoss("non-membership: wrong neighbor count");
}

void SearchTree::Rehash(std::vector<Hash> leaves,
                        const std::vector<size_t>& changed,
                        size_t first_changed) {
  // A changed leaf is EntryLeaf(tag, posting digest): the leaf-domain
  // hash of one 64-byte pair, batched through HashPairs.
  std::vector<Hash> pairs(2 * changed.size());
  for (size_t i = 0; i < changed.size(); ++i) {
    const Entry& entry = entries_[changed[i]];
    pairs[2 * i] = entry.tag;
    pairs[2 * i + 1] = PostingDigest(entry.positions);
  }
  std::vector<Hash> hashed(changed.size());
  MerkleTree::HashPairs(MerkleTree::Domain::kLeaf, pairs.data(),
                        changed.size(), hashed.data());
  for (size_t i = 0; i < changed.size(); ++i) leaves[changed[i]] = hashed[i];
  tree_.ReplaceLeaves(std::move(leaves), first_changed);
}

}  // namespace crypto
}  // namespace dbph
