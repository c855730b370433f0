// SearchTree: the sorted (trapdoor-tag -> posting-list) commitment that
// select completeness proofs are built from. Model-based property tests:
// random Assign / append-delta / delete sequences are mirrored into a
// std::map reference model, and after every edit the tree must stay
// sorted, equal the model entry for entry, and produce membership and
// non-membership proofs that verify — while every forged shape (tampered
// digests, non-adjacent neighbors, brackets around a present tag) fails
// closed. These are the invariants the Enforce-mode client stakes its
// completeness verdicts on (tests/integrity_test.cc exercises them end
// to end through a dishonest server).

#include "crypto/search_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/random.h"

namespace dbph {
namespace {

using crypto::SearchTree;
using Entry = SearchTree::Entry;
using Hash = SearchTree::Hash;
using Neighbor = SearchTree::Neighbor;

/// Reference model: tag -> posting list. std::map's std::less on
/// std::array is the same lexicographic order SearchTree sorts by.
using Model = std::map<Hash, std::vector<uint64_t>>;

/// Deterministic tag universe. Ids below kAbsentBase are candidates for
/// insertion; ids at or above it are never inserted, so they make
/// guaranteed-absent probes.
constexpr uint64_t kAbsentBase = 1u << 20;

Hash TagFor(uint64_t id) {
  return SearchTree::TagDigest(ToBytes("tag-" + std::to_string(id)));
}

std::vector<Entry> ModelEntries(const Model& model) {
  std::vector<Entry> entries;
  entries.reserve(model.size());
  for (const auto& [tag, positions] : model) {
    entries.push_back({tag, positions});
  }
  return entries;
}

/// The tree must equal the model entry for entry, stay strictly sorted,
/// and carry the same root and membership paths a from-scratch Assign of
/// the model would — i.e. incremental edits (which keep the cached leaf
/// of every untouched entry) and bulk rebuild commit to identical state.
void ExpectTreeMatchesModel(const SearchTree& tree, const Model& model,
                            uint64_t num_positions) {
  ASSERT_EQ(tree.size(), model.size());
  size_t i = 0;
  for (const auto& [tag, positions] : model) {
    ASSERT_EQ(tree.entry(i).tag, tag) << "entry " << i;
    ASSERT_EQ(tree.entry(i).positions, positions) << "entry " << i;
    ++i;
  }
  for (size_t j = 1; j < tree.size(); ++j) {
    ASSERT_TRUE(tree.entry(j - 1).tag < tree.entry(j).tag) << "entry " << j;
  }
  SearchTree bulk;
  ASSERT_TRUE(bulk.Assign(ModelEntries(model), num_positions).ok());
  EXPECT_EQ(tree.Root(), bulk.Root());
  for (size_t j = 0; j < tree.size(); ++j) {
    ASSERT_EQ(tree.MembershipPath(j), bulk.MembershipPath(j)) << "entry " << j;
  }
}

/// Every committed entry must prove membership against the root, and the
/// proof must not vouch for a tampered posting digest or another index.
void ExpectMembershipProofsVerify(const SearchTree& tree) {
  const Hash root = tree.Root();
  const uint64_t n = tree.size();
  for (size_t i = 0; i < n; ++i) {
    const Entry& entry = tree.entry(i);
    const Hash digest = SearchTree::PostingDigest(entry.positions);
    auto path = tree.MembershipPath(i);
    EXPECT_TRUE(
        SearchTree::VerifyMember(root, n, i, entry.tag, digest, path).ok())
        << "entry " << i;

    Hash forged = digest;
    forged[0] ^= 0x01;
    EXPECT_FALSE(
        SearchTree::VerifyMember(root, n, i, entry.tag, forged, path).ok());
    if (n > 1) {
      EXPECT_FALSE(SearchTree::VerifyMember(root, n, (i + 1) % n, entry.tag,
                                            digest, path)
                       .ok());
    }
  }
}

/// Absent tags must carry verifying non-membership proofs; present tags
/// must have none (the empty shape is rejected for a non-empty tree).
void ExpectNonMembershipProofsVerify(const SearchTree& tree,
                                     const Model& model, crypto::Rng* rng) {
  const Hash root = tree.Root();
  const uint64_t n = tree.size();
  for (int probe = 0; probe < 8; ++probe) {
    Hash absent = TagFor(kAbsentBase + rng->NextBelow(1000));
    if (model.count(absent) != 0) continue;  // unreachable by construction
    auto neighbors = tree.NonMembershipProof(absent);
    EXPECT_TRUE(SearchTree::VerifyNonMember(root, n, absent, neighbors).ok())
        << "absent probe " << probe;
  }
  for (const auto& [tag, positions] : model) {
    auto neighbors = tree.NonMembershipProof(tag);
    EXPECT_TRUE(neighbors.empty());
    if (n > 0) {
      EXPECT_FALSE(SearchTree::VerifyNonMember(root, n, tag, neighbors).ok());
    }
  }
}

/// One random edit: an append delta (fresh position range, mix of new
/// and already-present tags) or a delete, applied to tree and model
/// alike. A delete removes a random position subset, every position of
/// the first or of the last entry (emptying it, so every later entry
/// moves), or the newest rows (the tail case, where entries whose lists
/// end below the cut keep their cached leaves).
void RandomEdit(SearchTree* tree, Model* model, uint64_t* num_positions,
                crypto::Rng* rng) {
  const bool append = model->empty() || *num_positions == 0 || rng->NextBool();
  if (append) {
    const uint64_t begin = *num_positions;
    const uint64_t appended = 1 + rng->NextBelow(6);
    const uint64_t end = begin + appended;
    Model delta_model;
    for (uint64_t position = begin; position < end; ++position) {
      // Each appended position lands in 1-3 posting lists (a row matches
      // one tag per attribute in the real mapping).
      const uint64_t tags = 1 + rng->NextBelow(3);
      for (uint64_t t = 0; t < tags; ++t) {
        Hash tag = TagFor(rng->NextBelow(40));
        auto& positions = delta_model[tag];
        if (positions.empty() || positions.back() != position) {
          positions.push_back(position);
        }
      }
    }
    ASSERT_TRUE(
        tree->ApplyAppendDelta(ModelEntries(delta_model), begin, end).ok());
    for (auto& [tag, positions] : delta_model) {
      auto& committed = (*model)[tag];
      committed.insert(committed.end(), positions.begin(), positions.end());
    }
    *num_positions = end;
    return;
  }

  std::vector<uint64_t> removed;
  switch (rng->NextBelow(4)) {
    case 0:
      for (uint64_t position = 0; position < *num_positions; ++position) {
        if (rng->NextBelow(4) == 0) removed.push_back(position);
      }
      break;
    case 1:
      removed = model->begin()->second;
      break;
    case 2:
      removed = model->rbegin()->second;
      break;
    default: {
      const uint64_t count =
          1 + rng->NextBelow(std::min<uint64_t>(3, *num_positions));
      for (uint64_t position = *num_positions - count;
           position < *num_positions; ++position) {
        removed.push_back(position);
      }
      break;
    }
  }
  tree->ApplyDelete(removed);
  Model survivors;
  for (auto& [tag, positions] : *model) {
    std::vector<uint64_t> kept;
    for (uint64_t position : positions) {
      auto it = std::lower_bound(removed.begin(), removed.end(), position);
      if (it != removed.end() && *it == position) continue;
      kept.push_back(position - static_cast<uint64_t>(it - removed.begin()));
    }
    if (!kept.empty()) survivors[tag] = std::move(kept);
  }
  *model = std::move(survivors);
  *num_positions -= removed.size();
}

TEST(SearchTreeTest, EmptyTreeProvesAbsenceWithTheRootAlone) {
  SearchTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Root(), crypto::MerkleTree::EmptyRoot());
  Hash tag = TagFor(kAbsentBase);
  auto neighbors = tree.NonMembershipProof(tag);
  EXPECT_TRUE(neighbors.empty());
  EXPECT_TRUE(SearchTree::VerifyNonMember(tree.Root(), 0, tag, neighbors).ok());
  // Claiming a neighbor inside an empty tree is a forgery.
  neighbors.push_back(Neighbor{});
  EXPECT_FALSE(
      SearchTree::VerifyNonMember(tree.Root(), 0, tag, neighbors).ok());
}

TEST(SearchTreeTest, ZeroTreeSizeAgainstNonEmptyRootIsRejected) {
  // tree_size travels on the wire unsigned; only the root is covered by
  // the owner's attestation. A server replaying a genuinely signed
  // non-empty root with tree_size=0 and no neighbors must not get
  // "absent" accepted for a committed tag.
  Model model;
  model[TagFor(1)] = {0};
  model[TagFor(2)] = {1, 2};
  SearchTree tree;
  ASSERT_TRUE(tree.Assign(ModelEntries(model), 3).ok());
  ASSERT_NE(tree.Root(), crypto::MerkleTree::EmptyRoot());
  EXPECT_FALSE(
      SearchTree::VerifyNonMember(tree.Root(), 0, TagFor(1), {}).ok());
  EXPECT_FALSE(
      SearchTree::VerifyNonMember(tree.Root(), 0, TagFor(kAbsentBase), {})
          .ok());
}

TEST(SearchTreeTest, RandomAssignKeepsSortedOrderAndAllProofsVerify) {
  crypto::HmacDrbg rng("search-tree-assign", 11);
  for (int trial = 0; trial < 12; ++trial) {
    const uint64_t num_positions = 1 + rng.NextBelow(48);
    Model model;
    for (uint64_t position = 0; position < num_positions; ++position) {
      Hash tag = TagFor(rng.NextBelow(24));
      auto& positions = model[tag];
      if (positions.empty() || positions.back() != position) {
        positions.push_back(position);
      }
    }
    SearchTree tree;
    ASSERT_TRUE(tree.Assign(ModelEntries(model), num_positions).ok());
    ExpectTreeMatchesModel(tree, model, num_positions);
    ExpectMembershipProofsVerify(tree);
    ExpectNonMembershipProofsVerify(tree, model, &rng);
    // Find agrees with the model on presence and contents.
    for (const auto& [tag, positions] : model) {
      const Entry* found = tree.Find(tag);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->positions, positions);
    }
    EXPECT_EQ(tree.Find(TagFor(kAbsentBase + trial)), nullptr);
  }
}

TEST(SearchTreeTest, RandomEditSequencesTrackTheModel) {
  // The workload shape the client mirror and the server tree both see:
  // interleaved appends and deletes from empty, with full proof checks
  // at every committed state.
  crypto::HmacDrbg rng("search-tree-edits", 23);
  for (int trial = 0; trial < 8; ++trial) {
    SearchTree tree;
    Model model;
    uint64_t num_positions = 0;
    for (int op = 0; op < 48; ++op) {
      RandomEdit(&tree, &model, &num_positions, &rng);
      ASSERT_NO_FATAL_FAILURE(
          ExpectTreeMatchesModel(tree, model, num_positions))
          << "trial " << trial << " op " << op;
      ExpectMembershipProofsVerify(tree);
      ExpectNonMembershipProofsVerify(tree, model, &rng);
    }
  }
}

TEST(SearchTreeTest, NonMembershipShapesAndForgeriesFailClosed) {
  // Fixed five-entry tree; probe tags land before the first entry, after
  // the last, and between two committed entries.
  std::vector<uint64_t> ids = {10, 20, 30, 40, 50};
  Model model;
  for (size_t i = 0; i < ids.size(); ++i) model[TagFor(ids[i])] = {i};
  SearchTree tree;
  ASSERT_TRUE(tree.Assign(ModelEntries(model), ids.size()).ok());
  const Hash root = tree.Root();
  const uint64_t n = tree.size();

  // A probe below the smallest committed tag: one boundary neighbor.
  // The all-zero hash sorts below any SHA-256 tag the tree can hold.
  Hash before{};
  ASSERT_TRUE(before < tree.entry(0).tag);
  auto low_proof = tree.NonMembershipProof(before);
  ASSERT_EQ(low_proof.size(), 1u);
  EXPECT_EQ(low_proof[0].index, 0u);
  EXPECT_TRUE(SearchTree::VerifyNonMember(root, n, before, low_proof).ok());

  // A probe above the largest: one boundary neighbor at the far end.
  Hash after;
  after.fill(0xff);
  ASSERT_TRUE(tree.entry(n - 1).tag < after);
  auto high_proof = tree.NonMembershipProof(after);
  ASSERT_EQ(high_proof.size(), 1u);
  EXPECT_EQ(high_proof[0].index, n - 1);
  EXPECT_TRUE(SearchTree::VerifyNonMember(root, n, after, high_proof).ok());

  // A probe strictly between two committed tags: adjacent pair.
  Hash between = tree.entry(2).tag;
  size_t byte = 31;
  while (byte > 0 && between[byte] == 0xff) --byte;
  between[byte] += 1;
  ASSERT_TRUE(tree.entry(2).tag < between);
  ASSERT_TRUE(tree.Find(between) == nullptr);
  auto mid_proof = tree.NonMembershipProof(between);
  if (between < tree.entry(n - 1).tag) {
    ASSERT_EQ(mid_proof.size(), 2u);
    EXPECT_EQ(mid_proof[0].index + 1, mid_proof[1].index);
  }
  EXPECT_TRUE(SearchTree::VerifyNonMember(root, n, between, mid_proof).ok());

  // Forgeries around a PRESENT tag. The honest brackets are (i-1, i) and
  // (i, i+1) — both contain the tag itself, so a lying server must either
  // break adjacency or break the strict ordering. Both must fail.
  const Hash present = tree.entry(2).tag;
  const auto neighbor_at = [&](size_t i) {
    Neighbor neighbor;
    neighbor.index = i;
    neighbor.tag = tree.entry(i).tag;
    neighbor.posting_digest = SearchTree::PostingDigest(tree.entry(i).positions);
    neighbor.path = tree.MembershipPath(i);
    return neighbor;
  };
  {
    // Skip over the entry: genuine leaves, indices 1 and 3 not adjacent.
    std::vector<Neighbor> skip = {neighbor_at(1), neighbor_at(3)};
    EXPECT_FALSE(SearchTree::VerifyNonMember(root, n, present, skip).ok());
  }
  {
    // Adjacent pair (1, 2): high.tag == present breaks strict ordering.
    std::vector<Neighbor> touch = {neighbor_at(1), neighbor_at(2)};
    EXPECT_FALSE(SearchTree::VerifyNonMember(root, n, present, touch).ok());
  }
  {
    // Boundary claim for an interior tag.
    std::vector<Neighbor> boundary = {neighbor_at(0)};
    EXPECT_FALSE(SearchTree::VerifyNonMember(root, n, present, boundary).ok());
    std::vector<Neighbor> tail = {neighbor_at(n - 1)};
    EXPECT_FALSE(SearchTree::VerifyNonMember(root, n, present, tail).ok());
  }
  {
    // Over-long neighbor lists are rejected outright.
    std::vector<Neighbor> three = {neighbor_at(1), neighbor_at(2),
                                   neighbor_at(3)};
    EXPECT_FALSE(SearchTree::VerifyNonMember(root, n, present, three).ok());
  }
  {
    // A genuine absent-tag proof whose neighbor leaf was tampered.
    auto forged = mid_proof;
    ASSERT_FALSE(forged.empty());
    forged[0].posting_digest[0] ^= 0x01;
    EXPECT_FALSE(SearchTree::VerifyNonMember(root, n, between, forged).ok());
  }
}

TEST(SearchTreeTest, MalformedInputIsRejectedWithoutStateChange) {
  Model model;
  model[TagFor(1)] = {0, 2};
  model[TagFor(2)] = {1};
  SearchTree tree;
  ASSERT_TRUE(tree.Assign(ModelEntries(model), 3).ok());
  const Hash root = tree.Root();

  // Assign: unsorted tags, duplicate tags, empty posting list, position
  // out of range, positions not strictly increasing.
  {
    SearchTree fresh;
    std::vector<Entry> unsorted = ModelEntries(model);
    std::swap(unsorted[0], unsorted[1]);
    EXPECT_FALSE(fresh.Assign(unsorted, 3).ok());
    std::vector<Entry> duplicate = {{TagFor(1), {0}}, {TagFor(1), {1}}};
    EXPECT_FALSE(fresh.Assign(duplicate, 3).ok());
    std::vector<Entry> empty_list = {{TagFor(1), {}}};
    EXPECT_FALSE(fresh.Assign(empty_list, 3).ok());
    std::vector<Entry> out_of_range = {{TagFor(1), {3}}};
    EXPECT_FALSE(fresh.Assign(out_of_range, 3).ok());
    std::vector<Entry> not_increasing = {{TagFor(1), {1, 1}}};
    EXPECT_FALSE(fresh.Assign(not_increasing, 3).ok());
  }

  // Deltas: same malformations plus positions outside [begin, end). A
  // rejected delta must leave the committed state untouched.
  {
    std::vector<Entry> below = {{TagFor(3), {2}}};
    EXPECT_FALSE(tree.ApplyAppendDelta(below, 3, 5).ok());
    std::vector<Entry> above = {{TagFor(3), {5}}};
    EXPECT_FALSE(tree.ApplyAppendDelta(above, 3, 5).ok());
    std::vector<Entry> unsorted = {{TagFor(2), {3}}, {TagFor(1), {4}}};
    if (TagFor(1) < TagFor(2)) {
      EXPECT_FALSE(tree.ApplyAppendDelta(unsorted, 3, 5).ok());
    } else {
      std::swap(unsorted[0], unsorted[1]);
      EXPECT_FALSE(tree.ApplyAppendDelta(unsorted, 3, 5).ok());
    }
    std::vector<Entry> empty_list = {{TagFor(3), {}}};
    EXPECT_FALSE(tree.ApplyAppendDelta(empty_list, 3, 5).ok());
    EXPECT_EQ(tree.Root(), root);
    EXPECT_EQ(tree.size(), 2u);
  }

  // And a well-formed delta still applies after the rejections.
  {
    std::vector<Entry> good = {{TagFor(5), {3, 4}}};
    ASSERT_TRUE(tree.ApplyAppendDelta(good, 3, 5).ok());
    const Entry* found = tree.Find(TagFor(5));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->positions, (std::vector<uint64_t>{3, 4}));
    EXPECT_NE(tree.Root(), root);
  }
}

TEST(SearchTreeTest, TagAndPostingDomainsAreSeparated) {
  // TagDigest and PostingDigest over "the same bytes" must never agree —
  // a tag cannot be replayed as a posting commitment or vice versa.
  Bytes bytes = ToBytes("identical-input");
  Hash tag = SearchTree::TagDigest(bytes);
  std::vector<uint64_t> as_positions(bytes.begin(), bytes.end());
  EXPECT_NE(tag, SearchTree::PostingDigest(as_positions));
  // Posting digests are length-prefixed: {1} and {1, anything-prefix}
  // style ambiguities cannot collide.
  EXPECT_NE(SearchTree::PostingDigest({1}), SearchTree::PostingDigest({1, 2}));
}

}  // namespace
}  // namespace dbph
