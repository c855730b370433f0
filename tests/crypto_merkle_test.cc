// MerkleTree: shape invariants, append/rebuild equivalence, and the
// proof machinery the result-integrity layer stands on. Proof tampering
// must fail closed — these are the primitives the tamper-injection suite
// (tests/integrity_test.cc) exercises end to end.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/random.h"
#include "crypto/sha256.h"

namespace dbph {
namespace {

using crypto::MerkleTree;
using Hash = MerkleTree::Hash;

std::vector<Hash> MakeLeaves(size_t n) {
  std::vector<Hash> leaves;
  leaves.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(MerkleTree::LeafHash(ToBytes("leaf-" + std::to_string(i))));
  }
  return leaves;
}

TEST(MerkleTreeTest, EmptyRootIsSha256OfNothing) {
  crypto::Sha256 sha;
  Bytes empty_digest = sha.Finish();
  EXPECT_EQ(MerkleTree::ToBytes(MerkleTree::EmptyRoot()), empty_digest);
  MerkleTree tree;
  EXPECT_EQ(tree.Root(), MerkleTree::EmptyRoot());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(MerkleTreeTest, SingleLeafRootIsTheLeaf) {
  MerkleTree tree;
  Hash leaf = MerkleTree::LeafHash(ToBytes("only"));
  tree.AppendLeaf(leaf);
  EXPECT_EQ(tree.Root(), leaf);
}

TEST(MerkleTreeTest, LeafAndNodeDomainsAreSeparated) {
  // An interior value must not be forgeable as a leaf of concatenated
  // children: LeafHash(l | r) != NodeHash(l, r).
  Hash l = MerkleTree::LeafHash(ToBytes("l"));
  Hash r = MerkleTree::LeafHash(ToBytes("r"));
  Bytes concat;
  concat.insert(concat.end(), l.begin(), l.end());
  concat.insert(concat.end(), r.begin(), r.end());
  EXPECT_NE(MerkleTree::LeafHash(concat), MerkleTree::NodeHash(l, r));
}

TEST(MerkleTreeTest, AppendMatchesBulkAssignAtEverySize) {
  MerkleTree incremental;
  for (size_t n = 1; n <= 40; ++n) {
    std::vector<Hash> leaves = MakeLeaves(n);
    incremental.AppendLeaf(leaves.back());
    MerkleTree bulk;
    bulk.Assign(leaves);
    ASSERT_EQ(incremental.size(), n);
    ASSERT_EQ(incremental.Root(), bulk.Root()) << "n=" << n;
  }
}

TEST(MerkleTreeTest, DistinctLeafSequencesHaveDistinctRoots) {
  // The promotion rule must not let [a, b, c] collide with [a, b, c, c]
  // (the classic duplicate-last-leaf pitfall).
  std::vector<Hash> leaves = MakeLeaves(3);
  MerkleTree three;
  three.Assign(leaves);
  leaves.push_back(leaves.back());
  MerkleTree four;
  four.Assign(leaves);
  EXPECT_NE(three.Root(), four.Root());
}

/// The incremental tree must commit to exactly what a from-scratch
/// Assign of `leaves` commits to: same size, root and inclusion proof
/// for every leaf. The root is also checked against a fold of all the
/// leaves through scalar NodeHash (RootFromSubset over the full range),
/// which shares no code with the batched rehash.
void ExpectSameAsFreshAssign(const MerkleTree& tree,
                             const std::vector<Hash>& leaves) {
  MerkleTree fresh;
  fresh.Assign(leaves);
  ASSERT_EQ(tree.size(), leaves.size());
  ASSERT_EQ(tree.Root(), fresh.Root());
  std::vector<uint64_t> all(leaves.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  auto folded = MerkleTree::RootFromSubset(leaves.size(), all, leaves, {});
  ASSERT_TRUE(folded.ok()) << folded.status();
  ASSERT_EQ(tree.Root(), *folded);
  for (size_t i = 0; i < leaves.size(); ++i) {
    ASSERT_EQ(tree.leaf(i), leaves[i]) << "leaf " << i;
    ASSERT_EQ(tree.InclusionProof(i), fresh.InclusionProof(i)) << "leaf " << i;
  }
}

TEST(MerkleTreeTest, HashPairsMatchesScalarHashesAtEveryWidth) {
  // Widths 1..40 cover every remainder of the 16-, 8-, 4- and 2-lane
  // kernels, plus whole passes.
  for (size_t n = 1; n <= 40; ++n) {
    std::vector<Hash> pairs = MakeLeaves(2 * n);
    std::vector<Hash> nodes(n);
    std::vector<Hash> leaves(n);
    MerkleTree::HashPairs(MerkleTree::Domain::kNode, pairs.data(), n,
                          nodes.data());
    MerkleTree::HashPairs(MerkleTree::Domain::kLeaf, pairs.data(), n,
                          leaves.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(nodes[i], MerkleTree::NodeHash(pairs[2 * i], pairs[2 * i + 1]))
          << "n=" << n << " i=" << i;
      Bytes concat(pairs[2 * i].begin(), pairs[2 * i].end());
      concat.insert(concat.end(), pairs[2 * i + 1].begin(),
                    pairs[2 * i + 1].end());
      EXPECT_EQ(leaves[i], MerkleTree::LeafHash(concat))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MerkleTreeTest, ReplaceLeavesRehashesFromTheFirstChange) {
  // Keep a random prefix, replace the rest with a tail of random length
  // (growing, shrinking or emptying the tree): the result must equal a
  // fresh Assign of the new sequence.
  crypto::HmacDrbg rng("merkle-replace", 31);
  size_t next_label = 0;
  std::vector<Hash> model;
  MerkleTree tree;
  for (int step = 0; step < 300; ++step) {
    const bool empty = step % 50 == 49;
    const size_t keep = empty ? 0 : rng.NextBelow(model.size() + 1);
    const size_t tail = empty ? 0 : rng.NextBelow(40);
    std::vector<Hash> leaves(model.begin(),
                             model.begin() + static_cast<ptrdiff_t>(keep));
    for (size_t i = 0; i < tail && leaves.size() < 70; ++i) {
      leaves.push_back(
          MerkleTree::LeafHash(ToBytes("r-" + std::to_string(next_label++))));
    }
    model = leaves;
    tree.ReplaceLeaves(std::move(leaves), keep);
    ASSERT_NO_FATAL_FAILURE(ExpectSameAsFreshAssign(tree, model))
        << "step " << step;
  }
}

TEST(MerkleTreeTest, RemoveSortedMatchesRebuildOfSurvivors) {
  {
    std::vector<Hash> leaves = MakeLeaves(17);
    MerkleTree tree;
    tree.Assign(leaves);
    std::vector<uint64_t> removed = {0, 3, 4, 11, 16};
    tree.RemoveSorted(removed);

    std::vector<Hash> survivors;
    size_t next = 0;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (next < removed.size() && removed[next] == i) {
        ++next;
        continue;
      }
      survivors.push_back(leaves[i]);
    }
    MerkleTree rebuilt;
    rebuilt.Assign(survivors);
    EXPECT_EQ(tree.size(), survivors.size());
    EXPECT_EQ(tree.Root(), rebuilt.Root());
  }

  // Random append/remove sequences. Sizes wander over 0..70, so odd
  // widths, promoted nodes and a level count that grows and shrinks all
  // occur. Removals take the first row, the last row, runs of rows (the
  // tail among them), scattered rows and every row.
  crypto::HmacDrbg rng("merkle-append-remove", 29);
  size_t next_label = 0;
  const auto fresh_leaf = [&] {
    return MerkleTree::LeafHash(ToBytes("row-" + std::to_string(next_label++)));
  };
  for (int trial = 0; trial < 6; ++trial) {
    MerkleTree tree;
    std::vector<Hash> model;
    for (int step = 0; step < 120; ++step) {
      const uint64_t kind = model.empty() ? 0 : rng.NextBelow(7);
      std::vector<uint64_t> removed;
      if (kind <= 1) {
        // Append a burst, never past 70 leaves.
        const uint64_t burst = 1 + rng.NextBelow(9);
        for (uint64_t i = 0; i < burst && model.size() < 70; ++i) {
          model.push_back(fresh_leaf());
          tree.AppendLeaf(model.back());
        }
      } else if (kind == 2) {
        removed = {0};
      } else if (kind == 3) {
        removed = {model.size() - 1};
      } else if (kind == 4) {
        // A run; half the time it ends at the last row.
        const uint64_t begin = rng.NextBelow(model.size());
        const uint64_t end =
            rng.NextBool() ? model.size()
                           : begin + 1 + rng.NextBelow(model.size() - begin);
        for (uint64_t i = begin; i < end; ++i) removed.push_back(i);
      } else if (kind == 5) {
        for (uint64_t i = 0; i < model.size(); ++i) {
          if (rng.NextBelow(4) == 0) removed.push_back(i);
        }
      } else if (rng.NextBelow(4) == 0) {
        for (uint64_t i = 0; i < model.size(); ++i) removed.push_back(i);
      }
      if (!removed.empty()) {
        tree.RemoveSorted(removed);
        for (size_t i = removed.size(); i-- > 0;) {
          model.erase(model.begin() + static_cast<ptrdiff_t>(removed[i]));
        }
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameAsFreshAssign(tree, model))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(MerkleTreeTest, InclusionProofsVerifyForEveryLeafAtEverySize) {
  for (size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 33u}) {
    std::vector<Hash> leaves = MakeLeaves(n);
    MerkleTree tree;
    tree.Assign(leaves);
    for (size_t i = 0; i < n; ++i) {
      auto path = tree.InclusionProof(i);
      EXPECT_TRUE(MerkleTree::VerifyInclusion(tree.Root(), n, i, leaves[i],
                                              path)
                      .ok())
          << "n=" << n << " i=" << i;
      // The same path must not vouch for a different leaf or position.
      Hash other = MerkleTree::LeafHash(ToBytes("not-a-leaf"));
      EXPECT_FALSE(
          MerkleTree::VerifyInclusion(tree.Root(), n, i, other, path).ok());
      if (n > 1) {
        EXPECT_FALSE(MerkleTree::VerifyInclusion(tree.Root(), n, (i + 1) % n,
                                                 leaves[i], path)
                         .ok());
      }
    }
  }
}

TEST(MerkleTreeTest, SubsetProofsVerifyAcrossSizesAndSelections) {
  crypto::HmacDrbg rng("merkle-subset", 7);
  for (size_t n : {1u, 2u, 7u, 16u, 31u, 64u, 100u}) {
    std::vector<Hash> leaves = MakeLeaves(n);
    MerkleTree tree;
    tree.Assign(leaves);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<uint64_t> positions;
      std::vector<Hash> selected;
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextBelow(3) == 0) {
          positions.push_back(i);
          selected.push_back(leaves[i]);
        }
      }
      auto proof = tree.SubsetProof(positions);
      auto root =
          MerkleTree::RootFromSubset(n, positions, selected, proof);
      ASSERT_TRUE(root.ok()) << root.status();
      EXPECT_EQ(*root, tree.Root()) << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(MerkleTreeTest, FullRangeSubsetProofIsEmptyAndComplete) {
  // positions = [0, n): the completeness shape — no siblings needed, the
  // fold IS the rebuild, and any withheld leaf changes the root.
  size_t n = 23;
  std::vector<Hash> leaves = MakeLeaves(n);
  MerkleTree tree;
  tree.Assign(leaves);
  std::vector<uint64_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  auto proof = tree.SubsetProof(all);
  EXPECT_TRUE(proof.empty());
  auto root = MerkleTree::RootFromSubset(n, all, leaves, proof);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, tree.Root());
}

TEST(MerkleTreeTest, TamperedSubsetsFailClosed) {
  size_t n = 20;
  std::vector<Hash> leaves = MakeLeaves(n);
  MerkleTree tree;
  tree.Assign(leaves);
  std::vector<uint64_t> positions = {2, 5, 9, 13};
  std::vector<Hash> selected = {leaves[2], leaves[5], leaves[9], leaves[13]};
  auto proof = tree.SubsetProof(positions);
  ASSERT_EQ(*MerkleTree::RootFromSubset(n, positions, selected, proof),
            tree.Root());

  // Dropped row (leaf + position removed, proof untouched).
  {
    std::vector<uint64_t> p = {2, 5, 9};
    std::vector<Hash> s = {leaves[2], leaves[5], leaves[9]};
    auto r = MerkleTree::RootFromSubset(n, p, s, proof);
    EXPECT_TRUE(!r.ok() || *r != tree.Root());
  }
  // Substituted row.
  {
    std::vector<Hash> s = selected;
    s[1] = MerkleTree::LeafHash(ToBytes("forged"));
    auto r = MerkleTree::RootFromSubset(n, positions, s, proof);
    EXPECT_TRUE(!r.ok() || *r != tree.Root());
  }
  // Reordered rows (leaves swapped under the same positions).
  {
    std::vector<Hash> s = selected;
    std::swap(s[0], s[3]);
    auto r = MerkleTree::RootFromSubset(n, positions, s, proof);
    EXPECT_TRUE(!r.ok() || *r != tree.Root());
  }
  // Truncated / padded proof.
  {
    auto short_proof = proof;
    short_proof.pop_back();
    EXPECT_FALSE(
        MerkleTree::RootFromSubset(n, positions, selected, short_proof).ok());
    auto long_proof = proof;
    long_proof.push_back(MerkleTree::EmptyRoot());
    EXPECT_FALSE(
        MerkleTree::RootFromSubset(n, positions, selected, long_proof).ok());
  }
  // Unsorted or out-of-range positions are rejected before any hashing.
  {
    std::vector<uint64_t> p = {5, 2, 9, 13};
    EXPECT_FALSE(MerkleTree::RootFromSubset(n, p, selected, proof).ok());
    p = {2, 5, 9, 99};
    EXPECT_FALSE(MerkleTree::RootFromSubset(n, p, selected, proof).ok());
  }
}

TEST(MerkleTreeTest, HostileTreeSizeCannotCauseBlowup) {
  // tree_size is attacker-controlled at verification time: a huge claim
  // with a tiny proof must fail fast (no allocation scales with it).
  std::vector<uint64_t> positions = {0};
  std::vector<Hash> leaves = {MerkleTree::LeafHash(ToBytes("x"))};
  std::vector<Hash> proof;  // far too few siblings for 2^60 leaves
  auto r = MerkleTree::RootFromSubset(uint64_t{1} << 60, positions, leaves,
                                      proof);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace dbph
