// SnapshotChunk::Seal builds the contiguous scan-kernel arena with
// 32-bit word refs; when a chunk's ciphertext would push an offset (or
// the ref count) past the uint32 limit, Seal must ship the chunk with
// arena_built = false and scans must take the per-document scalar path
// with bit-identical results. Materializing 4 GiB to hit the real limit
// is out of the question, so these tests lower the injectable cap
// (SetArenaCapForTesting) to force every branch of the fallback and
// assert scalar/kernel parity. RelationSnapshot::Scan is the server's
// only trapdoor scan, so its results must also be independent of the
// shard count and of whether a worker pool runs the shards.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/random.h"
#include "dbph/scheme.h"
#include "server/runtime/thread_pool.h"
#include "server/snapshot.h"
#include "swp/search.h"

namespace dbph {
namespace {

using core::DatabasePh;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;
using server::RelationSnapshot;
using server::SnapshotChunk;
using server::SnapshotMatch;

constexpr uint64_t kDefaultArenaCap = 0xffffffffull;

/// Restores the production cap no matter how the test exits.
struct ArenaCapGuard {
  explicit ArenaCapGuard(uint64_t cap) {
    SnapshotChunk::SetArenaCapForTesting(cap);
  }
  ~ArenaCapGuard() { SnapshotChunk::SetArenaCapForTesting(kDefaultArenaCap); }
};

class SnapshotSealTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = Schema::Create({
        {"name", ValueType::kString, 8},
        {"grp", ValueType::kInt64, 10},
    });
    ASSERT_TRUE(schema.ok());
    crypto::HmacDrbg rng("seal-test", 3);
    master_ = core::GenerateMasterKey(&rng);
    auto ph = DatabasePh::Create(*schema, master_);
    ASSERT_TRUE(ph.ok()) << ph.status();
    ph_ = std::make_unique<DatabasePh>(std::move(*ph));

    // 30 rows, grp cycling 0..2 — the grp=1 select matches the ten
    // positions congruent to 1 mod 3 (plus any SWP false positives,
    // which both paths must report identically).
    for (uint64_t i = 0; i < 30; ++i) {
      Tuple tuple({Value::Str("r" + std::to_string(i)),
                   Value::Int(static_cast<int64_t>(i % 3))});
      auto doc = ph_->EncryptTuple(tuple, &rng);
      ASSERT_TRUE(doc.ok()) << doc.status();
      Bytes bytes;
      doc->AppendTo(&bytes);
      doc_bytes_.push_back(std::move(bytes));
    }

    auto query = ph_->EncryptQuery("T", "grp", Value::Int(1));
    ASSERT_TRUE(query.ok()) << query.status();
    trapdoor_ = query->trapdoor;
  }

  /// Builds a snapshot over doc_bytes_ split into chunks of
  /// `docs_per_chunk`, sealing each under the CURRENT arena cap.
  std::shared_ptr<RelationSnapshot> BuildSnapshot(size_t docs_per_chunk) {
    auto snapshot = std::make_shared<RelationSnapshot>();
    snapshot->check_length = ph_->options().check_length;
    snapshot->num_docs = doc_bytes_.size();
    for (size_t first = 0; first < doc_bytes_.size();
         first += docs_per_chunk) {
      auto chunk = std::make_shared<SnapshotChunk>();
      const size_t end = std::min(first + docs_per_chunk, doc_bytes_.size());
      for (size_t i = first; i < end; ++i) {
        chunk->docs.push_back({/*rid_packed=*/i + 1, doc_bytes_[i]});
      }
      chunk->Seal();
      snapshot->chunk_first.push_back(first);
      snapshot->chunks.push_back(std::move(chunk));
    }
    return snapshot;
  }

  /// Runs the sharded scan and returns (position, rid) pairs in order.
  /// A null pool runs the shards inline, one after another.
  std::vector<std::pair<uint64_t, uint64_t>> ScanMatches(
      const RelationSnapshot& snapshot, size_t num_shards,
      server::runtime::ThreadPool* pool = nullptr) {
    std::vector<SnapshotMatch> matches;
    Status status = snapshot.Scan(trapdoor_, num_shards, pool, &matches);
    EXPECT_TRUE(status.ok()) << status;
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (const SnapshotMatch& match : matches) {
      out.emplace_back(match.position, match.rid_packed);
    }
    return out;
  }

  std::unique_ptr<DatabasePh> ph_;
  Bytes master_;
  std::vector<Bytes> doc_bytes_;
  swp::Trapdoor trapdoor_;
};

TEST_F(SnapshotSealTest, DefaultCapBuildsArenasAndFindsEveryMatch) {
  auto snapshot = BuildSnapshot(/*docs_per_chunk=*/7);
  for (const auto& chunk : snapshot->chunks) {
    EXPECT_TRUE(chunk->arena_built);
    EXPECT_EQ(chunk->word_first.size(), chunk->docs.size() + 1);
  }
  auto matches = ScanMatches(*snapshot, /*num_shards=*/3);
  // Every true match must be present (SWP guarantees no false
  // negatives); extras can only be false positives.
  size_t found = 0;
  for (uint64_t i = 1; i < doc_bytes_.size(); i += 3) {
    bool present = false;
    for (const auto& [position, rid] : matches) {
      if (position == i) {
        EXPECT_EQ(rid, i + 1);
        present = true;
      }
    }
    EXPECT_TRUE(present) << "position " << i;
    if (present) ++found;
  }
  EXPECT_EQ(found, doc_bytes_.size() / 3);
}

TEST_F(SnapshotSealTest, AnyShardCountAndPoolReproducesTheOneShardScan) {
  // One inline shard is by construction the sequential scan; every other
  // fan-out (including more shards than documents, which ScanShardCount
  // clamps) and a real worker pool must return the same matches and
  // document bytes, in storage order, on both match paths.
  server::runtime::ThreadPool pool(2);
  for (bool kernel : {true, false}) {
    auto snapshot = BuildSnapshot(/*docs_per_chunk=*/7);
    snapshot->use_scan_kernel = kernel;
    std::vector<SnapshotMatch> expected;
    ASSERT_TRUE(snapshot->Scan(trapdoor_, 1, nullptr, &expected).ok());
    ASSERT_FALSE(expected.empty());
    for (size_t num_shards : {2u, 3u, 7u, 30u, 500u}) {
      EXPECT_LE(snapshot->ScanShardCount(num_shards), doc_bytes_.size());
      for (server::runtime::ThreadPool* runner :
           {static_cast<server::runtime::ThreadPool*>(nullptr), &pool}) {
        std::vector<SnapshotMatch> got;
        ASSERT_TRUE(snapshot->Scan(trapdoor_, num_shards, runner, &got).ok());
        ASSERT_EQ(got.size(), expected.size())
            << num_shards << " shards, kernel " << kernel;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].position, expected[i].position);
          EXPECT_EQ(got[i].rid_packed, expected[i].rid_packed);
          Bytes a, b;
          got[i].doc.AppendTo(&a);
          expected[i].doc.AppendTo(&b);
          EXPECT_EQ(a, b);
        }
      }
    }
  }
}

TEST_F(SnapshotSealTest, TinyCapForcesScalarFallbackWithIdenticalResults) {
  auto kernel_snapshot = BuildSnapshot(/*docs_per_chunk=*/7);
  std::vector<std::pair<uint64_t, uint64_t>> kernel_matches =
      ScanMatches(*kernel_snapshot, /*num_shards=*/3);

  std::shared_ptr<RelationSnapshot> fallback_snapshot;
  {
    // Far below one document's word bytes: the very first ref overflows,
    // so every chunk ships arena-less.
    ArenaCapGuard guard(/*cap=*/4);
    fallback_snapshot = BuildSnapshot(/*docs_per_chunk=*/7);
  }
  for (const auto& chunk : fallback_snapshot->chunks) {
    EXPECT_FALSE(chunk->arena_built);
    EXPECT_TRUE(chunk->word_arena.empty());
    EXPECT_TRUE(chunk->word_refs.empty());
    EXPECT_TRUE(chunk->word_first.empty());
    // The rid lookup side of Seal is unaffected by the overflow.
    EXPECT_EQ(chunk->pos_in_chunk.size(), chunk->docs.size());
  }
  for (size_t num_shards : {1u, 3u, 8u}) {
    EXPECT_EQ(ScanMatches(*fallback_snapshot, num_shards), kernel_matches)
        << "num_shards=" << num_shards;
  }
}

TEST_F(SnapshotSealTest, MidBuildOverflowDiscardsThePartialArena) {
  // Cap sized so the first documents fit and a later ref crosses the
  // limit mid-build: the partially filled arena must be discarded, not
  // shipped half-complete.
  auto reference = BuildSnapshot(/*docs_per_chunk=*/30);
  ASSERT_EQ(reference->chunks.size(), 1u);
  ASSERT_TRUE(reference->chunks[0]->arena_built);
  const uint64_t full_arena = reference->chunks[0]->word_arena.size();
  ASSERT_GT(full_arena, 16u);

  std::shared_ptr<RelationSnapshot> snapshot;
  {
    ArenaCapGuard guard(/*cap=*/full_arena / 2);
    snapshot = BuildSnapshot(/*docs_per_chunk=*/30);
  }
  ASSERT_EQ(snapshot->chunks.size(), 1u);
  EXPECT_FALSE(snapshot->chunks[0]->arena_built);
  EXPECT_TRUE(snapshot->chunks[0]->word_arena.empty());
  EXPECT_TRUE(snapshot->chunks[0]->word_refs.empty());
  EXPECT_EQ(ScanMatches(*snapshot, /*num_shards=*/2),
            ScanMatches(*reference, /*num_shards=*/2));
}

TEST_F(SnapshotSealTest, MixedArenaAndFallbackChunksScanConsistently) {
  // One relation, three chunks, the middle one sealed over the cap: the
  // kernel sweep must drop to the scalar path for exactly that chunk and
  // the combined result must match an all-kernel snapshot. This is the
  // shape a real overflow produces — old chunks keep their arenas, the
  // oversized newcomer scans scalar.
  auto reference = BuildSnapshot(/*docs_per_chunk=*/10);
  ASSERT_EQ(reference->chunks.size(), 3u);

  auto mixed = std::make_shared<RelationSnapshot>();
  mixed->check_length = ph_->options().check_length;
  mixed->num_docs = doc_bytes_.size();
  for (size_t c = 0; c < 3; ++c) {
    auto chunk = std::make_shared<SnapshotChunk>();
    for (size_t i = c * 10; i < (c + 1) * 10; ++i) {
      chunk->docs.push_back({/*rid_packed=*/i + 1, doc_bytes_[i]});
    }
    if (c == 1) {
      ArenaCapGuard guard(/*cap=*/4);
      chunk->Seal();
      EXPECT_FALSE(chunk->arena_built);
    } else {
      chunk->Seal();
      EXPECT_TRUE(chunk->arena_built);
    }
    mixed->chunk_first.push_back(c * 10);
    mixed->chunks.push_back(std::move(chunk));
  }
  for (size_t num_shards : {1u, 2u, 5u}) {
    EXPECT_EQ(ScanMatches(*mixed, num_shards),
              ScanMatches(*reference, num_shards))
        << "num_shards=" << num_shards;
  }
}

TEST_F(SnapshotSealTest, FallbackPreservesParseErrorsExactly) {
  // A corrupted document must surface the same parse failure through the
  // scalar fallback as through the kernel path's wellformed gate.
  doc_bytes_[4] = ToBytes("not a document");
  auto kernel_snapshot = BuildSnapshot(/*docs_per_chunk=*/30);
  std::shared_ptr<RelationSnapshot> fallback_snapshot;
  {
    ArenaCapGuard guard(/*cap=*/4);
    fallback_snapshot = BuildSnapshot(/*docs_per_chunk=*/30);
  }
  std::vector<SnapshotMatch> kernel_matches;
  Status kernel_status = kernel_snapshot->Scan(trapdoor_, 1, nullptr,
                                               &kernel_matches);
  std::vector<SnapshotMatch> fallback_matches;
  Status fallback_status = fallback_snapshot->Scan(trapdoor_, 1, nullptr,
                                                   &fallback_matches);
  EXPECT_FALSE(kernel_status.ok());
  EXPECT_FALSE(fallback_status.ok());
  EXPECT_EQ(kernel_status.code(), fallback_status.code());
  EXPECT_EQ(kernel_status.message(), fallback_status.message());
}

}  // namespace
}  // namespace dbph
