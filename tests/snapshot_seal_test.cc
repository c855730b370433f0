// Sealed chunks are the server's only copy of its documents. These tests
// drive RelationSnapshot's chunk functions (AppendDocuments,
// RemovePositions) directly and check the chunk store against a plain
// vector model: row ids, the byte cap, chunk sharing across deletes, the
// position/row-id maps, and RelationSnapshot::Scan (the server's one
// trapdoor scan) against ScanReference, the scalar sweep kept as its
// oracle, at every shard count with and without a worker pool. The
// trapdoor memo is checked the same way: a memo hit (ScanFromMemo) must
// equal ScanReference whatever earlier state or replaced relation its
// entry was memoized from.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/prf.h"
#include "crypto/random.h"
#include "dbph/scheme.h"
#include "server/runtime/thread_pool.h"
#include "server/snapshot.h"
#include "swp/scheme.h"
#include "swp/search.h"

namespace dbph {
namespace {

using core::DatabasePh;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;
using server::kChunkBytes;
using server::RelationSnapshot;
using server::SealedChunk;
using server::SnapshotMatch;

Bytes Serialized(const swp::EncryptedDocument& doc) {
  Bytes out;
  doc.AppendTo(&out);
  return out;
}

/// Scan must equal ScanReference in positions, row ids, document bytes
/// and status, at 1, 2, 7, n and 500 shards, inline and on a pool, and
/// must evaluate every word slot exactly once.
void ExpectScanMatchesReference(const RelationSnapshot& rel,
                                const swp::Trapdoor& trapdoor,
                                server::runtime::ThreadPool* pool) {
  std::vector<SnapshotMatch> expected;
  const Status reference = rel.ScanReference(trapdoor, &expected);
  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{7},
                            std::max<size_t>(rel.num_docs, 1), size_t{500}}) {
    EXPECT_LE(rel.ScanShardCount(num_shards), std::max<size_t>(rel.num_docs, 1));
    for (server::runtime::ThreadPool* runner :
         {static_cast<server::runtime::ThreadPool*>(nullptr), pool}) {
      std::vector<SnapshotMatch> got;
      uint64_t match_evals = 0;
      const Status status =
          rel.Scan(trapdoor, 0, num_shards, runner, &got, &match_evals);
      ASSERT_EQ(status.code(), reference.code()) << status;
      EXPECT_EQ(match_evals, rel.word_slots) << num_shards << " shards";
      ASSERT_EQ(got.size(), expected.size()) << num_shards << " shards";
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].position, expected[i].position);
        EXPECT_EQ(got[i].row_id, expected[i].row_id);
        EXPECT_EQ(Serialized(got[i].doc), Serialized(expected[i].doc));
      }
    }
  }
}

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
    // which both scans must report identically).
    for (uint64_t i = 0; i < 30; ++i) {
      Tuple tuple({Value::Str("r" + std::to_string(i)),
                   Value::Int(static_cast<int64_t>(i % 3))});
      auto doc = ph_->EncryptTuple(tuple, &rng);
      ASSERT_TRUE(doc.ok()) << doc.status();
      docs_.push_back(std::move(*doc));
    }

    auto query = ph_->EncryptQuery("T", "grp", Value::Int(1));
    ASSERT_TRUE(query.ok()) << query.status();
    trapdoor_ = query->trapdoor;

    snapshot_.check_length = ph_->options().check_length;
    uint64_t next_row_id = 100;
    ASSERT_TRUE(snapshot_.AppendDocuments(docs_, &next_row_id).ok());
    ASSERT_EQ(next_row_id, 130u);
  }

  std::unique_ptr<DatabasePh> ph_;
  Bytes master_;
  std::vector<swp::EncryptedDocument> docs_;
  swp::Trapdoor trapdoor_;
  RelationSnapshot snapshot_;
};

TEST_F(SnapshotSealTest, ScanFindsEveryMatchWithItsRowId) {
  std::vector<SnapshotMatch> matches;
  ASSERT_TRUE(snapshot_.Scan(trapdoor_, 0, 3, nullptr, &matches).ok());
  // Every true match must be present (SWP guarantees no false
  // negatives); extras can only be false positives.
  size_t found = 0;
  for (uint64_t i = 1; i < docs_.size(); i += 3) {
    bool present = false;
    for (const SnapshotMatch& match : matches) {
      if (match.position == i) {
        EXPECT_EQ(match.row_id, 100 + i);
        EXPECT_EQ(Serialized(match.doc), Serialized(docs_[i]));
        present = true;
      }
    }
    EXPECT_TRUE(present) << "position " << i;
    if (present) ++found;
  }
  EXPECT_EQ(found, docs_.size() / 3);
}

TEST_F(SnapshotSealTest, AnyShardCountAndPoolReproducesTheOneShardScan) {
  // One inline shard is by construction the sequential scan; every other
  // fan-out (including more shards than documents, which ScanShardCount
  // clamps) and a real worker pool must return the same matches and
  // document bytes, in storage order.
  server::runtime::ThreadPool pool(2);
  std::vector<SnapshotMatch> expected;
  ASSERT_TRUE(snapshot_.Scan(trapdoor_, 0, 1, nullptr, &expected).ok());
  ASSERT_FALSE(expected.empty());
  for (size_t num_shards : {2u, 3u, 7u, 30u, 500u}) {
    EXPECT_LE(snapshot_.ScanShardCount(num_shards), docs_.size());
    for (server::runtime::ThreadPool* runner :
         {static_cast<server::runtime::ThreadPool*>(nullptr), &pool}) {
      std::vector<SnapshotMatch> got;
      ASSERT_TRUE(snapshot_.Scan(trapdoor_, 0, num_shards, runner, &got).ok());
      ASSERT_EQ(got.size(), expected.size()) << num_shards << " shards";
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].position, expected[i].position);
        EXPECT_EQ(got[i].row_id, expected[i].row_id);
        EXPECT_EQ(Serialized(got[i].doc), Serialized(expected[i].doc));
      }
    }
  }
  ExpectScanMatchesReference(snapshot_, trapdoor_, &pool);
}

/// Deterministic xorshift stream so failures reproduce.
class TestRng {
 public:
  explicit TestRng(uint64_t seed) : state_(seed | 1) {}
  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  Bytes NextBytes(size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<uint8_t>(Next());
    return out;
  }

 private:
  uint64_t state_;
};

/// One stored row of the vector model.
struct ModelRow {
  uint64_t row_id = 0;
  Bytes bytes;
  size_t words = 0;
};

/// Every structural property of the chunk store, against the model.
void ExpectMatchesModel(const RelationSnapshot& rel,
                        const std::vector<ModelRow>& model,
                        const std::set<uint64_t>& deleted,
                        uint64_t next_row_id) {
  ASSERT_EQ(rel.num_docs, model.size());
  ASSERT_EQ(rel.chunk_first.size(), rel.chunks.size());
  uint64_t position = 0;
  uint64_t word_slots = 0;
  for (size_t c = 0; c < rel.chunks.size(); ++c) {
    const SealedChunk& chunk = *rel.chunks[c];
    ASSERT_GT(chunk.size(), 0u) << "empty chunk " << c;
    EXPECT_EQ(rel.chunk_first[c], position);
    EXPECT_TRUE(chunk.bytes.size() <= kChunkBytes || chunk.size() == 1)
        << "chunk " << c << " holds " << chunk.size() << " documents in "
        << chunk.bytes.size() << " bytes";
    ASSERT_EQ(chunk.doc_begin.size(), chunk.size() + 1);
    ASSERT_EQ(chunk.word_first.size(), chunk.size() + 1);
    EXPECT_EQ(chunk.doc_begin.back(), chunk.bytes.size());
    EXPECT_EQ(chunk.word_first.back(), chunk.word_refs.size());
    for (size_t d = 0; d < chunk.size(); ++d, ++position) {
      const ModelRow& row = model[position];
      const std::span<const uint8_t> doc = rel.doc(position);
      EXPECT_EQ(Bytes(doc.begin(), doc.end()), row.bytes) << position;
      EXPECT_EQ(rel.row_id(position), row.row_id);
      EXPECT_EQ(rel.PositionOf(row.row_id), position);
      if (position > 0) {
        EXPECT_GT(row.row_id, model[position - 1].row_id);
      }
      // The word refs point at exactly the parsed document's words.
      auto parsed = rel.ParseDoc(position);
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      ASSERT_EQ(chunk.word_first[d + 1] - chunk.word_first[d],
                parsed->words.size());
      for (size_t w = 0; w < parsed->words.size(); ++w) {
        const swp::WordRef& ref = chunk.word_refs[chunk.word_first[d] + w];
        EXPECT_EQ(Bytes(chunk.bytes.begin() + ref.offset,
                        chunk.bytes.begin() + ref.offset + ref.length),
                  parsed->words[w]);
      }
      word_slots += row.words;
    }
  }
  EXPECT_EQ(rel.word_slots, word_slots);
  for (uint64_t row_id : deleted) {
    EXPECT_EQ(rel.PositionOf(row_id), RelationSnapshot::kNotFound) << row_id;
  }
  EXPECT_EQ(rel.PositionOf(next_row_id), RelationSnapshot::kNotFound);
}

TEST(ChunkStorePropertyTest, RandomAppendsAndDeletesMatchAVectorModel) {
  // Large SWP words (every one the trapdoors' length, so each slot is one
  // PRF evaluation) reach layouts of many chunks with few documents, and
  // an occasional document larger than kChunkBytes gets a chunk alone.
  swp::SwpParams params;
  params.word_length = 600;
  params.check_length = 4;
  auto scheme = swp::CreateScheme(swp::SchemeVariant::kFinal, params,
                                  ToBytes("chunk property master"));
  ASSERT_TRUE(scheme.ok()) << scheme.status();
  TestRng rng(0x5eed);
  std::vector<Bytes> vocabulary;
  std::vector<swp::Trapdoor> trapdoors;
  for (int i = 0; i < 3; ++i) {
    vocabulary.push_back(rng.NextBytes(params.word_length));
    auto trapdoor = (*scheme)->MakeTrapdoor(vocabulary.back());
    ASSERT_TRUE(trapdoor.ok()) << trapdoor.status();
    trapdoors.push_back(std::move(*trapdoor));
  }
  const size_t oversized_words = kChunkBytes / params.word_length + 2;
  const auto make_doc = [&](size_t num_words) {
    swp::EncryptedDocument doc;
    doc.nonce = rng.NextBytes(16);
    crypto::StreamGenerator stream(ToBytes("chunk property stream"),
                                   doc.nonce);
    for (size_t w = 0; w < num_words; ++w) {
      auto word = (*scheme)->EncryptWord(
          stream, w, vocabulary[rng.Below(vocabulary.size())]);
      EXPECT_TRUE(word.ok()) << word.status();
      doc.words.push_back(std::move(*word));
    }
    doc.tag = rng.NextBytes(32);
    return doc;
  };

  RelationSnapshot rel;
  rel.check_length = static_cast<uint32_t>(params.check_length);
  std::vector<ModelRow> model;
  std::set<uint64_t> deleted;
  uint64_t next_row_id = 7;
  uint64_t issued_below = next_row_id;
  server::runtime::ThreadPool pool(2);
  size_t max_chunks = 0;
  bool saw_oversized = false;

  for (int step = 0; step < 36; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (model.empty() || rng.Below(3) != 0) {
      std::vector<swp::EncryptedDocument> docs;
      const size_t count = 1 + rng.Below(10);
      for (size_t i = 0; i < count; ++i) {
        docs.push_back(make_doc(rng.Below(12) == 0 ? oversized_words
                                                   : 1 + rng.Below(6)));
      }
      const uint64_t first = next_row_id;
      ASSERT_TRUE(rel.AppendDocuments(docs, &next_row_id).ok());
      ASSERT_EQ(next_row_id, first + docs.size());
      // Row ids rise and are never reused: each append starts above
      // every id issued before it.
      EXPECT_GE(first, issued_below);
      issued_below = next_row_id;
      for (size_t i = 0; i < docs.size(); ++i) {
        model.push_back({first + i, Serialized(docs[i]), docs[i].words.size()});
        saw_oversized = saw_oversized || docs[i].words.size() == oversized_words;
      }
    } else {
      // Delete a random subset, sometimes with every row of one chunk.
      std::vector<uint8_t> doomed(model.size(), 0);
      for (size_t pos = 0; pos < model.size(); ++pos) {
        doomed[pos] = rng.Below(4) == 0;
      }
      if (rng.Below(2) == 0) {
        const size_t c = rng.Below(rel.chunks.size());
        for (size_t d = 0; d < rel.chunks[c]->size(); ++d) {
          doomed[rel.chunk_first[c] + d] = 1;
        }
      }
      std::vector<uint64_t> positions;
      for (size_t pos = 0; pos < model.size(); ++pos) {
        if (doomed[pos]) positions.push_back(pos);
      }
      const RelationSnapshot before = rel;
      rel.RemovePositions(positions);
      // Chunks that lost no row are shared (same pointer); chunks that
      // lost rows are rebuilt or, when emptied, dropped.
      for (size_t c = 0; c < before.chunks.size(); ++c) {
        bool touched = false;
        for (size_t d = 0; d < before.chunks[c]->size(); ++d) {
          touched = touched || doomed[before.chunk_first[c] + d];
        }
        const bool kept = std::find(rel.chunks.begin(), rel.chunks.end(),
                                    before.chunks[c]) != rel.chunks.end();
        EXPECT_EQ(kept, !touched) << "chunk " << c;
      }
      std::vector<ModelRow> survivors;
      for (size_t pos = 0; pos < model.size(); ++pos) {
        if (doomed[pos]) {
          deleted.insert(model[pos].row_id);
        } else {
          survivors.push_back(std::move(model[pos]));
        }
      }
      model = std::move(survivors);
    }
    ExpectMatchesModel(rel, model, deleted, next_row_id);
    if (::testing::Test::HasFatalFailure()) return;
    max_chunks = std::max(max_chunks, rel.chunks.size());
    if (step % 3 == 2) {
      for (const swp::Trapdoor& trapdoor : trapdoors) {
        ExpectScanMatchesReference(rel, trapdoor, &pool);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // The walk reached the layouts it exists to check.
  EXPECT_GE(max_chunks, 4u);
  EXPECT_TRUE(saw_oversized);
  EXPECT_FALSE(deleted.empty());
}

/// Exactly what ScanReference returns on `rel`: positions, row ids,
/// document bytes and order.
void ExpectSameAsReference(const RelationSnapshot& rel,
                           const swp::Trapdoor& trapdoor,
                           const std::vector<SnapshotMatch>& got) {
  std::vector<SnapshotMatch> expected;
  ASSERT_TRUE(rel.ScanReference(trapdoor, &expected).ok());
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].position, expected[i].position);
    EXPECT_EQ(got[i].row_id, expected[i].row_id);
    EXPECT_EQ(Serialized(got[i].doc), Serialized(expected[i].doc));
  }
}

TEST(TrapdoorMemoPropertyTest, HitsFromAnyEarlierStateOrLineageAreExact) {
  // One relation lineage under random appends and deletes. At random
  // steps a trapdoor's answer is memoized from a random earlier state (a
  // reader pinned on an old snapshot) or from a dropped relation that
  // drew its row ids from the same counter (a drop and re-store). Every
  // held entry must then answer like a full scan of the current state.
  swp::SwpParams params;
  params.word_length = 16;
  params.check_length = 4;
  auto scheme = swp::CreateScheme(swp::SchemeVariant::kFinal, params,
                                  ToBytes("memo property master"));
  ASSERT_TRUE(scheme.ok()) << scheme.status();
  TestRng rng(0x3e30);
  std::vector<Bytes> vocabulary;
  std::vector<swp::Trapdoor> trapdoors;
  std::vector<Bytes> trapdoor_bytes;
  for (int i = 0; i < 4; ++i) {
    vocabulary.push_back(rng.NextBytes(params.word_length));
    auto trapdoor = (*scheme)->MakeTrapdoor(vocabulary.back());
    ASSERT_TRUE(trapdoor.ok()) << trapdoor.status();
    trapdoors.push_back(std::move(*trapdoor));
    trapdoor_bytes.emplace_back();
    trapdoors.back().AppendTo(&trapdoor_bytes.back());
  }
  const auto make_docs = [&](size_t count) {
    std::vector<swp::EncryptedDocument> docs(count);
    for (swp::EncryptedDocument& doc : docs) {
      doc.nonce = rng.NextBytes(16);
      crypto::StreamGenerator stream(ToBytes("memo property stream"),
                                     doc.nonce);
      const size_t num_words = 1 + rng.Below(3);
      for (size_t w = 0; w < num_words; ++w) {
        auto word = (*scheme)->EncryptWord(
            stream, w, vocabulary[rng.Below(vocabulary.size())]);
        EXPECT_TRUE(word.ok()) << word.status();
        doc.words.push_back(std::move(*word));
      }
      doc.tag = rng.NextBytes(32);
    }
    return docs;
  };
  server::runtime::ThreadPool pool(2);
  uint64_t next_row_id = 1;

  // The answer a reader pinned on `state` gets: a hit when its memo holds
  // the trapdoor, else a full scan.
  const auto answer_on = [&](const RelationSnapshot& state, size_t t) {
    std::vector<SnapshotMatch> matches;
    bool refresh = false;
    const server::TrapdoorIndex::Entry* entry =
        state.index->Find(trapdoor_bytes[t]);
    const Status status =
        entry != nullptr
            ? state.ScanFromMemo(*entry, trapdoors[t], 3, &pool, &matches,
                                 nullptr, &refresh)
            : state.Scan(trapdoors[t], 0, 3, &pool, &matches);
    EXPECT_TRUE(status.ok()) << status;
    return matches;
  };

  // A dropped lineage: its states predate every row of the main one.
  std::vector<RelationSnapshot> dropped;
  {
    RelationSnapshot old;
    old.check_length = static_cast<uint32_t>(params.check_length);
    old.index = std::make_shared<const server::TrapdoorIndex>();
    for (int step = 0; step < 4; ++step) {
      ASSERT_TRUE(
          old.AppendDocuments(make_docs(1 + rng.Below(5)), &next_row_id).ok());
      if (step == 2) old.RemovePositions({0});
      const size_t t = rng.Below(trapdoors.size());
      if (auto next = old.WithMemo(old, trapdoor_bytes[t],
                                   answer_on(old, t))) {
        old = *next;
      }
      dropped.push_back(old);
    }
  }

  RelationSnapshot rel;
  rel.check_length = static_cast<uint32_t>(params.check_length);
  rel.index = std::make_shared<const server::TrapdoorIndex>();
  std::vector<RelationSnapshot> history = {rel};
  std::vector<ModelRow> model;
  size_t refreshes = 0, from_lineage = 0, stale_hits = 0;

  for (int step = 0; step < 80; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t action = rng.Below(8);
    if (action < 3 || model.empty()) {
      std::vector<swp::EncryptedDocument> docs = make_docs(1 + rng.Below(6));
      const uint64_t first = next_row_id;
      ASSERT_TRUE(rel.AppendDocuments(docs, &next_row_id).ok());
      for (size_t i = 0; i < docs.size(); ++i) {
        model.push_back({first + i, Serialized(docs[i]), docs[i].words.size()});
      }
      history.push_back(rel);
    } else if (action < 5) {
      std::vector<uint64_t> positions;
      std::vector<ModelRow> survivors;
      for (size_t pos = 0; pos < model.size(); ++pos) {
        if (rng.Below(4) == 0) {
          positions.push_back(pos);
        } else {
          survivors.push_back(model[pos]);
        }
      }
      rel.RemovePositions(positions);
      model = std::move(survivors);
      history.push_back(rel);
    } else {
      // Memoize one trapdoor's answer from an earlier state of this
      // lineage, or now and then from the dropped one.
      const size_t t = rng.Below(trapdoors.size());
      const bool lineage = rng.Below(4) == 0;
      if (lineage) ++from_lineage;
      const RelationSnapshot& scanned =
          lineage ? dropped[rng.Below(dropped.size())]
                  : history[rng.Below(history.size())];
      const std::shared_ptr<const server::TrapdoorIndex> before = rel.index;
      const server::TrapdoorIndex::Entry* held =
          before->Find(trapdoor_bytes[t]);
      const uint64_t held_watermark = held != nullptr ? held->watermark : 0;
      std::shared_ptr<RelationSnapshot> next =
          rel.WithMemo(scanned, trapdoor_bytes[t], answer_on(scanned, t));
      if (next != nullptr) {
        ++refreshes;
        const server::TrapdoorIndex& after = *next->index;
        ASSERT_EQ(after.num_trapdoors(),
                  before->num_trapdoors() + (held != nullptr ? 0 : 1));
        EXPECT_EQ(after.memoized(), before->memoized() + 1);
        // Only the memoized trapdoor's entry is new; every other entry is
        // the previous index's, by pointer.
        for (const auto& entry : before->entries()) {
          if (entry->trapdoor_bytes == trapdoor_bytes[t]) continue;
          EXPECT_NE(std::find(after.entries().begin(), after.entries().end(),
                              entry),
                    after.entries().end());
        }
        EXPECT_GE(after.Find(trapdoor_bytes[t])->watermark, held_watermark);
        rel = *next;
        history.push_back(rel);
      }
      // The chunks are shared, not copied.
      ASSERT_EQ(rel.chunks, history.back().chunks);
    }

    // Every held entry answers exactly, and EXPLAIN's figures hold.
    for (size_t t = 0; t < trapdoors.size(); ++t) {
      const server::TrapdoorIndex::Entry* entry =
          rel.index->Find(trapdoor_bytes[t]);
      if (entry == nullptr) continue;
      uint64_t live = 0, tail_slots = 0;
      bool tail = false;
      for (const ModelRow& row : model) {
        if (row.row_id >= entry->watermark) {
          tail_slots += row.words;
          tail = true;
        } else if (std::binary_search(entry->row_ids.begin(),
                                      entry->row_ids.end(), row.row_id)) {
          ++live;
        }
      }
      EXPECT_EQ(rel.LiveRows(*entry), live);
      EXPECT_EQ(rel.WordSlotsFrom(entry->watermark), tail_slots);
      for (size_t num_shards : {size_t{1}, size_t{3}}) {
        std::vector<SnapshotMatch> got;
        uint64_t match_evals = 0;
        bool refresh = false;
        ASSERT_TRUE(rel.ScanFromMemo(*entry, trapdoors[t], num_shards, &pool,
                                     &got, &match_evals, &refresh)
                        .ok());
        EXPECT_EQ(match_evals, tail_slots);
        EXPECT_EQ(refresh, tail || live < entry->row_ids.size());
        stale_hits += refresh;
        ExpectSameAsReference(rel, trapdoors[t], got);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // The walk reached the cases it exists to check.
  EXPECT_GE(refreshes, 8u);
  EXPECT_GE(from_lineage, 2u);
  EXPECT_GE(stale_hits, 8u);
  EXPECT_EQ(rel.index->num_trapdoors(), trapdoors.size());
}

}  // namespace
}  // namespace dbph
