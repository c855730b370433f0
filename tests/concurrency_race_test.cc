// Read/write race suite for the snapshot (MVCC) read path: N reader
// threads run verified selects against a stable relation while a writer
// thread churns another relation and stats/leakage surfaces are polled
// concurrently — all through one shared UntrustedServer. Run under TSan
// in CI (scripts/ci.sh), where any lock-discipline regression in the
// snapshot publication / observation staging machinery becomes a hard
// failure rather than a flake.
//
// Invariants checked:
//   - snapshot consistency: the writer only ever inserts/removes whole
//     matched PAIRS in single mutations, so every racing reader (and
//     every entry in Eve's observation log) must see an even match
//     count — an odd count is a torn read;
//   - Enforce-mode verification: readers verifying Merkle proofs against
//     their mirrored root succeed throughout the churn;
//   - observation-log serializability: after joining, the log holds
//     exactly one well-formed entry per executed query, as if the
//     queries had arrived one at a time.
//
// A second case races readers against a thread sending mixed batches,
// whose read legs publish and read while the batch holds the dispatch
// lock (and memoize without re-locking it).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "protocol/messages.h"
#include "protocol/plan_report.h"
#include "server/untrusted_server.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

constexpr char kMaster[] = "race master key";

Schema TableSchema() {
  auto schema = Schema::Create({
      {"name", ValueType::kString, 8},
      {"grp", ValueType::kInt64, 10},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

Relation BuildStable() {
  // grp cycles 0,1,2 — selecting grp=1 always matches exactly a third.
  Relation table("Stable", TableSchema());
  for (int i = 0; i < 45; ++i) {
    EXPECT_TRUE(table
                    .Insert({Value::Str("s" + std::to_string(i)),
                             Value::Int(int64_t(i % 3))})
                    .ok());
  }
  return table;
}

client::Transport InProcess(server::UntrustedServer* eve) {
  return [eve](const Bytes& request) { return eve->HandleRequest(request); };
}

TEST(ConcurrencyRaceTest, VerifiedReadersRaceWriterWithoutTearsOrLockups) {
  server::UntrustedServer eve;

  // The owner outsources both relations under Enforce (attesting roots)
  // and will be the single writer thread.
  crypto::HmacDrbg owner_rng("race-owner", 1);
  client::Client owner(ToBytes(kMaster), InProcess(&eve), &owner_rng);
  owner.set_verify_mode(client::VerifyMode::kEnforce);
  ASSERT_TRUE(owner.Outsource(BuildStable()).ok());
  ASSERT_TRUE(owner.Outsource(Relation("Churn", TableSchema())).ok());
  // Memoize grp = 7 while Churn is empty: every tear read below is then a
  // memo hit that scans the rows appended since and drops the deleted
  // ones, and its refresh races the writer for the dispatch lock.
  auto empty = owner.Select("Churn", "grp", Value::Int(7));
  ASSERT_TRUE(empty.ok()) << empty.status();
  ASSERT_TRUE(empty->empty());

  constexpr int kReaders = 3;        // Enforce-verified selects on Stable
  constexpr int kReaderSelects = 20;
  constexpr int kTearReaders = 2;    // parity-checking selects on Churn
  constexpr int kTearSelects = 25;
  constexpr int kWriterPairs = 12;   // pair inserts into Churn
  constexpr int kWriterDeletes = 4;  // whole-pair deletes from Churn
  constexpr int kStatsPolls = 15;

  // gtest EXPECT/ASSERT are not thread-safe; worker threads count
  // anomalies into atomics and the main thread asserts after the join.
  std::atomic<int> reader_failures{0};
  std::atomic<int> tear_failures{0};
  std::atomic<int> stats_failures{0};
  std::atomic<int> writer_failures{0};

  std::vector<std::thread> threads;

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      crypto::HmacDrbg rng("race-reader-" + std::to_string(r), 2);
      client::Client reader(ToBytes(kMaster), InProcess(&eve), &rng);
      reader.set_verify_mode(client::VerifyMode::kEnforce);
      if (!reader.Adopt("Stable", TableSchema()).ok() ||
          !reader.SyncIntegrity("Stable", /*require_signature=*/true).ok()) {
        reader_failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kReaderSelects; ++i) {
        auto rows = reader.Select("Stable", "grp", Value::Int(1));
        if (!rows.ok() || rows->size() != 15u) {
          reader_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  for (int t = 0; t < kTearReaders; ++t) {
    threads.emplace_back([&, t] {
      crypto::HmacDrbg rng("race-tear-" + std::to_string(t), 3);
      client::Client reader(ToBytes(kMaster), InProcess(&eve), &rng);
      if (!reader.Adopt("Churn", TableSchema()).ok()) {
        tear_failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kTearSelects; ++i) {
        auto rows = reader.Select("Churn", "grp", Value::Int(7));
        if (!rows.ok() || rows->size() % 2 != 0) {
          tear_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  threads.emplace_back([&] {
    // Stats and leakage surfaces are snapshot reads too; poll them from
    // their own thread the whole time.
    for (int i = 0; i < kStatsPolls; ++i) {
      obs::RegistrySnapshot stats = eve.CollectStats();
      if (stats.counters.empty()) stats_failures.fetch_add(1);
      protocol::Envelope probe;
      probe.type = protocol::MessageType::kStats;
      auto reply = protocol::Envelope::Parse(eve.HandleRequest(
          probe.Serialize()));
      if (!reply.ok() ||
          reply->type != protocol::MessageType::kStatsResult) {
        stats_failures.fetch_add(1);
      }
    }
  });

  threads.emplace_back([&] {
    // Both tuples of pair i share the name "p<i>", so the pair inserts
    // in ONE mutation and deletes in ONE mutation — match-count parity
    // on grp=7 holds at every published snapshot.
    for (int i = 0; i < kWriterPairs; ++i) {
      std::string pair = "p" + std::to_string(i);
      if (!owner
               .Insert("Churn", {Tuple({Value::Str(pair), Value::Int(7)}),
                                 Tuple({Value::Str(pair), Value::Int(7)})})
               .ok()) {
        writer_failures.fetch_add(1);
        return;
      }
      if (i >= 8 && i - 8 < kWriterDeletes) {
        auto removed =
            owner.DeleteWhere("Churn", "name",
                              Value::Str("p" + std::to_string(i - 8)));
        if (!removed.ok() || *removed != 2u) {
          writer_failures.fetch_add(1);
          return;
        }
      }
    }
  });

  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_EQ(tear_failures.load(), 0);
  EXPECT_EQ(stats_failures.load(), 0);
  EXPECT_EQ(writer_failures.load(), 0);

  // Quiescent ground truth: the pair arithmetic held end to end.
  auto final_rows = owner.Select("Churn", "grp", Value::Int(7));
  ASSERT_TRUE(final_rows.ok()) << final_rows.status();
  EXPECT_EQ(final_rows->size(), 2u * (kWriterPairs - kWriterDeletes));

  // Observation-log serializability: one entry per executed query (the
  // memoizing select before the race and the final-state select
  // included), every entry well-formed, and the tear invariant visible in
  // Eve's own transcript — Churn selects always observed an even number
  // of matched records.
  const auto& queries = eve.observations().queries();
  const size_t expected =
      size_t(kReaders) * kReaderSelects + size_t(kTearReaders) * kTearSelects +
      kWriterDeletes + 2;
  EXPECT_EQ(queries.size(), expected);
  EXPECT_EQ(eve.observations().aggregate().num_queries, expected);
  for (const auto& q : queries) {
    EXPECT_FALSE(q.trapdoor_bytes.empty());
    if (q.relation == "Stable") {
      EXPECT_EQ(q.matched_records.size(), 15u);
    } else {
      EXPECT_EQ(q.relation, "Churn");
      EXPECT_EQ(q.matched_records.size() % 2, 0u);
    }
  }
}

protocol::Envelope QueryEnvelope(protocol::MessageType type,
                                 const core::EncryptedQuery& query) {
  protocol::Envelope envelope;
  envelope.type = type;
  query.AppendTo(&envelope.payload);
  return envelope;
}

/// The leading uint32 of a select or delete result: the row count.
uint32_t LeadingCount(const protocol::Envelope& envelope) {
  ByteReader reader(envelope.payload);
  auto count = reader.ReadUint32();
  return count.ok() ? *count : ~0u;
}

TEST(ConcurrencyRaceTest, MixedBatchesRaceReadersWithoutTears) {
  server::UntrustedServer eve;
  crypto::HmacDrbg owner_rng("race-mixed-owner", 4);
  client::Client owner(ToBytes(kMaster), InProcess(&eve), &owner_rng);
  ASSERT_TRUE(owner.Outsource(BuildStable()).ok());
  // Mixed starts with two whole grp=7 pairs.
  Relation mixed("Mixed", TableSchema());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        mixed.Insert({Value::Str("b" + std::to_string(i / 2)), Value::Int(7)})
            .ok());
  }
  ASSERT_TRUE(owner.Outsource(mixed).ok());

  constexpr int kBatches = 12;
  constexpr int kTearReaders = 2;  // parity-checking selects on Mixed
  constexpr int kTearSelects = 25;
  constexpr int kStableSelects = 20;

  // Every batch appends pair m<b>, selects, EXPLAINs, deletes the pair
  // and selects again — all envelopes built before any thread starts.
  auto scheme = owner.SchemeFor("Mixed");
  ASSERT_TRUE(scheme.ok()) << scheme.status();
  auto seven = (*scheme)->EncryptQuery("Mixed", "grp", Value::Int(7));
  ASSERT_TRUE(seven.ok()) << seven.status();
  crypto::HmacDrbg doc_rng("race-mixed-docs", 5);
  std::vector<Bytes> batches;
  for (int b = 0; b < kBatches; ++b) {
    const std::string pair = "m" + std::to_string(b);
    protocol::Envelope append;
    append.type = protocol::MessageType::kAppendTuples;
    AppendLengthPrefixed(&append.payload, ToBytes("Mixed"));
    AppendUint32(&append.payload, 2);
    for (int i = 0; i < 2; ++i) {
      auto doc = (*scheme)->EncryptTuple(
          Tuple({Value::Str(pair), Value::Int(7)}), &doc_rng);
      ASSERT_TRUE(doc.ok()) << doc.status();
      doc->AppendTo(&append.payload);
    }
    auto named = (*scheme)->EncryptQuery("Mixed", "name", Value::Str(pair));
    ASSERT_TRUE(named.ok()) << named.status();
    protocol::Envelope batch;
    batch.type = protocol::MessageType::kBatchRequest;
    batch.payload = protocol::SerializeBatchPayload(
        {append, QueryEnvelope(protocol::MessageType::kSelect, *seven),
         QueryEnvelope(protocol::MessageType::kExplain, *seven),
         QueryEnvelope(protocol::MessageType::kDeleteWhere, *named),
         QueryEnvelope(protocol::MessageType::kSelect, *seven)});
    batches.push_back(batch.Serialize());
  }

  std::atomic<int> batch_failures{0};
  std::atomic<int> tear_failures{0};
  std::atomic<int> stable_failures{0};
  std::vector<std::thread> threads;

  threads.emplace_back([&] {
    for (const Bytes& batch : batches) {
      auto response = protocol::Envelope::Parse(eve.HandleRequest(batch));
      if (!response.ok() ||
          response->type != protocol::MessageType::kBatchResponse) {
        batch_failures.fetch_add(1);
        continue;
      }
      auto replies = protocol::ParseBatchPayload(response->payload);
      if (!replies.ok() || replies->size() != 5 ||
          (*replies)[0].type != protocol::MessageType::kAppendOk ||
          (*replies)[1].type != protocol::MessageType::kSelectResult ||
          LeadingCount((*replies)[1]) != 6u ||
          (*replies)[2].type != protocol::MessageType::kExplainResult ||
          (*replies)[3].type != protocol::MessageType::kDeleteResult ||
          LeadingCount((*replies)[3]) != 2u ||
          (*replies)[4].type != protocol::MessageType::kSelectResult ||
          LeadingCount((*replies)[4]) != 4u) {
        batch_failures.fetch_add(1);
        continue;
      }
      // The first select leg memoized under the held lock, so the
      // EXPLAIN leg after it takes the index path.
      ByteReader reader((*replies)[2].payload);
      auto plan = protocol::PlanReport::ReadFrom(&reader);
      if (!plan.ok() ||
          plan->access_path != protocol::PlanAccessPath::kIndexLookup) {
        batch_failures.fetch_add(1);
      }
    }
  });

  for (int t = 0; t < kTearReaders; ++t) {
    threads.emplace_back([&, t] {
      crypto::HmacDrbg rng("race-mixed-tear-" + std::to_string(t), 6);
      client::Client reader(ToBytes(kMaster), InProcess(&eve), &rng);
      if (!reader.Adopt("Mixed", TableSchema()).ok()) {
        tear_failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kTearSelects; ++i) {
        auto rows = reader.Select("Mixed", "grp", Value::Int(7));
        if (!rows.ok() || (rows->size() != 4u && rows->size() != 6u)) {
          tear_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  threads.emplace_back([&] {
    crypto::HmacDrbg rng("race-mixed-stable", 7);
    client::Client reader(ToBytes(kMaster), InProcess(&eve), &rng);
    if (!reader.Adopt("Stable", TableSchema()).ok()) {
      stable_failures.fetch_add(1);
      return;
    }
    for (int i = 0; i < kStableSelects; ++i) {
      auto rows = reader.Select("Stable", "grp", Value::Int(1));
      if (!rows.ok() || rows->size() != 15u) {
        stable_failures.fetch_add(1);
        return;
      }
    }
  });

  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(batch_failures.load(), 0);
  EXPECT_EQ(tear_failures.load(), 0);
  EXPECT_EQ(stable_failures.load(), 0);

  auto final_rows = owner.Select("Mixed", "grp", Value::Int(7));
  ASSERT_TRUE(final_rows.ok()) << final_rows.status();
  EXPECT_EQ(final_rows->size(), 4u);

  // One entry per executed query: readers, two selects and a delete per
  // batch, and the final select. Mixed entries always saw whole pairs.
  const auto& queries = eve.observations().queries();
  EXPECT_EQ(queries.size(), size_t(kTearReaders) * kTearSelects +
                                kStableSelects + 3 * size_t(kBatches) + 1);
  for (const auto& q : queries) {
    if (q.relation == "Stable") {
      EXPECT_EQ(q.matched_records.size(), 15u);
    } else {
      EXPECT_EQ(q.relation, "Mixed");
      EXPECT_EQ(q.matched_records.size() % 2, 0u);
    }
  }
}

}  // namespace
}  // namespace dbph
