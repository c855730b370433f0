// The parallel batch runtime must be a pure performance feature: batched
// and sharded execution has to produce byte-identical results and an
// unchanged observation log relative to one-at-a-time selects, under any
// thread/shard configuration and under concurrent clients. A mixed batch
// (mutating and read legs) must answer exactly like the same envelopes
// sent one at a time.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "dbph/scheme.h"
#include "protocol/messages.h"
#include "protocol/plan_report.h"
#include "server/runtime/thread_pool.h"
#include "server/untrusted_server.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Value;
using rel::ValueType;

Schema TableSchema() {
  auto s = Schema::Create({
      {"key", ValueType::kString, 8},
      {"grp", ValueType::kInt64, 10},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

/// `n` rows, grp = i % 10 (each group matches n/10 rows).
Relation BuildTable(size_t n) {
  Relation table("T", TableSchema());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table.Insert({Value::Str("k" + std::to_string(i)),
                              Value::Int(static_cast<int64_t>(i % 10))})
                    .ok());
  }
  return table;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  server::runtime::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForFromWithinATaskDoesNotDeadlock) {
  server::runtime::ThreadPool pool(2);
  std::atomic<int> total{0};
  // Nested waves: the outer caller participates, so even a fully busy
  // pool makes progress.
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

/// Deploys one (server, client) pair over deterministic randomness so two
/// deployments hold byte-identical ciphertext.
struct Deployment {
  explicit Deployment(server::ServerRuntimeOptions options = {})
      : server(options),
        rng("parallel-fixture", 7),
        client(ToBytes("master"),
               [this](const Bytes& request) {
                 return server.HandleRequest(request);
               },
               &rng) {}

  server::UntrustedServer server;
  crypto::HmacDrbg rng;
  client::Client client;
};

TEST(BatchSelectTest, BatchedResultsAndLogMatchSequential) {
  server::ServerRuntimeOptions parallel;
  parallel.num_threads = 4;
  Deployment seq;        // default runtime
  Deployment par(parallel);
  Relation table = BuildTable(200);
  ASSERT_TRUE(seq.client.Outsource(table).ok());
  ASSERT_TRUE(par.client.Outsource(table).ok());

  std::vector<std::pair<std::string, Value>> queries;
  for (int g = 0; g < 10; ++g) queries.emplace_back("grp", Value::Int(g));

  // Sequential baseline: one Select per query.
  std::vector<Relation> expected;
  for (const auto& [attribute, value] : queries) {
    auto r = seq.client.Select("T", attribute, value);
    ASSERT_TRUE(r.ok()) << r.status();
    expected.push_back(std::move(*r));
  }
  // One batched round trip.
  auto got = par.client.SelectBatch("T", queries);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*got)[i].size(), expected[i].size()) << "query " << i;
    EXPECT_TRUE((*got)[i].SameTuples(expected[i])) << "query " << i;
  }

  // Eve's view is unchanged: same number of query observations, and the
  // matched identities per query are identical (ciphertexts are
  // byte-identical across the two deployments by DRBG construction).
  const auto& seq_log = seq.server.observations().queries();
  const auto& par_log = par.server.observations().queries();
  ASSERT_EQ(par_log.size(), seq_log.size());
  for (size_t i = 0; i < seq_log.size(); ++i) {
    EXPECT_EQ(par_log[i].relation, seq_log[i].relation);
    EXPECT_EQ(par_log[i].trapdoor_bytes, seq_log[i].trapdoor_bytes);
    EXPECT_EQ(par_log[i].matched_records, seq_log[i].matched_records);
  }
}

TEST(BatchSelectTest, UnknownRelationFailsBatchWithoutLogging) {
  Deployment d;
  ASSERT_TRUE(d.client.Outsource(BuildTable(10)).ok());
  size_t before = d.server.observations().queries().size();
  EXPECT_FALSE(d.client.SelectBatch("Nope", {{"grp", Value::Int(1)}}).ok());
  EXPECT_EQ(d.server.observations().queries().size(), before);
}

TEST(BatchSelectTest, MixedBatchExecutesInOrder) {
  // A delete between two selects of the same value must act as a
  // barrier: the first select sees the rows, the second does not.
  Deployment d;
  ASSERT_TRUE(d.client.Outsource(BuildTable(50)).ok());
  auto scheme = d.client.SchemeFor("T");
  ASSERT_TRUE(scheme.ok());
  auto query = (*scheme)->EncryptQuery("T", "grp", Value::Int(4));
  ASSERT_TRUE(query.ok());

  protocol::Envelope select;
  select.type = protocol::MessageType::kSelect;
  query->AppendTo(&select.payload);
  protocol::Envelope del;
  del.type = protocol::MessageType::kDeleteWhere;
  query->AppendTo(&del.payload);

  protocol::Envelope batch;
  batch.type = protocol::MessageType::kBatchRequest;
  batch.payload = protocol::SerializeBatchPayload({select, del, select});
  auto response = protocol::Envelope::Parse(
      d.server.HandleRequest(batch.Serialize()));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->type, protocol::MessageType::kBatchResponse);
  auto replies = protocol::ParseBatchPayload(response->payload);
  ASSERT_TRUE(replies.ok()) << replies.status();
  ASSERT_EQ(replies->size(), 3u);

  EXPECT_EQ((*replies)[0].type, protocol::MessageType::kSelectResult);
  EXPECT_EQ((*replies)[1].type, protocol::MessageType::kDeleteResult);
  EXPECT_EQ((*replies)[2].type, protocol::MessageType::kSelectResult);
  ByteReader first((*replies)[0].payload);
  ByteReader last((*replies)[2].payload);
  EXPECT_EQ(*first.ReadUint32(), 5u);  // 50 rows, grp = i % 10
  EXPECT_EQ(*last.ReadUint32(), 0u);   // deleted in between
}

TEST(BatchSelectTest, ConcurrentBatchedClientsMatchSequentialBaseline) {
  // N threads x M batched selects against one server; every result must
  // equal the sequential baseline and the log must hold exactly one
  // entry per executed query.
  constexpr size_t kThreads = 4;
  constexpr size_t kBatchesPerThread = 3;

  server::ServerRuntimeOptions options;
  options.num_threads = 2;
  Deployment d(options);
  Relation table = BuildTable(120);
  ASSERT_TRUE(d.client.Outsource(table).ok());

  std::vector<std::pair<std::string, Value>> queries;
  for (int g = 0; g < 10; ++g) queries.emplace_back("grp", Value::Int(g));
  std::vector<Relation> baseline;
  for (const auto& [attribute, value] : queries) {
    auto r = table.Select(attribute, value);
    ASSERT_TRUE(r.ok());
    baseline.push_back(std::move(*r));
  }
  size_t queries_before = d.server.observations().queries().size();

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t m = 0; m < kBatchesPerThread; ++m) {
        auto got = d.client.SelectBatch("T", queries);
        if (!got.ok() || got->size() != baseline.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < baseline.size(); ++i) {
          if (!(*got)[i].SameTuples(baseline[i])) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(d.server.observations().queries().size(),
            queries_before + kThreads * kBatchesPerThread * queries.size());
}

/// The sub-responses of a kBatchResponse.
std::vector<protocol::Envelope> BatchReplies(const Bytes& wire) {
  auto response = protocol::Envelope::Parse(wire);
  EXPECT_TRUE(response.ok());
  if (!response.ok()) return {};
  EXPECT_EQ(response->type, protocol::MessageType::kBatchResponse);
  auto replies = protocol::ParseBatchPayload(response->payload);
  EXPECT_TRUE(replies.ok()) << replies.status();
  return replies.ok() ? std::move(*replies) : std::vector<protocol::Envelope>{};
}

protocol::Envelope QueryEnvelope(protocol::MessageType type,
                                 const core::EncryptedQuery& query) {
  protocol::Envelope envelope;
  envelope.type = type;
  query.AppendTo(&envelope.payload);
  return envelope;
}

protocol::PlanReport ParsePlan(const protocol::Envelope& envelope) {
  EXPECT_EQ(envelope.type, protocol::MessageType::kExplainResult);
  ByteReader reader(envelope.payload);
  auto report = protocol::PlanReport::ReadFrom(&reader);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? *report : protocol::PlanReport{};
}

TEST(BatchSelectTest, UnresolvedLegFailsAloneInABatch) {
  // A select leg on an unknown relation fails with NotFound and logs
  // nothing, while the resolved legs beside it answer as usual.
  Deployment d;
  ASSERT_TRUE(d.client.Outsource(BuildTable(30)).ok());
  auto scheme = d.client.SchemeFor("T");
  ASSERT_TRUE(scheme.ok());
  auto known = (*scheme)->EncryptQuery("T", "grp", Value::Int(1));
  auto unknown = (*scheme)->EncryptQuery("Nope", "grp", Value::Int(1));
  ASSERT_TRUE(known.ok());
  ASSERT_TRUE(unknown.ok());
  const size_t before = d.server.observations().queries().size();

  protocol::Envelope batch;
  batch.type = protocol::MessageType::kBatchRequest;
  batch.payload = protocol::SerializeBatchPayload(
      {QueryEnvelope(protocol::MessageType::kSelect, *known),
       QueryEnvelope(protocol::MessageType::kSelect, *unknown),
       QueryEnvelope(protocol::MessageType::kSelect, *known)});
  auto replies = BatchReplies(d.server.HandleRequest(batch.Serialize()));
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].type, protocol::MessageType::kSelectResult);
  EXPECT_EQ(replies[1].type, protocol::MessageType::kError);
  EXPECT_EQ(replies[2].type, protocol::MessageType::kSelectResult);
  ByteReader first(replies[0].payload);
  EXPECT_EQ(*first.ReadUint32(), 3u);  // 30 rows, grp = i % 10
  EXPECT_EQ(replies[0].payload, replies[2].payload);
  EXPECT_EQ(d.server.observations().queries().size(), before + 2);
}

TEST(BatchSelectTest, MixedBatchAnswersLikeTheSameEnvelopesOneByOne) {
  // One deployment gets {append, select, EXPLAIN, fetch, delete, select,
  // EXPLAIN} as a single locked batch; its twin (identical ciphertext by
  // DRBG construction) gets the same envelopes one at a time. Every read
  // leg runs on a snapshot published just before it, so the two must
  // agree byte for byte, and so must Eve's transcripts.
  Deployment batched;
  Deployment single;
  Relation table = BuildTable(40);
  ASSERT_TRUE(batched.client.Outsource(table).ok());
  ASSERT_TRUE(single.client.Outsource(table).ok());

  auto scheme = batched.client.SchemeFor("T");
  ASSERT_TRUE(scheme.ok());
  const core::DatabasePh& ph = **scheme;
  crypto::HmacDrbg rng("mixed-batch-append", 11);
  protocol::Envelope append;
  append.type = protocol::MessageType::kAppendTuples;
  AppendLengthPrefixed(&append.payload, ToBytes("T"));
  AppendUint32(&append.payload, 3);
  for (int i = 0; i < 3; ++i) {
    auto doc = ph.EncryptTuple(
        rel::Tuple({Value::Str("new" + std::to_string(i)), Value::Int(2)}),
        &rng);
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc->AppendTo(&append.payload);
  }
  auto selected = ph.EncryptQuery("T", "grp", Value::Int(2));
  auto deleted = ph.EncryptQuery("T", "key", Value::Str("k12"));
  ASSERT_TRUE(selected.ok());
  ASSERT_TRUE(deleted.ok());
  protocol::Envelope fetch;
  fetch.type = protocol::MessageType::kFetchRelation;
  fetch.payload = ToBytes("T");
  const std::vector<protocol::Envelope> legs = {
      append,
      QueryEnvelope(protocol::MessageType::kSelect, *selected),
      QueryEnvelope(protocol::MessageType::kExplain, *selected),
      fetch,
      QueryEnvelope(protocol::MessageType::kDeleteWhere, *deleted),
      QueryEnvelope(protocol::MessageType::kSelect, *selected),
      QueryEnvelope(protocol::MessageType::kExplain, *selected),
  };

  protocol::Envelope batch;
  batch.type = protocol::MessageType::kBatchRequest;
  batch.payload = protocol::SerializeBatchPayload(legs);
  auto replies = BatchReplies(batched.server.HandleRequest(batch.Serialize()));
  ASSERT_EQ(replies.size(), legs.size());
  for (size_t i = 0; i < legs.size(); ++i) {
    Bytes expected = single.server.HandleRequest(legs[i].Serialize());
    EXPECT_EQ(replies[i].Serialize(), expected) << "leg " << i;
  }

  EXPECT_EQ(replies[0].type, protocol::MessageType::kAppendOk);
  ByteReader first(replies[1].payload);
  EXPECT_EQ(*first.ReadUint32(), 7u);  // 4 stored + 3 appended
  // The select leg memoized its trapdoor inside the batch: the EXPLAIN
  // right after it already takes the index path.
  protocol::PlanReport explained = ParsePlan(replies[2]);
  EXPECT_EQ(explained.access_path, protocol::PlanAccessPath::kIndexLookup);
  EXPECT_EQ(explained.posting_size, 7u);
  ByteReader removed(replies[4].payload);
  EXPECT_EQ(*removed.ReadUint32(), 1u);
  ByteReader last(replies[5].payload);
  EXPECT_EQ(*last.ReadUint32(), 6u);  // k12 had grp = 2
  EXPECT_EQ(ParsePlan(replies[6]).posting_size, 6u);

  const auto& batched_log = batched.server.observations().queries();
  const auto& single_log = single.server.observations().queries();
  ASSERT_EQ(batched_log.size(), single_log.size());
  for (size_t i = 0; i < single_log.size(); ++i) {
    EXPECT_EQ(batched_log[i].relation, single_log[i].relation);
    EXPECT_EQ(batched_log[i].trapdoor_bytes, single_log[i].trapdoor_bytes);
    EXPECT_EQ(batched_log[i].matched_records, single_log[i].matched_records);
  }
  ASSERT_EQ(batched.server.observations().stores().size(),
            single.server.observations().stores().size());

  // After the batch, a top-level EXPLAIN still finds the memo entry.
  auto later = batched.client.Explain("T", "grp", Value::Int(2));
  ASSERT_TRUE(later.ok()) << later.status();
  EXPECT_EQ(later->access_path, protocol::PlanAccessPath::kIndexLookup);
  EXPECT_EQ(later->posting_size, 6u);
}

}  // namespace
}  // namespace dbph
