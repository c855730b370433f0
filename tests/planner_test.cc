// Access-path coverage: the trapdoor memo must be purely a performance
// decision. Whichever path a select takes, the documents returned (bytes
// and order) and the observation-log entries recorded must be identical
// to a full scan — across selects, batches with duplicate trapdoors,
// stale hits after appends and deletes, capacity and recovery.
// The index cases run twin servers, index on and off, over identical
// ciphertext. Also covers EXPLAIN (kExplain / PlanReport) and the
// bounded observation mode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "crypto/random.h"
#include "server/untrusted_server.h"
#include "sql/executor.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Value;
using rel::ValueType;
using protocol::PlanAccessPath;

Schema TableSchema() {
  auto s = Schema::Create({
      {"name", ValueType::kString, 8},
      {"grp", ValueType::kInt64, 10},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

Relation BuildTable(size_t n) {
  Relation table("T", TableSchema());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table.Insert({Value::Str("n" + std::to_string(i)),
                              Value::Int(static_cast<int64_t>(i % 5))})
                    .ok());
  }
  return table;
}

/// Full equality of two observation logs, entry by entry.
void ExpectSameLogs(const server::ObservationLog& a,
                    const server::ObservationLog& b,
                    const std::string& context) {
  ASSERT_EQ(a.queries().size(), b.queries().size()) << context;
  for (size_t i = 0; i < a.queries().size(); ++i) {
    const auto& qa = a.queries()[i];
    const auto& qb = b.queries()[i];
    EXPECT_EQ(qa.relation, qb.relation) << context << " query " << i;
    EXPECT_EQ(qa.trapdoor_bytes, qb.trapdoor_bytes) << context << " query "
                                                    << i;
    EXPECT_EQ(qa.matched_records, qb.matched_records) << context << " query "
                                                      << i;
  }
  ASSERT_EQ(a.stores().size(), b.stores().size()) << context;
  for (size_t i = 0; i < a.stores().size(); ++i) {
    EXPECT_EQ(a.stores()[i].relation, b.stores()[i].relation) << context;
    EXPECT_EQ(a.stores()[i].num_documents, b.stores()[i].num_documents)
        << context;
    EXPECT_EQ(a.stores()[i].ciphertext_bytes, b.stores()[i].ciphertext_bytes)
        << context;
  }
}

/// Two deployments over identical DRBG streams hold byte-identical
/// ciphertext and receive byte-identical requests; one runs with the
/// trapdoor index, one without. Every transport response and the whole
/// observation log must match byte for byte.
struct Deployment {
  explicit Deployment(bool enable_index)
      : Deployment(MakeOptions(enable_index)) {}
  explicit Deployment(server::ServerRuntimeOptions options)
      : server(options),
        rng("planner-differential", 5),
        client(ToBytes("planner master"),
               [this](const Bytes& request) {
                 Bytes response = server.HandleRequest(request);
                 responses.push_back(response);
                 return response;
               },
               &rng) {}

  static server::ServerRuntimeOptions MakeOptions(bool enable_index) {
    server::ServerRuntimeOptions options;
    options.num_threads = 2;
    options.enable_trapdoor_index = enable_index;
    return options;
  }

  server::UntrustedServer server;
  crypto::HmacDrbg rng;
  std::vector<Bytes> responses;
  client::Client client;
};

// ---------------- the trapdoor index on twin servers ----------------

/// A 40-row relation (grp = i % 5, so 8 rows per group) on twin
/// deployments, index on and off. The capacity comes from
/// ServerRuntimeOptions; the access path is read from EXPLAIN and the
/// hit counts from CollectStats, both on the index-on twin.
class IndexTwinTest : public ::testing::Test {
 protected:
  void Start(server::ServerRuntimeOptions options = {}) {
    options.num_threads = 2;
    options.num_shards = 3;
    options.enable_trapdoor_index = true;
    on_ = std::make_unique<Deployment>(options);
    options.enable_trapdoor_index = false;
    off_ = std::make_unique<Deployment>(options);
    ASSERT_TRUE(on_->client.Outsource(BuildTable(40)).ok());
    ASSERT_TRUE(off_->client.Outsource(BuildTable(40)).ok());
  }

  /// Runs one select on both twins, expects byte-identical responses,
  /// and returns the result row count.
  size_t SelectBoth(const std::string& attribute, const Value& value) {
    auto on = on_->client.Select("T", attribute, value);
    auto off = off_->client.Select("T", attribute, value);
    EXPECT_TRUE(on.ok()) << on.status();
    EXPECT_TRUE(off.ok()) << off.status();
    EXPECT_EQ(on_->responses.back(), off_->responses.back())
        << attribute << " = " << value;
    return on.ok() ? on->size() : 0;
  }

  /// Appends BuildTable(10) (two rows per group) on both twins.
  void InsertTenBoth() {
    Relation extra = BuildTable(10);
    ASSERT_TRUE(on_->client.Insert("T", extra.tuples()).ok());
    ASSERT_TRUE(off_->client.Insert("T", extra.tuples()).ok());
  }

  protocol::PlanReport Explain(const std::string& attribute,
                               const Value& value) {
    auto plan = on_->client.Explain("T", attribute, value);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? *plan : protocol::PlanReport{};
  }

  int64_t Gauge(const std::string& name) {
    obs::RegistrySnapshot stats = on_->server.CollectStats();
    auto it = stats.gauges.find(name);
    EXPECT_NE(it, stats.gauges.end()) << name;
    return it == stats.gauges.end() ? -1 : it->second;
  }

  void ExpectSameTranscripts() {
    ExpectSameLogs(on_->server.observations(), off_->server.observations(),
                   "index on vs off");
  }

  std::unique_ptr<Deployment> on_;
  std::unique_ptr<Deployment> off_;
};

TEST_F(IndexTwinTest, ScanMemoizesAndARepeatHits) {
  Start();
  protocol::PlanReport cold = Explain("grp", Value::Int(2));
  EXPECT_EQ(cold.access_path, PlanAccessPath::kFullScan);
  EXPECT_TRUE(cold.will_memoize);

  EXPECT_EQ(SelectBoth("grp", Value::Int(2)), 8u);
  protocol::PlanReport warm = Explain("grp", Value::Int(2));
  EXPECT_EQ(warm.access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(warm.posting_size, 8u);
  EXPECT_EQ(warm.indexed_trapdoors, 1u);
  EXPECT_EQ(Gauge("dbph_index_hits"), 0);
  EXPECT_EQ(Gauge("dbph_index_misses"), 1);

  EXPECT_EQ(SelectBoth("grp", Value::Int(2)), 8u);
  EXPECT_EQ(Gauge("dbph_index_hits"), 1);

  // EXPLAIN is plan-only: it sees the index path but leaves the hit and
  // miss gauges untouched — they count queries served, not plans printed.
  EXPECT_EQ(Explain("grp", Value::Int(2)).access_path,
            PlanAccessPath::kIndexLookup);
  EXPECT_EQ(Explain("grp", Value::Int(3)).access_path,
            PlanAccessPath::kFullScan);
  EXPECT_EQ(Gauge("dbph_index_hits"), 1);
  EXPECT_EQ(Gauge("dbph_index_misses"), 1);
  ExpectSameTranscripts();
}

TEST_F(IndexTwinTest, EmptyResultIsMemoizedAsARealAnswer) {
  Start();
  EXPECT_EQ(SelectBoth("name", Value::Str("nobody")), 0u);
  protocol::PlanReport plan = Explain("name", Value::Str("nobody"));
  EXPECT_EQ(plan.access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(plan.posting_size, 0u);
  EXPECT_EQ(SelectBoth("name", Value::Str("nobody")), 0u);
  EXPECT_EQ(Gauge("dbph_index_hits"), 1);
  ExpectSameTranscripts();
}

TEST_F(IndexTwinTest, DuplicateTrapdoorsInOneBatchMemoizeOnce) {
  Start();
  const std::vector<std::pair<std::string, Value>> twice = {
      {"grp", Value::Int(1)}, {"grp", Value::Int(1)}};
  auto on = on_->client.SelectBatch("T", twice);
  auto off = off_->client.SelectBatch("T", twice);
  ASSERT_TRUE(on.ok()) << on.status();
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_EQ(on_->responses.back(), off_->responses.back());
  ASSERT_EQ(on->size(), 2u);
  EXPECT_TRUE((*on)[0].SameTuples((*on)[1]));
  // Both legs planned before either scanned: two misses, two scans,
  // exactly one memo entry afterwards.
  EXPECT_EQ(Gauge("dbph_index_misses"), 2);
  EXPECT_EQ(Gauge("dbph_index_memoized"), 1);
  protocol::PlanReport plan = Explain("grp", Value::Int(1));
  EXPECT_EQ(plan.access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(plan.indexed_trapdoors, 1u);

  EXPECT_EQ(SelectBoth("grp", Value::Int(1)), 8u);
  EXPECT_EQ(Gauge("dbph_index_hits"), 1);
  ExpectSameTranscripts();
}

TEST_F(IndexTwinTest, AppendExtendsPostingsExactly) {
  Start();
  EXPECT_EQ(SelectBoth("grp", Value::Int(3)), 8u);  // memoize
  // grp = 0 is never selected, so its plan is a full scan whose
  // match_evals is the relation's word-slot count.
  const uint64_t slots_before = Explain("grp", Value::Int(0)).match_evals;
  InsertTenBoth();
  if (HasFatalFailure()) return;
  const uint64_t slots_after = Explain("grp", Value::Int(0)).match_evals;
  ASSERT_GT(slots_after, slots_before);

  // Appends leave the memo alone: the entry is now a stale hit that
  // fetches its 8 rows and matches only the ten appended rows.
  protocol::PlanReport stale = Explain("grp", Value::Int(3));
  EXPECT_EQ(stale.access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(stale.posting_size, 8u);
  EXPECT_EQ(stale.match_evals, slots_after - slots_before);
  EXPECT_TRUE(stale.will_memoize);
  EXPECT_EQ(SelectBoth("grp", Value::Int(3)), 10u);

  // The hit re-memoized its answer: the refreshed entry is fresh.
  protocol::PlanReport fresh = Explain("grp", Value::Int(3));
  EXPECT_EQ(fresh.access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(fresh.posting_size, 10u);
  EXPECT_EQ(fresh.match_evals, 0u);
  EXPECT_FALSE(fresh.will_memoize);
  EXPECT_EQ(Gauge("dbph_index_memoized"), 2);
  EXPECT_EQ(SelectBoth("grp", Value::Int(3)), 10u);
  ExpectSameTranscripts();
}

TEST_F(IndexTwinTest, DeleteDropsPostingsExactly) {
  Start();
  EXPECT_EQ(SelectBoth("grp", Value::Int(4)), 8u);  // memoize
  for (const char* name : {"n4", "n14"}) {
    auto on = on_->client.DeleteWhere("T", "name", Value::Str(name));
    auto off = off_->client.DeleteWhere("T", "name", Value::Str(name));
    ASSERT_TRUE(on.ok()) << on.status();
    ASSERT_TRUE(off.ok()) << off.status();
    EXPECT_EQ(*on, 1u);
    EXPECT_EQ(on_->responses.back(), off_->responses.back());
  }
  // Deletes leave the memo alone: the hit skips the two deleted rows.
  protocol::PlanReport stale = Explain("grp", Value::Int(4));
  EXPECT_EQ(stale.access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(stale.posting_size, 6u);
  EXPECT_EQ(stale.match_evals, 0u);
  EXPECT_TRUE(stale.will_memoize);
  EXPECT_EQ(SelectBoth("grp", Value::Int(4)), 6u);

  // The refresh drops them from the entry too.
  protocol::PlanReport fresh = Explain("grp", Value::Int(4));
  EXPECT_EQ(fresh.access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(fresh.posting_size, 6u);
  EXPECT_EQ(fresh.match_evals, 0u);
  EXPECT_FALSE(fresh.will_memoize);
  EXPECT_EQ(Gauge("dbph_index_memoized"), 2);
  EXPECT_EQ(SelectBoth("grp", Value::Int(4)), 6u);
  ExpectSameTranscripts();
}

TEST_F(IndexTwinTest, CapacityBoundsMemoizationWithoutBreakingResults) {
  server::ServerRuntimeOptions options;
  options.max_indexed_trapdoors = 2;
  Start(options);
  EXPECT_EQ(SelectBoth("grp", Value::Int(0)), 8u);
  EXPECT_EQ(SelectBoth("grp", Value::Int(1)), 8u);
  EXPECT_EQ(Gauge("dbph_index_relations_at_capacity"), 1);

  // The third trapdoor is not memoized: it plans as a non-memoizing
  // scan, repeats keep scanning, and results still match the
  // index-free twin exactly.
  protocol::PlanReport third = Explain("grp", Value::Int(2));
  EXPECT_EQ(third.access_path, PlanAccessPath::kFullScan);
  EXPECT_FALSE(third.will_memoize);
  EXPECT_EQ(SelectBoth("grp", Value::Int(2)), 8u);
  EXPECT_EQ(SelectBoth("grp", Value::Int(2)), 8u);
  protocol::PlanReport repeat = Explain("grp", Value::Int(2));
  EXPECT_EQ(repeat.access_path, PlanAccessPath::kFullScan);
  EXPECT_EQ(repeat.indexed_trapdoors, 2u);

  // Entries memoized before the cap hit keep serving.
  EXPECT_EQ(Explain("grp", Value::Int(0)).access_path,
            PlanAccessPath::kIndexLookup);
  EXPECT_EQ(SelectBoth("grp", Value::Int(0)), 8u);
  EXPECT_EQ(Gauge("dbph_index_hits"), 1);
  ExpectSameTranscripts();
}

// ---------------- whole-server differential: index on vs off -------------

TEST(PlannerDifferentialTest, IndexOnAndOffAreByteIdenticalEverywhere) {
  Deployment on(true);
  Deployment off(false);

  Relation table = BuildTable(60);
  auto drive = [&table](Deployment* d) {
    ASSERT_TRUE(d->client.Outsource(table).ok());
    // Repeated trapdoors (index hits), fresh trapdoors (scans),
    // batches, conjunctions, mutations in between.
    for (int round = 0; round < 3; ++round) {
      for (int64_t g = 0; g < 5; ++g) {
        ASSERT_TRUE(d->client.Select("T", "grp", Value::Int(g)).ok());
      }
      auto batch = d->client.SelectBatch(
          "T", {{"grp", Value::Int(2)}, {"grp", Value::Int(2)},
                {"name", Value::Str("n1")}});
      ASSERT_TRUE(batch.ok());
      ASSERT_TRUE(
          d->client
              .SelectConjunction("T", {{"grp", Value::Int(1)},
                                       {"name", Value::Str("n6")}})
              .ok());
      if (round == 0) {
        ASSERT_TRUE(
            d->client
                .Insert("T", {rel::Tuple({Value::Str("xtra"),
                                          Value::Int(2)})})
                .ok());
      }
      if (round == 1) {
        ASSERT_TRUE(d->client.DeleteWhere("T", "grp", Value::Int(3)).ok());
        // The memoized answer now lists only deleted rows; select it.
        ASSERT_TRUE(d->client.Select("T", "grp", Value::Int(3)).ok());
      }
    }
  };
  drive(&on);
  if (::testing::Test::HasFatalFailure()) return;
  drive(&off);
  if (::testing::Test::HasFatalFailure()) return;

  // Byte-identical wire responses, request by request.
  ASSERT_EQ(on.responses.size(), off.responses.size());
  for (size_t i = 0; i < on.responses.size(); ++i) {
    EXPECT_EQ(on.responses[i], off.responses[i]) << "response " << i;
  }
  ExpectSameLogs(on.server.observations(), off.server.observations(),
                 "index on vs off");

  // The index really was in play: repeated trapdoors report the index
  // path on the enabled server and the scan path on the disabled one.
  auto plan_on = on.client.Explain("T", "grp", Value::Int(2));
  ASSERT_TRUE(plan_on.ok());
  EXPECT_EQ(plan_on->access_path, PlanAccessPath::kIndexLookup);
  EXPECT_TRUE(plan_on->index_enabled);
  EXPECT_GT(plan_on->indexed_trapdoors, 0u);
  auto plan_off = off.client.Explain("T", "grp", Value::Int(2));
  ASSERT_TRUE(plan_off.ok());
  EXPECT_EQ(plan_off->access_path, PlanAccessPath::kFullScan);
  EXPECT_FALSE(plan_off->index_enabled);
  EXPECT_FALSE(plan_off->will_memoize);
}

TEST(PlannerDifferentialTest, RestoreStateStartsColdButStaysIdentical) {
  Deployment on(true);
  Relation table = BuildTable(30);
  ASSERT_TRUE(on.client.Outsource(table).ok());
  ASSERT_TRUE(on.client.Select("T", "grp", Value::Int(1)).ok());
  auto warm = on.client.Explain("T", "grp", Value::Int(1));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->access_path, PlanAccessPath::kIndexLookup);

  // Save/restore: recovery deterministically rebuilds — the index
  // restarts cold and the first repeat is a (memoizing) scan again.
  auto image = on.server.SerializeState();
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(on.server.RestoreState(*image).ok());
  auto cold = on.client.Explain("T", "grp", Value::Int(1));
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->access_path, PlanAccessPath::kFullScan);
  EXPECT_TRUE(cold->will_memoize);
  EXPECT_EQ(cold->indexed_trapdoors, 0u);

  auto result = on.client.Select("T", "grp", Value::Int(1));
  ASSERT_TRUE(result.ok());
  auto rewarmed = on.client.Explain("T", "grp", Value::Int(1));
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_EQ(rewarmed->access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(rewarmed->posting_size, warm->posting_size);
}

// ---------------- EXPLAIN plumbing ----------------

TEST(ExplainTest, UnknownRelationAndSqlFrontEnd) {
  server::UntrustedServer server;
  crypto::HmacDrbg rng("explain-sql", 3);
  client::Client client(
      ToBytes("explain master"),
      [&server](const Bytes& request) { return server.HandleRequest(request); },
      &rng);
  Relation table = BuildTable(10);
  ASSERT_TRUE(client.Outsource(table).ok());

  EXPECT_FALSE(client.Explain("Nope", "grp", Value::Int(1)).ok());

  auto text = sql::ExplainSql(&client,
                              "EXPLAIN SELECT * FROM T WHERE grp = 1");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("FullScan"), std::string::npos);

  ASSERT_TRUE(client.Select("T", "grp", Value::Int(1)).ok());
  text = sql::ExplainSql(&client, "explain SELECT * FROM T WHERE grp = 1");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("IndexLookup"), std::string::npos);

  // Conjunctions explain one plan per term.
  auto conj = sql::ExplainSql(
      &client, "EXPLAIN SELECT * FROM T WHERE grp = 1 AND name = 'n1'");
  ASSERT_TRUE(conj.ok());
  EXPECT_NE(conj->find("term 1"), std::string::npos);
  EXPECT_NE(conj->find("term 2"), std::string::npos);

  // EXPLAIN left no query observations (plan-only).
  EXPECT_EQ(server.observations().queries().size(), 1u);
}

TEST(ExplainTest, ShardCountIsTheScanFanOut) {
  // A scan never splits into more ranges than there are documents, and
  // EXPLAIN reports the fan-out the scan actually uses.
  server::ServerRuntimeOptions options;
  options.num_shards = 16;
  server::UntrustedServer server(options);
  crypto::HmacDrbg rng("explain-shards", 4);
  client::Client client(
      ToBytes("explain master"),
      [&server](const Bytes& request) { return server.HandleRequest(request); },
      &rng);
  Relation tiny("Tiny", TableSchema());
  ASSERT_TRUE(tiny.Insert({Value::Str("a"), Value::Int(1)}).ok());
  ASSERT_TRUE(tiny.Insert({Value::Str("b"), Value::Int(2)}).ok());
  ASSERT_TRUE(client.Outsource(tiny).ok());
  ASSERT_TRUE(client.Outsource(Relation("Empty", TableSchema())).ok());
  ASSERT_TRUE(client.Outsource(BuildTable(40)).ok());

  auto two = client.Explain("Tiny", "grp", Value::Int(1));
  ASSERT_TRUE(two.ok()) << two.status();
  EXPECT_EQ(two->num_shards, 2u);
  EXPECT_NE(two->ToString().find("2 documents across 2 shard(s)"),
            std::string::npos)
      << two->ToString();
  auto none = client.Explain("Empty", "grp", Value::Int(1));
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(none->num_shards, 1u);
  auto forty = client.Explain("T", "grp", Value::Int(1));
  ASSERT_TRUE(forty.ok()) << forty.status();
  EXPECT_EQ(forty->num_shards, 16u);
}

TEST(ExplainTest, PlanReportRoundTripsOnTheWire) {
  protocol::PlanReport report;
  report.relation = "R";
  report.access_path = PlanAccessPath::kIndexLookup;
  report.num_records = 1234;
  report.posting_size = 56;
  report.num_shards = 8;
  report.will_memoize = false;
  report.index_enabled = true;
  report.indexed_trapdoors = 3;
  report.match_evals = 9876543210ull;  // exceeds uint32 to pin the width
  Bytes wire;
  report.AppendTo(&wire);
  ByteReader reader(wire);
  auto parsed = protocol::PlanReport::ReadFrom(&reader);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(parsed->relation, "R");
  EXPECT_EQ(parsed->access_path, PlanAccessPath::kIndexLookup);
  EXPECT_EQ(parsed->num_records, 1234u);
  EXPECT_EQ(parsed->posting_size, 56u);
  EXPECT_EQ(parsed->num_shards, 8u);
  EXPECT_FALSE(parsed->will_memoize);
  EXPECT_TRUE(parsed->index_enabled);
  EXPECT_EQ(parsed->indexed_trapdoors, 3u);
  EXPECT_EQ(parsed->match_evals, 9876543210ull);
}

// ---------------- bounded observation mode ----------------

TEST(ObservationModeTest, AggregateKeepsCountsNotTranscripts) {
  server::ServerRuntimeOptions options;
  server::UntrustedServer full_server(options);
  server::UntrustedServer aggregate_server(options);
  aggregate_server.mutable_observations()->SetMode(
      server::ObservationMode::kAggregate);

  Relation table = BuildTable(20);
  auto drive = [&table](server::UntrustedServer* s, uint64_t seed) {
    crypto::HmacDrbg rng("observation-mode", seed);
    client::Client client(
        ToBytes("observation master"),
        [s](const Bytes& request) { return s->HandleRequest(request); },
        &rng);
    ASSERT_TRUE(client.Outsource(table).ok());
    for (int round = 0; round < 4; ++round) {
      for (int64_t g = 0; g < 5; ++g) {
        ASSERT_TRUE(client.Select("T", "grp", Value::Int(g)).ok());
      }
    }
    ASSERT_TRUE(client.DeleteWhere("T", "grp", Value::Int(0)).ok());
  };
  drive(&full_server, 1);
  if (::testing::Test::HasFatalFailure()) return;
  drive(&aggregate_server, 1);
  if (::testing::Test::HasFatalFailure()) return;

  const auto& full = full_server.observations();
  const auto& aggregate = aggregate_server.observations();
  // Aggregate mode retains no per-event vectors...
  EXPECT_EQ(aggregate.queries().size(), 0u);
  EXPECT_EQ(aggregate.stores().size(), 0u);
  EXPECT_EQ(full.queries().size(), 21u);
  // ...but its counters equal the full deployment's.
  EXPECT_EQ(aggregate.aggregate().num_queries, 21u);
  EXPECT_EQ(aggregate.aggregate().num_stores,
            full.aggregate().num_stores);
  EXPECT_EQ(aggregate.aggregate().matched_total,
            full.aggregate().matched_total);
  EXPECT_EQ(aggregate.aggregate().result_size_histogram.Snapshot(),
            full.aggregate().result_size_histogram.Snapshot());

  // The histogram is a real summary of the full transcript: one sample
  // per query, and its sum is the total number of matched documents.
  auto histogram = aggregate.aggregate().result_size_histogram.Snapshot();
  EXPECT_EQ(histogram.count, 21u);
  EXPECT_EQ(histogram.sum, aggregate.aggregate().matched_total);
}

}  // namespace
}  // namespace dbph
