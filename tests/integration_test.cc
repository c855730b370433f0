// End-to-end integration: CSV ingestion -> outsourcing -> SQL over
// ciphertext -> dynamic updates -> server restart from disk -> recall.
// One scenario exercising every layer of the stack together.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "client/client.h"
#include "crypto/random.h"
#include "relation/csv.h"
#include "server/untrusted_server.h"
#include "sql/executor.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

constexpr char kCsv[] =
    "name,dept,salary\n"
    "Montgomery,HR,7500\n"
    "Smith,IT,4900\n"
    "Jones,HR,4900\n"
    "Garcia,OPS,5300\n"
    "Chen,IT,6100\n";

TEST(IntegrationTest, FullLifecycle) {
  // --- Ingest from CSV. ---
  auto schema = Schema::Create({
      {"name", ValueType::kString, 10},
      {"dept", ValueType::kString, 5},
      {"salary", ValueType::kInt64, 10},
  });
  ASSERT_TRUE(schema.ok());
  auto staff = rel::ReadCsv("Staff", *schema, kCsv);
  ASSERT_TRUE(staff.ok()) << staff.status();
  ASSERT_EQ(staff->size(), 5u);

  // --- Outsource. ---
  server::UntrustedServer eve;
  crypto::HmacDrbg rng("integration", 1);
  Bytes master = core::GenerateMasterKey(&rng);
  client::Client alex(
      master,
      [&eve](const Bytes& request) { return eve.HandleRequest(request); },
      &rng);
  ASSERT_TRUE(alex.Outsource(*staff).ok());

  // --- SQL over ciphertext. ---
  auto it_staff =
      sql::ExecuteSql(&alex, "SELECT * FROM Staff WHERE dept = 'IT'");
  ASSERT_TRUE(it_staff.ok()) << it_staff.status();
  EXPECT_EQ(it_staff->size(), 2u);

  auto conj = sql::ExecuteSql(
      &alex, "SELECT * FROM Staff WHERE dept = 'IT' AND salary = 6100");
  ASSERT_TRUE(conj.ok());
  ASSERT_EQ(conj->size(), 1u);
  EXPECT_EQ(conj->tuple(0).at(0), Value::Str("Chen"));

  // --- Dynamic updates. ---
  ASSERT_TRUE(alex.Insert("Staff", {Tuple({Value::Str("Ncube"),
                                           Value::Str("IT"),
                                           Value::Int(4900)})})
                  .ok());
  auto removed = alex.DeleteWhere("Staff", "name", Value::Str("Smith"));
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);

  auto after =
      sql::ExecuteSql(&alex, "SELECT * FROM Staff WHERE salary = 4900");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 2u);  // Jones + Ncube; Smith gone

  // --- Server restart from disk. ---
  std::string path = ::testing::TempDir() + "/integration_server.dbph";
  ASSERT_TRUE(eve.SaveTo(path).ok());
  server::UntrustedServer eve2;
  ASSERT_TRUE(eve2.LoadFrom(path).ok());
  std::remove(path.c_str());

  // The original client still holds the keys and per-table scheme; run a
  // query against the restarted server through the scheme API.
  auto ph = alex.SchemeFor("Staff");
  ASSERT_TRUE(ph.ok());
  auto query = (*ph)->EncryptQuery("Staff", "dept", Value::Str("HR"));
  ASSERT_TRUE(query.ok());
  auto docs = eve2.Select(*query);
  ASSERT_TRUE(docs.ok());
  auto filtered = (*ph)->DecryptAndFilter(*docs, "dept", Value::Str("HR"));
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->size(), 2u);

  // --- Recall and verify full plaintext equality. ---
  auto recalled = alex.Recall("Staff");
  ASSERT_TRUE(recalled.ok());
  Relation expected("Staff", *schema);
  ASSERT_TRUE(expected.Insert({Value::Str("Montgomery"), Value::Str("HR"),
                               Value::Int(7500)}).ok());
  ASSERT_TRUE(expected.Insert({Value::Str("Jones"), Value::Str("HR"),
                               Value::Int(4900)}).ok());
  ASSERT_TRUE(expected.Insert({Value::Str("Garcia"), Value::Str("OPS"),
                               Value::Int(5300)}).ok());
  ASSERT_TRUE(expected.Insert({Value::Str("Chen"), Value::Str("IT"),
                               Value::Int(6100)}).ok());
  ASSERT_TRUE(expected.Insert({Value::Str("Ncube"), Value::Str("IT"),
                               Value::Int(4900)}).ok());
  EXPECT_TRUE(recalled->SameTuples(expected));

  // --- Round-trip through CSV again. ---
  std::string csv_out = rel::WriteCsv(*recalled);
  auto reparsed = rel::ReadCsv("Staff", *schema, csv_out);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->SameTuples(*recalled));

  // --- Eve never saw plaintext. ---
  for (const auto& obs : eve.observations().queries()) {
    std::string bytes = ToString(obs.trapdoor_bytes);
    EXPECT_EQ(bytes.find("Montgomery"), std::string::npos);
    EXPECT_EQ(bytes.find("HR"), std::string::npos);
    EXPECT_EQ(bytes.find("4900"), std::string::npos);
  }
}

TEST(IntegrationTest, TwoClientsIndependentKeysCannotCrossQuery) {
  server::UntrustedServer eve;
  crypto::HmacDrbg rng("integration-2", 2);
  auto schema = Schema::Create({{"v", ValueType::kString, 8}});
  ASSERT_TRUE(schema.ok());

  client::Client alice(
      core::GenerateMasterKey(&rng),
      [&eve](const Bytes& request) { return eve.HandleRequest(request); },
      &rng);
  client::Client bob(
      core::GenerateMasterKey(&rng),
      [&eve](const Bytes& request) { return eve.HandleRequest(request); },
      &rng);

  Relation a("A", *schema), b("B", *schema);
  ASSERT_TRUE(a.Insert({Value::Str("secret")}).ok());
  ASSERT_TRUE(b.Insert({Value::Str("secret")}).ok());
  ASSERT_TRUE(alice.Outsource(a).ok());
  ASSERT_TRUE(bob.Outsource(b).ok());

  // Alice's trapdoor for "secret" must not match Bob's documents even
  // though the plaintext value is identical.
  auto alice_ph = alice.SchemeFor("A");
  ASSERT_TRUE(alice_ph.ok());
  auto query = (*alice_ph)->EncryptQuery("B", "v", Value::Str("secret"));
  ASSERT_TRUE(query.ok());
  auto docs = eve.Select(*query);
  ASSERT_TRUE(docs.ok());
  EXPECT_TRUE(docs->empty());

  // Each client's own query works.
  auto own = alice.Select("A", "v", Value::Str("secret"));
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->size(), 1u);
}

TEST(IntegrationTest, RecordIdsNeverNameTwoDocuments) {
  // The record ids in Eve's transcript identify ciphertexts: a deleted
  // document's id must never come back for another document, neither
  // within its relation nor after the relation is dropped and a new one
  // is stored under the same name.
  server::UntrustedServer eve;
  crypto::HmacDrbg rng("integration-record-ids", 3);
  client::Client alex(
      core::GenerateMasterKey(&rng),
      [&eve](const Bytes& request) { return eve.HandleRequest(request); },
      &rng);
  auto schema = Schema::Create({
      {"name", ValueType::kString, 8},
      {"grp", ValueType::kInt64, 10},
  });
  ASSERT_TRUE(schema.ok());
  Relation table("R", *schema);
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.Insert({Value::Str("r" + std::to_string(i)), Value::Int(0)})
            .ok());
  }
  ASSERT_TRUE(alex.Outsource(table).ok());

  // The ids Eve logs for one select.
  const auto select_ids = [&](const std::string& attribute,
                              const Value& value) {
    auto result = alex.Select("R", attribute, value);
    EXPECT_TRUE(result.ok()) << result.status();
    return eve.observations().queries().back().matched_records;
  };
  std::set<uint64_t> seen;
  for (uint64_t id : select_ids("grp", Value::Int(0))) {
    EXPECT_TRUE(seen.insert(id).second) << id;
  }
  ASSERT_EQ(seen.size(), 10u);

  const auto expect_fresh_id = [&](const std::string& name) {
    ASSERT_TRUE(alex.Insert("R", {Tuple{Value::Str(name), Value::Int(1)}})
                    .ok());
    std::vector<uint64_t> ids = select_ids("name", Value::Str(name));
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_TRUE(seen.insert(ids[0]).second)
        << name << " was given the already-used record id " << ids[0];
    auto removed = alex.DeleteWhere("R", "name", Value::Str(name));
    ASSERT_TRUE(removed.ok()) << removed.status();
    EXPECT_EQ(*removed, 1u);
  };
  expect_fresh_id("alpha");
  expect_fresh_id("beta");
  expect_fresh_id("gamma");

  ASSERT_TRUE(alex.Drop("R").ok());
  ASSERT_TRUE(alex.Outsource(table).ok());
  for (uint64_t id : select_ids("grp", Value::Int(0))) {
    EXPECT_TRUE(seen.insert(id).second)
        << "the re-stored relation reused record id " << id;
  }
  EXPECT_EQ(seen.size(), 23u);
}

}  // namespace
}  // namespace dbph
