// Differential testing: a seeded random workload of Insert / DeleteWhere
// / Select / SelectBatch runs against the encrypted deployment (Client +
// UntrustedServer over the wire protocol) and against the plaintext
// baselines/plain::PlainEngine oracle in lockstep. Decrypted results must
// match the oracle at every step — including after a save/load round trip
// mid-workload, and after a crash + WAL recovery at the end.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/plain/plain_engine.h"
#include "client/client.h"
#include "crypto/random.h"
#include "server/durable_store.h"
#include "server/untrusted_server.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

const char* const kNames[] = {"ada",  "bob",  "carol", "dave", "eve",
                              "frank", "gina", "hal",   "ivy",  "jack"};
constexpr size_t kNameCount = sizeof(kNames) / sizeof(kNames[0]);
constexpr int64_t kGroupCount = 7;

Schema TableSchema() {
  auto s = Schema::Create({
      {"name", ValueType::kString, 8},
      {"grp", ValueType::kInt64, 10},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

Relation SeedTable(crypto::HmacDrbg* rng, size_t n) {
  Relation table("T", TableSchema());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        table
            .Insert({Value::Str(kNames[rng->NextBelow(kNameCount)]),
                     Value::Int(static_cast<int64_t>(
                         rng->NextBelow(kGroupCount)))})
            .ok());
  }
  return table;
}

Tuple RandomTuple(crypto::HmacDrbg* rng) {
  return Tuple({Value::Str(kNames[rng->NextBelow(kNameCount)]),
                Value::Int(static_cast<int64_t>(rng->NextBelow(kGroupCount)))});
}

std::pair<std::string, Value> RandomPredicate(crypto::HmacDrbg* rng) {
  if (rng->NextBelow(2) == 0) {
    return {"name", Value::Str(kNames[rng->NextBelow(kNameCount)])};
  }
  return {"grp",
          Value::Int(static_cast<int64_t>(rng->NextBelow(kGroupCount)))};
}

/// Asserts that the encrypted deployment and the oracle agree on one
/// exact-match select.
void ExpectSameSelect(client::Client* client, baseline::PlainEngine* oracle,
                      const std::string& attribute, const Value& value,
                      const std::string& context) {
  auto encrypted = client->Select("T", attribute, value);
  auto plain = oracle->SelectScan(attribute, value);
  ASSERT_TRUE(encrypted.ok()) << context << ": " << encrypted.status();
  ASSERT_TRUE(plain.ok()) << context << ": " << plain.status();
  EXPECT_EQ(encrypted->size(), plain->size()) << context;
  EXPECT_TRUE(encrypted->SameTuples(*plain)) << context;
}

/// Sweeps the whole value domain — every name and every group — so a
/// divergence anywhere in the stored state is caught, not only at the
/// most recently touched value.
void ExpectFullDomainMatch(client::Client* client,
                           baseline::PlainEngine* oracle,
                           const std::string& context) {
  for (size_t n = 0; n < kNameCount; ++n) {
    ExpectSameSelect(client, oracle, "name", Value::Str(kNames[n]),
                     context + " name=" + kNames[n]);
  }
  for (int64_t g = 0; g < kGroupCount; ++g) {
    ExpectSameSelect(client, oracle, "grp", Value::Int(g),
                     context + " grp=" + std::to_string(g));
  }
}

/// Zero-result probes: values outside the workload's generator domain,
/// so they have never existed in the table. Under VerifyMode::kEnforce
/// these exercise the non-membership side of the completeness proof —
/// the server must PROVE the empty result, not merely assert it — on
/// the scan path (first call) and the index/memo path (repeat) alike.
void ExpectVerifiedAbsence(client::Client* client,
                           baseline::PlainEngine* oracle,
                           const std::string& context) {
  for (int repeat = 0; repeat < 2; ++repeat) {
    std::string tag = context + " repeat=" + std::to_string(repeat);
    ExpectSameSelect(client, oracle, "name", Value::Str("zelda"),
                     tag + " absent-name");
    ExpectSameSelect(client, oracle, "grp", Value::Int(999),
                     tag + " absent-grp");
  }
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// One random step against both sides; returns false on fatal failure.
void RunStep(crypto::HmacDrbg* rng, client::Client* client,
             baseline::PlainEngine* oracle, size_t step) {
  std::string context = "step " + std::to_string(step);
  size_t dice = rng->NextBelow(100);
  if (dice < 40) {
    // Insert 1–3 random tuples on both sides.
    size_t count = 1 + rng->NextBelow(3);
    std::vector<Tuple> tuples;
    for (size_t i = 0; i < count; ++i) tuples.push_back(RandomTuple(rng));
    ASSERT_TRUE(client->Insert("T", tuples).ok()) << context;
    for (const Tuple& tuple : tuples) {
      ASSERT_TRUE(oracle->Insert(tuple).ok()) << context;
    }
    ExpectSameSelect(client, oracle, "name", tuples[0].at(0), context);
  } else if (dice < 60) {
    auto [attribute, value] = RandomPredicate(rng);
    auto removed = client->DeleteWhere("T", attribute, value);
    auto plain_removed = oracle->DeleteWhere(attribute, value);
    ASSERT_TRUE(removed.ok()) << context << ": " << removed.status();
    ASSERT_TRUE(plain_removed.ok()) << context;
    EXPECT_EQ(*removed, *plain_removed) << context;
    ExpectSameSelect(client, oracle, attribute, value, context);
  } else if (dice < 85) {
    auto [attribute, value] = RandomPredicate(rng);
    ExpectSameSelect(client, oracle, attribute, value, context);
  } else {
    // Batched selects: one round trip, per-query result alignment.
    std::vector<std::pair<std::string, Value>> queries;
    for (size_t i = 0; i < 4; ++i) queries.push_back(RandomPredicate(rng));
    auto batched = client->SelectBatch("T", queries);
    ASSERT_TRUE(batched.ok()) << context << ": " << batched.status();
    ASSERT_EQ(batched->size(), queries.size()) << context;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto plain = oracle->SelectScan(queries[i].first, queries[i].second);
      ASSERT_TRUE(plain.ok()) << context;
      EXPECT_TRUE((*batched)[i].SameTuples(*plain))
          << context << " batch query " << i;
    }
  }
}

TEST(DifferentialTest, RandomWorkloadMatchesPlainOracleEveryStep) {
  for (uint64_t seed : {1u, 7u}) {
    crypto::HmacDrbg workload_rng("differential-workload", seed);
    crypto::HmacDrbg client_rng("differential-client", seed);

    // The transport indirects through `current` so the same client can be
    // pointed at a reloaded server mid-workload.
    auto server = std::make_unique<server::UntrustedServer>();
    server::UntrustedServer* current = server.get();
    client::Client client(
        ToBytes("differential master"),
        [&current](const Bytes& request) {
          return current->HandleRequest(request);
        },
        &client_rng);

    Relation seed_table = SeedTable(&workload_rng, 30);
    ASSERT_TRUE(client.Outsource(seed_table).ok());
    auto oracle = baseline::PlainEngine::Create(seed_table);
    ASSERT_TRUE(oracle.ok());

    constexpr size_t kSteps = 120;
    std::unique_ptr<server::UntrustedServer> reloaded;
    for (size_t step = 0; step < kSteps; ++step) {
      RunStep(&workload_rng, &client, &*oracle, step);
      if (::testing::Test::HasFatalFailure()) return;
      if (step % 10 == 9) {
        ExpectFullDomainMatch(&client, &*oracle,
                              "seed " + std::to_string(seed) + " sweep@" +
                                  std::to_string(step));
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (step == kSteps / 2) {
        // Save/load round trip mid-workload: the restarted server must be
        // indistinguishable, and the workload keeps running against it.
        std::string path = ::testing::TempDir() + "/differential_state.dbph";
        ASSERT_TRUE(current->SaveTo(path).ok());
        reloaded = std::make_unique<server::UntrustedServer>();
        ASSERT_TRUE(reloaded->LoadFrom(path).ok());
        current = reloaded.get();
        std::remove(path.c_str());
        ExpectFullDomainMatch(&client, &*oracle, "post-reload");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    ExpectFullDomainMatch(&client, &*oracle, "final");
  }
}

TEST(DifferentialTest, TrapdoorIndexOnAndOffAreByteIdenticalUnderWorkload) {
  // The planner contract, differentially: the same seeded random
  // workload (inserts, deletes, selects, batches) against an
  // index-enabled and an index-disabled server — identical DRBG streams,
  // so identical ciphertext and identical request bytes — must produce
  // byte-identical wire responses and identical observation logs at
  // every step, including across a crash + WAL recovery restart on both
  // sides (after which the enabled server's index is cold and rebuilds).
  struct Side {
    std::string dir;
    std::unique_ptr<server::UntrustedServer> server;
    std::unique_ptr<server::DurableStore> store;
    std::vector<Bytes> responses;
  };
  server::DurableStoreOptions store_options;
  store_options.background_thread = false;

  auto make_server = [](bool enable_index) {
    server::ServerRuntimeOptions options;
    options.num_threads = 2;
    options.enable_trapdoor_index = enable_index;
    return std::make_unique<server::UntrustedServer>(options);
  };

  Side sides[2];
  bool enabled[2] = {true, false};
  for (int s = 0; s < 2; ++s) {
    sides[s].dir =
        FreshDir(std::string("differential_index_") + (enabled[s] ? "on"
                                                                  : "off"));
    sides[s].server = make_server(enabled[s]);
    sides[s].store = std::make_unique<server::DurableStore>(
        sides[s].server.get(), sides[s].dir, store_options);
    ASSERT_TRUE(sides[s].store->Open().ok());
  }

  // Phase 1: identical random workload against both sides. The index-on
  // side repeatedly re-hits earlier predicates (the workload draws from
  // a small domain), so posting lists genuinely serve queries here.
  for (int s = 0; s < 2; ++s) {
    crypto::HmacDrbg workload_rng("differential-index", 11);
    crypto::HmacDrbg client_rng("differential-index-client", 11);
    server::UntrustedServer* raw = sides[s].server.get();
    std::vector<Bytes>* responses = &sides[s].responses;
    client::Client client(
        ToBytes("differential master"),
        [raw, responses](const Bytes& request) {
          Bytes response = raw->HandleRequest(request);
          responses->push_back(response);
          return response;
        },
        &client_rng);
    Relation seed_table = SeedTable(&workload_rng, 25);
    ASSERT_TRUE(client.Outsource(seed_table).ok());
    auto oracle = baseline::PlainEngine::Create(seed_table);
    ASSERT_TRUE(oracle.ok());
    for (size_t step = 0; step < 80; ++step) {
      RunStep(&workload_rng, &client, &*oracle, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ExpectFullDomainMatch(&client, &*oracle,
                          enabled[s] ? "index-on final" : "index-off final");
    if (::testing::Test::HasFatalFailure()) return;
  }

  ASSERT_EQ(sides[0].responses.size(), sides[1].responses.size());
  for (size_t i = 0; i < sides[0].responses.size(); ++i) {
    ASSERT_EQ(sides[0].responses[i], sides[1].responses[i])
        << "wire response " << i << " differs between index on and off";
  }
  const auto& on_log = sides[0].server->observations();
  const auto& off_log = sides[1].server->observations();
  ASSERT_EQ(on_log.queries().size(), off_log.queries().size());
  for (size_t i = 0; i < on_log.queries().size(); ++i) {
    EXPECT_EQ(on_log.queries()[i].relation, off_log.queries()[i].relation);
    EXPECT_EQ(on_log.queries()[i].trapdoor_bytes,
              off_log.queries()[i].trapdoor_bytes)
        << "observation " << i;
    EXPECT_EQ(on_log.queries()[i].matched_records,
              off_log.queries()[i].matched_records)
        << "observation " << i;
  }

  // Phase 2: crash both sides (no Close — live WAL abandoned), recover,
  // and re-run an identical select sweep. Recovery must agree byte for
  // byte again; the recovered index-on server warms its cold index as
  // the sweep repeats trapdoors.
  for (int s = 0; s < 2; ++s) {
    sides[s].store.reset();  // crash-equivalent teardown
    sides[s].server = make_server(enabled[s]);
    sides[s].store = std::make_unique<server::DurableStore>(
        sides[s].server.get(), sides[s].dir, store_options);
    ASSERT_TRUE(sides[s].store->Open().ok());
    sides[s].responses.clear();
  }
  for (int s = 0; s < 2; ++s) {
    crypto::HmacDrbg client_rng("differential-index-recovered", 13);
    server::UntrustedServer* raw = sides[s].server.get();
    std::vector<Bytes>* responses = &sides[s].responses;
    client::Client client(
        ToBytes("differential master"),
        [raw, responses](const Bytes& request) {
          Bytes response = raw->HandleRequest(request);
          responses->push_back(response);
          return response;
        },
        &client_rng);
    ASSERT_TRUE(client.Adopt("T", TableSchema()).ok());
    for (int round = 0; round < 2; ++round) {  // round 2 hits the memo
      for (size_t n = 0; n < kNameCount; ++n) {
        ASSERT_TRUE(client.Select("T", "name", Value::Str(kNames[n])).ok());
      }
      for (int64_t g = 0; g < kGroupCount; ++g) {
        ASSERT_TRUE(client.Select("T", "grp", Value::Int(g)).ok());
      }
    }
  }
  ASSERT_EQ(sides[0].responses.size(), sides[1].responses.size());
  for (size_t i = 0; i < sides[0].responses.size(); ++i) {
    ASSERT_EQ(sides[0].responses[i], sides[1].responses[i])
        << "post-recovery response " << i
        << " differs between index on and off";
  }
  const auto& on_rec = sides[0].server->observations();
  const auto& off_rec = sides[1].server->observations();
  ASSERT_EQ(on_rec.queries().size(), off_rec.queries().size());
  for (size_t i = 0; i < on_rec.queries().size(); ++i) {
    EXPECT_EQ(on_rec.queries()[i].trapdoor_bytes,
              off_rec.queries()[i].trapdoor_bytes);
    EXPECT_EQ(on_rec.queries()[i].matched_records,
              off_rec.queries()[i].matched_records)
        << "post-recovery observation " << i;
  }
}

TEST(DifferentialTest, IntegrityEnforcedWorkloadStaysVerifiable) {
  // The PR-5 acceptance workload: the same seeded random mutation/select
  // stream, but with VerifyMode::kEnforce — every response's Merkle
  // proof must verify at every step (a single corrupt proof fails the
  // step and the oracle comparison), across checkpoints, a kill -9
  // crash, WAL recovery, and a fresh reattaching session that anchors
  // from the recovered signed root.
  std::string dir = FreshDir("differential_integrity");
  crypto::HmacDrbg workload_rng("differential-integrity", 17);
  crypto::HmacDrbg client_rng("differential-integrity-client", 17);

  Relation seed_table = SeedTable(&workload_rng, 25);
  auto oracle = baseline::PlainEngine::Create(seed_table);
  ASSERT_TRUE(oracle.ok());

  server::DurableStoreOptions options;
  options.background_thread = false;
  {
    server::UntrustedServer server;
    server::DurableStore store(&server, dir, options);
    ASSERT_TRUE(store.Open().ok());
    client::Client client(
        ToBytes("differential master"),
        [&server](const Bytes& request) { return server.HandleRequest(request); },
        &client_rng);
    client.set_verify_mode(client::VerifyMode::kEnforce);
    ASSERT_TRUE(client.Outsource(seed_table).ok());
    ExpectVerifiedAbsence(&client, &*oracle, "integrity seed");
    if (::testing::Test::HasFatalFailure()) return;

    for (size_t step = 0; step < 60; ++step) {
      RunStep(&workload_rng, &client, &*oracle, step);
      if (::testing::Test::HasFatalFailure()) return;
      if (step % 20 == 19) {
        // Mid-workload absent probes: the non-membership proof must keep
        // verifying as appends and deletes churn the committed tag tree.
        ExpectVerifiedAbsence(&client, &*oracle,
                              "integrity step " + std::to_string(step));
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (workload_rng.NextBelow(10) == 0) {
        ASSERT_TRUE(store.Checkpoint().ok()) << "step " << step;
      }
    }
    ExpectFullDomainMatch(&client, &*oracle, "integrity pre-crash");
    ExpectVerifiedAbsence(&client, &*oracle, "integrity pre-crash");
    if (::testing::Test::HasFatalFailure()) return;
  }  // kill -9: live WAL abandoned

  server::UntrustedServer restarted;
  server::DurableStore recovered(&restarted, dir, options);
  ASSERT_TRUE(recovered.Open().ok());
  crypto::HmacDrbg fresh_rng("differential-integrity-reattach", 17);
  client::Client reattached(
      ToBytes("differential master"),
      [&restarted](const Bytes& request) {
        return restarted.HandleRequest(request);
      },
      &fresh_rng);
  reattached.set_verify_mode(client::VerifyMode::kEnforce);
  ASSERT_TRUE(reattached.Adopt("T", TableSchema()).ok());
  // The recovered state must still carry the owner's signed root (it
  // rode the snapshot/WAL round trip) — a fresh session refuses to
  // anchor without it.
  Status synced = reattached.SyncIntegrity("T", /*require_signature=*/true);
  ASSERT_TRUE(synced.ok()) << synced;
  ExpectFullDomainMatch(&reattached, &*oracle, "integrity post-crash");
  // The recovered search tree must still prove absences to the fresh
  // session (the WAL round trip rebuilt the exact committed tag tree).
  ExpectVerifiedAbsence(&reattached, &*oracle, "integrity post-crash");
  if (::testing::Test::HasFatalFailure()) return;

  // And the reattached session keeps mutating verifiably — insert and
  // delete both run their proof/manifest checks under Enforce.
  Tuple extra = RandomTuple(&workload_rng);
  ASSERT_TRUE(reattached.Insert("T", {extra}).ok());
  ASSERT_TRUE(oracle->Insert(extra).ok());
  auto removed = reattached.DeleteWhere("T", "grp", Value::Int(0));
  auto oracle_removed = oracle->DeleteWhere("grp", Value::Int(0));
  ASSERT_TRUE(removed.ok()) << removed.status();
  ASSERT_TRUE(oracle_removed.ok());
  EXPECT_EQ(*removed, *oracle_removed);
  ExpectFullDomainMatch(&reattached, &*oracle, "integrity final");
  ExpectVerifiedAbsence(&reattached, &*oracle, "integrity final");
}

TEST(DifferentialTest, CrashRecoveryServesExactlyTheOracleState) {
  // The acceptance scenario: a durable deployment is killed mid-stream
  // (no Close, no final checkpoint) after a random mutation workload with
  // checkpoints sprinkled in; the restarted store must serve exactly the
  // state the plaintext oracle predicts.
  std::string dir = FreshDir("differential_crash");
  crypto::HmacDrbg workload_rng("differential-crash", 3);
  crypto::HmacDrbg client_rng("differential-crash-client", 3);

  Relation seed_table = SeedTable(&workload_rng, 25);
  auto oracle = baseline::PlainEngine::Create(seed_table);
  ASSERT_TRUE(oracle.ok());

  server::DurableStoreOptions options;
  options.background_thread = false;
  {
    server::UntrustedServer server;
    server::DurableStore store(&server, dir, options);
    ASSERT_TRUE(store.Open().ok());
    client::Client client(
        ToBytes("differential master"),
        [&server](const Bytes& request) { return server.HandleRequest(request); },
        &client_rng);
    ASSERT_TRUE(client.Outsource(seed_table).ok());

    for (size_t step = 0; step < 60; ++step) {
      RunStep(&workload_rng, &client, &*oracle, step);
      if (::testing::Test::HasFatalFailure()) return;
      if (workload_rng.NextBelow(10) == 0) {
        ASSERT_TRUE(store.Checkpoint().ok()) << "step " << step;
      }
    }
  }  // kill -9: the store is abandoned with a live WAL

  server::UntrustedServer restarted;
  server::DurableStore recovered(&restarted, dir, options);
  ASSERT_TRUE(recovered.Open().ok());
  crypto::HmacDrbg fresh_rng("differential-crash-reattach", 3);
  client::Client reattached(
      ToBytes("differential master"),
      [&restarted](const Bytes& request) {
        return restarted.HandleRequest(request);
      },
      &fresh_rng);
  ASSERT_TRUE(reattached.Adopt("T", TableSchema()).ok());
  ExpectFullDomainMatch(&reattached, &*oracle, "post-crash");

  // Recall (the contract-cancelled path) returns every surviving tuple;
  // its total must equal the oracle's per-group totals.
  auto recalled = reattached.Recall("T");
  ASSERT_TRUE(recalled.ok());
  size_t oracle_total = 0;
  for (int64_t g = 0; g < kGroupCount; ++g) {
    auto group = oracle->SelectScan("grp", Value::Int(g));
    ASSERT_TRUE(group.ok());
    oracle_total += group->size();
  }
  EXPECT_EQ(recalled->size(), oracle_total);
}

}  // namespace
}  // namespace dbph
