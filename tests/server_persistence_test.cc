#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "client/client.h"
#include "crypto/random.h"
#include "server/untrusted_server.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

Schema EmpSchema() {
  auto s = Schema::Create({
      {"name", ValueType::kString, 10},
      {"dept", ValueType::kString, 5},
  });
  EXPECT_TRUE(s.ok());
  return *s;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<crypto::HmacDrbg>("persist", 1);
    client_ = std::make_unique<client::Client>(
        ToBytes("persist master"),
        [this](const Bytes& request) {
          return server_.HandleRequest(request);
        },
        rng_.get());
    Relation emp("Emp", EmpSchema());
    ASSERT_TRUE(emp.Insert({Value::Str("Smith"), Value::Str("IT")}).ok());
    ASSERT_TRUE(emp.Insert({Value::Str("Jones"), Value::Str("HR")}).ok());
    ASSERT_TRUE(client_->Outsource(emp).ok());
  }

  server::UntrustedServer server_;
  std::unique_ptr<crypto::HmacDrbg> rng_;
  std::unique_ptr<client::Client> client_;
};

TEST_F(PersistenceTest, SaveLoadRoundTrip) {
  std::string path = TempPath("server_state.dbph");
  ASSERT_TRUE(server_.SaveTo(path).ok());

  // A "restarted" server: fresh object, same disk state.
  server::UntrustedServer restarted;
  ASSERT_TRUE(restarted.LoadFrom(path).ok());
  EXPECT_EQ(restarted.num_relations(), 1u);
  EXPECT_EQ(*restarted.RelationSize("Emp"), 2u);

  // The original store remains queryable too.
  auto it = client_->Select("Emp", "dept", Value::Str("IT"));
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(it->size(), 1u);

  std::remove(path.c_str());
}

TEST_F(PersistenceTest, QueriesWorkAgainstReloadedServer) {
  std::string path = TempPath("server_state2.dbph");
  ASSERT_TRUE(server_.SaveTo(path).ok());

  server::UntrustedServer restarted;
  ASSERT_TRUE(restarted.LoadFrom(path).ok());

  // Point the existing client (which owns the keys and schemes) at the
  // restarted server by issuing the select against it directly.
  auto ph = client_->SchemeFor("Emp");
  ASSERT_TRUE(ph.ok());
  auto query = (*ph)->EncryptQuery("Emp", "dept", Value::Str("HR"));
  ASSERT_TRUE(query.ok());
  auto docs = restarted.Select(*query);
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->size(), 1u);
  auto tuple = (*ph)->DecryptTuple((*docs)[0]);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->at(0), Value::Str("Jones"));

  std::remove(path.c_str());
}

TEST_F(PersistenceTest, LoadRejectsCorruptFiles) {
  std::string path = TempPath("corrupt.dbph");
  ASSERT_TRUE(server_.SaveTo(path).ok());

  // Truncate.
  {
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  server::UntrustedServer victim;
  EXPECT_FALSE(victim.LoadFrom(path).ok());
  // A failed load must leave the server empty, not half-populated.
  EXPECT_EQ(victim.num_relations(), 0u);

  // Bad magic.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a dbph file at all";
  }
  EXPECT_FALSE(victim.LoadFrom(path).ok());

  // Missing file.
  EXPECT_FALSE(victim.LoadFrom(TempPath("does_not_exist.dbph")).ok());

  std::remove(path.c_str());
}

TEST_F(PersistenceTest, LoadReplacesExistingState) {
  std::string path = TempPath("replace.dbph");
  ASSERT_TRUE(server_.SaveTo(path).ok());

  server::UntrustedServer other;
  // Give `other` a different relation first.
  Relation pre("Old", EmpSchema());
  crypto::HmacDrbg rng2("persist-other", 2);
  client::Client tmp(
      ToBytes("other key"),
      [&other](const Bytes& request) { return other.HandleRequest(request); },
      &rng2);
  ASSERT_TRUE(pre.Insert({Value::Str("X"), Value::Str("Y")}).ok());
  ASSERT_TRUE(tmp.Outsource(pre).ok());
  ASSERT_EQ(other.num_relations(), 1u);

  ASSERT_TRUE(other.LoadFrom(path).ok());
  EXPECT_EQ(other.num_relations(), 1u);
  EXPECT_TRUE(other.RelationSize("Emp").ok());
  EXPECT_FALSE(other.RelationSize("Old").ok());
  // Loading clears the observation log (re-stores are not observations).
  EXPECT_TRUE(other.observations().queries().empty());
  EXPECT_TRUE(other.observations().stores().empty());

  std::remove(path.c_str());
}

TEST_F(PersistenceTest, FailedRestoreLeavesStateUntouched) {
  // A well-formed image that holds "Emp" twice: the duplicate must be
  // rejected while parsing, before the current state is replaced.
  auto image = server_.SerializeState();
  ASSERT_TRUE(image.ok()) << image.status();
  ASSERT_GT(image->size(), 12u);  // magic | version | count | relations
  Bytes duplicated(image->begin(), image->begin() + 8);
  AppendUint32(&duplicated, 2);
  for (int copy = 0; copy < 2; ++copy) {
    duplicated.insert(duplicated.end(), image->begin() + 12, image->end());
  }

  Relation other("Other", EmpSchema());
  ASSERT_TRUE(other.Insert({Value::Str("Brown"), Value::Str("OPS")}).ok());
  ASSERT_TRUE(client_->Outsource(other).ok());
  auto hr = client_->Select("Emp", "dept", Value::Str("HR"));
  ASSERT_TRUE(hr.ok()) << hr.status();
  ASSERT_EQ(hr->size(), 1u);
  const auto queries_before = server_.observations().queries();
  const size_t stores_before = server_.observations().stores().size();

  Status restored = server_.RestoreState(duplicated);
  EXPECT_EQ(restored.code(), StatusCode::kDataLoss) << restored;

  // Relations, observation log and select answers are all unchanged.
  EXPECT_EQ(server_.num_relations(), 2u);
  EXPECT_EQ(*server_.RelationSize("Emp"), 2u);
  EXPECT_EQ(*server_.RelationSize("Other"), 1u);
  ASSERT_EQ(server_.observations().queries().size(), queries_before.size());
  for (size_t i = 0; i < queries_before.size(); ++i) {
    EXPECT_EQ(server_.observations().queries()[i].trapdoor_bytes,
              queries_before[i].trapdoor_bytes);
    EXPECT_EQ(server_.observations().queries()[i].matched_records,
              queries_before[i].matched_records);
  }
  EXPECT_EQ(server_.observations().stores().size(), stores_before);
  auto again = client_->Select("Emp", "dept", Value::Str("HR"));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->SameTuples(*hr));
  auto ops = client_->Select("Other", "dept", Value::Str("OPS"));
  ASSERT_TRUE(ops.ok()) << ops.status();
  EXPECT_EQ(ops->size(), 1u);
}

}  // namespace
}  // namespace dbph
