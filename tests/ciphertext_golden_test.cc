// Golden vectors for the ciphertext format. Persisted WAL and snapshot
// images, and every peer on the wire, depend on exact ciphertext bytes:
// a refactor of the PRF, Feistel or SWP code that changes a single bit
// here breaks recovery of existing stores and interop with older
// clients. The expected values were produced by the implementation that
// rebuilt every HMAC key schedule per call; the cached-schedule code must
// reproduce them exactly.
//
// Long outputs are pinned by their SHA-256 so the file stays readable.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "client/client.h"
#include "common/bytes.h"
#include "crypto/prf.h"
#include "crypto/random.h"
#include "crypto/sha256.h"
#include "dbph/scheme.h"
#include "server/untrusted_server.h"
#include "swp/scheme.h"
#include "swp/search.h"

namespace dbph {
namespace {

using rel::Relation;
using rel::Schema;
using rel::Tuple;
using rel::Value;
using rel::ValueType;

std::string DigestHex(const Bytes& b) {
  return HexEncode(crypto::Sha256::Hash(b));
}

Bytes Serialized(const swp::EncryptedDocument& doc) {
  Bytes out;
  doc.AppendTo(&out);
  return out;
}

Schema NarrowSchema() {
  auto schema = Schema::Create({
      {"name", ValueType::kString, 8},
      {"grp", ValueType::kInt64, 10},
      {"ok", ValueType::kBool, 0},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

std::vector<Tuple> NarrowTuples() {
  return {
      Tuple{Value::Str("ada"), Value::Int(0), Value::Boolean(true)},
      Tuple{Value::Str("bob"), Value::Int(1), Value::Boolean(false)},
      Tuple{Value::Str("carol"), Value::Int(-42), Value::Boolean(true)},
  };
}

// A 150-byte attribute pushes words past every stack-scratch threshold
// (Feistel rounds, pads, stream inputs), and a 64-byte nonce past the
// stream generator's.
Schema WideSchema() {
  auto schema = Schema::Create({
      {"note", ValueType::kString, 150},
      {"n", ValueType::kInt64, 10},
  });
  EXPECT_TRUE(schema.ok());
  return *schema;
}

std::vector<Tuple> WideTuples() {
  return {
      Tuple{Value::Str(std::string(150, 'x')), Value::Int(7)},
      Tuple{Value::Str("short"), Value::Int(123456789)},
  };
}

core::DbphOptions WideOptions() {
  core::DbphOptions options;
  options.variable_length = true;
  options.nonce_length = 64;
  options.check_length = 6;
  return options;
}

struct TupleCase {
  Schema schema;
  core::DbphOptions options;
  std::vector<Tuple> tuples;
  const char* label;
  std::vector<std::string> doc_digests;
};

TEST(CiphertextGoldenTest, EncryptTupleAndRoundTrip) {
  const TupleCase cases[] = {
      {NarrowSchema(),
       {},
       NarrowTuples(),
       "golden-narrow",
       {
           "3d7c3f58412c7197127a087c0b388309dae37d9b9370561334efe94135a03723",
           "96c3f20d3095e2889c82243f97d4a4269070e34c0911d3fc0cb0f9abbfd875ef",
           "dbde31315ce8ce819083fd71e1488a3d54ff851b1c55c92b03815663ed86a905",
       }},
      {WideSchema(),
       WideOptions(),
       WideTuples(),
       "golden-wide",
       {
           "9437bff285a081c1e60cd986cb4ab6ef3a0ef7cc5e5368f4ba58f0a0236e9611",
           "a5f82fdc91bed6f5f087fdb4176269c3c5af6178db22d4340cbec682223ddcb7",
       }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    auto ph = core::DatabasePh::Create(c.schema, ToBytes("golden master key"),
                                       c.options);
    ASSERT_TRUE(ph.ok()) << ph.status().ToString();
    crypto::HmacDrbg rng(c.label, 1);
    ASSERT_EQ(c.tuples.size(), c.doc_digests.size());
    for (size_t i = 0; i < c.tuples.size(); ++i) {
      auto doc = ph->EncryptTuple(c.tuples[i], &rng);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      EXPECT_EQ(DigestHex(Serialized(*doc)), c.doc_digests[i]) << "row " << i;
      auto back = ph->DecryptTuple(*doc);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(*back, c.tuples[i]) << "row " << i;
    }
  }
}

TEST(CiphertextGoldenTest, FirstDocumentBytes) {
  // One document in full, so a format change shows where it differs.
  auto ph = core::DatabasePh::Create(NarrowSchema(),
                                     ToBytes("golden master key"));
  ASSERT_TRUE(ph.ok());
  crypto::HmacDrbg rng("golden-narrow", 1);
  auto doc = ph->EncryptTuple(NarrowTuples()[0], &rng);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(HexEncode(Serialized(*doc)), "00000010d62b97bfa9f6e5cb25af6d9683baf671000000030000000bfe7b0a9e98b7149c60e46c0000000bd69e3533bf3fea1f9bd2d00000000b31b47d0bea149bbc36a708000000209376cebd866492e40893c1a73cd60a1940de5eb7d1de40212de8c3748a555aff");
}

TEST(CiphertextGoldenTest, QueryTrapdoors) {
  auto narrow = core::DatabasePh::Create(NarrowSchema(),
                                         ToBytes("golden master key"));
  auto wide = core::DatabasePh::Create(WideSchema(),
                                       ToBytes("golden master key"),
                                       WideOptions());
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  struct Case {
    const core::DatabasePh* ph;
    const char* attribute;
    Value value;
    const char* trapdoor_hex;
  };
  const Case cases[] = {
      {&*narrow, "name", Value::Str("ada"), "0000000b5203f5873cfdb9c46b56fd00000020d63a69dcac2f8f0a47a6ffe51d00ecea46c8f4a1901f3441b750472e0251d3a8"},
      {&*narrow, "grp", Value::Int(-42), "0000000bb081e38cbb36ca5a51bf1c00000020b69756652cd61526a2117f525b6774797c970baba5de41a74388fe91461a013e"},
      {&*narrow, "ok", Value::Boolean(false), "0000000b77a001251b9e0f0e3202150000002077eab20eeea1fd71f7b21d7ab38e8d5ced6edface4176dbe91ae2b112b9110d9"},
      {&*wide, "n", Value::Int(7), "0000000be61721c44e4fd4fd1157ec0000002044e943a7ff7c9c31ff960b87aad0628e026466ea520e82e1b97cedc081907584"},
  };
  for (const auto& c : cases) {
    auto query = c.ph->EncryptQuery("T", c.attribute, c.value);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    Bytes bytes;
    query->trapdoor.AppendTo(&bytes);
    EXPECT_EQ(HexEncode(bytes), c.trapdoor_hex) << c.attribute;
  }
  // The 150-byte word's trapdoor, by digest.
  auto query = wide->EncryptQuery("T", "note", Value::Str(std::string(150, 'x')));
  ASSERT_TRUE(query.ok());
  Bytes bytes;
  query->trapdoor.AppendTo(&bytes);
  EXPECT_EQ(DigestHex(bytes), "607bb45852c90b6811dac7527ed08edb193971948ad3d536a6cd9bc984ba24f2");
}

TEST(CiphertextGoldenTest, AllSchemeVariants) {
  struct Case {
    swp::SchemeVariant variant;
    size_t word_length;
    size_t check_length;
    const char* cipher_digest;
    const char* trapdoor_digest;
  };
  const Case cases[] = {
      {swp::SchemeVariant::kBasic, 12, 4, "dba05bd1a101af693742422a600d93ceb72c91d645e54a2d2006b3939243e984", "333a32f7744315fbeb055910099a0e85eb03fcab5972e53af801c1983eb876bd"},
      {swp::SchemeVariant::kControlled, 12, 4, "5f14a2839b736fde6afd2e88d82e7329a870cf930e20feaabdad2155a30b7314", "cd71008cdcb1a276f20daa06207aa2d9a901f362b768993abffe1974b541082b"},
      {swp::SchemeVariant::kHidden, 12, 4, "665d17bbca2f23c30c0befa6a74cd1d197a93a6f919d45458e0700caf34da2cd", "bf70174a8de9c22507f14771d1048480c2668b8a299ffc5c95adc6d18cd199a8"},
      {swp::SchemeVariant::kFinal, 12, 4, "7bc8e3cb7b538597c8fb41412263446fe90c38c282e86c35deb2f9143f43ff42", "a71fda208fbcaa587ee8048951a350e25d298c2aaaa1492e7532390fa5448f1a"},
      {swp::SchemeVariant::kBasic, 100, 40, "e4a40ae5f6b55f97ff72aa514ad27411103671e32585a53bb999e1e31e2c2475", "c59dcb196aec15773c7c1ff83ec4eb569d9cfd8db9bc1f24856d56d9acb3187c"},
      {swp::SchemeVariant::kControlled, 100, 40, "9979ebd1894caf6bec0c65230170298d8346bbe3d0e54651634a2458efeee25d", "3723ed21240d20e8c672e1497fe2c7ed9f346acc4a71256cada3e9cb361651c4"},
      {swp::SchemeVariant::kHidden, 100, 40, "c469e566ff26a2c232880e7f7d1367916c9f40cd62a864b4768a0ca59f342370", "3f4d41c35366b8f0944660ee28370ee686909d906a823f237645fc159551cb84"},
      {swp::SchemeVariant::kFinal, 100, 40, "f427754175250f6ae08b92eb9ac270be825be4ed0fdde2274cc66b5f1e592554", "29835bf070cec5041523822e55c69c51c6b852ec2b99029a5209f7e0d50ca335"},
  };
  const Bytes master = ToBytes("golden swp master");
  const swp::SwpKeys keys = swp::SwpKeys::Derive(master);
  crypto::StreamGenerator stream(keys.stream_key, ToBytes("golden-nonce"));
  for (const auto& c : cases) {
    SCOPED_TRACE(swp::SchemeVariantName(c.variant));
    SCOPED_TRACE(c.word_length);
    auto scheme = swp::CreateScheme(
        c.variant, swp::SwpParams{c.word_length, c.check_length}, master);
    ASSERT_TRUE(scheme.ok());
    Bytes word(c.word_length);
    for (size_t i = 0; i < word.size(); ++i) {
      word[i] = static_cast<uint8_t>('a' + i % 26);
    }
    auto cipher = (*scheme)->EncryptWord(stream, 3, word);
    ASSERT_TRUE(cipher.ok());
    EXPECT_EQ(DigestHex(*cipher), c.cipher_digest);
    auto trapdoor = (*scheme)->MakeTrapdoor(word);
    ASSERT_TRUE(trapdoor.ok());
    Bytes trapdoor_bytes;
    trapdoor->AppendTo(&trapdoor_bytes);
    EXPECT_EQ(DigestHex(trapdoor_bytes), c.trapdoor_digest);
    EXPECT_TRUE((*scheme)->Matches(*trapdoor, *cipher));
    if ((*scheme)->SupportsDecryption()) {
      auto back = (*scheme)->DecryptWord(stream, 3, *cipher);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, word);
    }
  }
}

// A whole verified session over the wire protocol: upload (ciphertexts
// plus search entries), root attestations (signed row and search roots),
// selects and deletes (trapdoors), an insert. Every request byte the
// client sends is pinned through one digest, and the anchored root
// through its hex.
TEST(CiphertextGoldenTest, VerifiedSessionTranscript) {
  server::UntrustedServer server;
  Bytes transcript;
  crypto::HmacDrbg rng("golden-session", 3);
  client::Client client(
      ToBytes("golden session master"),
      [&](const Bytes& request) {
        transcript.insert(transcript.end(), request.begin(), request.end());
        return server.HandleRequest(request);
      },
      &rng);
  client.set_verify_mode(client::VerifyMode::kEnforce);

  Relation table("T", NarrowSchema());
  const char* names[] = {"ada", "bob", "carol", "dave", "eve", "frank"};
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(table
                    .Insert({Value::Str(names[i]), Value::Int(int64_t(i % 3)),
                             Value::Boolean(i % 2 == 0)})
                    .ok());
  }
  ASSERT_TRUE(client.Outsource(table).ok());
  auto selected = client.Select("T", "grp", Value::Int(1));
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  EXPECT_EQ(selected->size(), 2u);
  ASSERT_TRUE(client
                  .Insert("T", {Tuple{Value::Str("gus"), Value::Int(1),
                                      Value::Boolean(false)}})
                  .ok());
  auto removed = client.DeleteWhere("T", "name", Value::Str("bob"));
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 1u);
  auto both = client.SelectConjunction(
      "T", {{"grp", Value::Int(1)}, {"ok", Value::Boolean(false)}});
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(both->size(), 1u);

  EXPECT_EQ(DigestHex(transcript), "9ed3dd14bd18dca555812917a2403232fe8881deee92a21ef514badabbc24333");
  auto anchor = client.IntegrityAnchor("T");
  ASSERT_TRUE(anchor.ok());
  EXPECT_EQ(anchor->first, 3u);
  EXPECT_EQ(HexEncode(Bytes(anchor->second.begin(), anchor->second.end())),
            "4b4a74cc9a8d55cf06b6d1a6accea0e65b8fc6f52ea2eafa246035699543b2a5");
}

// The state image a checkpoint writes (SerializeState) after a seeded
// Enforce session: documents in storage order, epochs, signed row and
// search roots, and the owner's search entries, beside a second relation
// stored without any. Recovery reads these exact bytes back, so a change
// to how the server holds documents must leave the image identical.
TEST(CiphertextGoldenTest, StateImageAfterVerifiedSession) {
  server::UntrustedServer server;
  crypto::HmacDrbg rng("golden-image", 5);
  const auto transport = [&](const Bytes& request) {
    return server.HandleRequest(request);
  };
  client::Client owner(ToBytes("golden image master"), transport, &rng);
  owner.set_verify_mode(client::VerifyMode::kEnforce);
  client::Client plain(ToBytes("golden image plain"), transport, &rng);

  Relation table("T", NarrowSchema());
  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(table
                    .Insert({Value::Str("n" + std::to_string(i)),
                             Value::Int(int64_t(i % 4)),
                             Value::Boolean(i % 2 == 0)})
                    .ok());
  }
  ASSERT_TRUE(owner.Outsource(table).ok());
  ASSERT_TRUE(owner
                  .Insert("T", {Tuple{Value::Str("x1"), Value::Int(2),
                                      Value::Boolean(false)},
                                Tuple{Value::Str("x2"), Value::Int(3),
                                      Value::Boolean(true)}})
                  .ok());
  auto removed = owner.DeleteWhere("T", "grp", Value::Int(2));
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 4u);
  ASSERT_TRUE(owner
                  .Insert("T", {Tuple{Value::Str("x3"), Value::Int(1),
                                      Value::Boolean(true)}})
                  .ok());
  removed = owner.DeleteWhere("T", "name", Value::Str("n5"));
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 1u);

  Relation other("U", NarrowSchema());
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(other
                    .Insert({Value::Str("u" + std::to_string(i)),
                             Value::Int(int64_t(i)), Value::Boolean(true)})
                    .ok());
  }
  ASSERT_TRUE(plain.Outsource(other).ok());
  ASSERT_TRUE(plain.DeleteWhere("U", "grp", Value::Int(3)).ok());

  auto image = server.SerializeState();
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(DigestHex(*image), "ac7fbd295106ab0e25d6d13100d1f8cde4424a9d0e9218d1acd158ffe30466ad");
}

}  // namespace
}  // namespace dbph
