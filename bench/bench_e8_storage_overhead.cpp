// Experiment E8 — ciphertext expansion of the construction and the
// full-version variable-length optimization.
//
// For several schema shapes, measures plaintext bytes vs ciphertext bytes
// for: the database PH with the paper's globally fixed word length, the
// variable-length word classes, and the bucketization/Damiani baselines.
//
// Expected shape: the fixed-length rule pays (max attribute length) x
// (number of attributes) per tuple; variable-length classes shrink that
// toward the plaintext size (trading a length-class leak); the baselines
// add only labels on top of a compact payload.
//
// A second table gives what the untrusted server keeps per stored
// document: the heap bytes (mallinfo2().uordblks, after malloc_trim(0))
// a kStoreRelation request leaves behind, over the benchmark's T(key,
// val) relation with integrity off, on with an unverified owner, and on
// with an Enforce owner (which also uploads the search entries).
// --rows=N sets the relation size (default 20000).

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/bucket/bucket_scheme.h"
#include "baselines/damiani/hash_scheme.h"
#include "client/client.h"
#include "crypto/random.h"
#include "dbph/encrypted_relation.h"
#include "dbph/scheme.h"
#include "protocol/messages.h"
#include "server/untrusted_server.h"

using namespace dbph;

namespace {

struct Shape {
  const char* label;
  rel::Schema schema;
  rel::Relation table;
};

size_t PlaintextBytes(const rel::Relation& table) {
  size_t total = 0;
  for (const auto& t : table.tuples()) {
    for (const auto& v : t.values()) total += v.EncodeForWord().size();
  }
  return total;
}

Shape MakeShape(const char* label, std::vector<rel::Attribute> attrs,
                size_t rows, crypto::Rng* rng) {
  auto schema = rel::Schema::Create(std::move(attrs));
  rel::Relation table("T", *schema);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<rel::Value> values;
    for (const auto& attr : schema->attributes()) {
      switch (attr.type) {
        case rel::ValueType::kString: {
          // Random-length strings up to the attribute bound.
          size_t len = 1 + rng->NextBelow(attr.max_length);
          std::string s;
          for (size_t c = 0; c < len; ++c) {
            s += static_cast<char>('a' + rng->NextBelow(26));
          }
          values.push_back(rel::Value::Str(s));
          break;
        }
        case rel::ValueType::kInt64:
          values.push_back(rel::Value::Int(
              static_cast<int64_t>(rng->NextBelow(100000))));
          break;
        case rel::ValueType::kBool:
          values.push_back(rel::Value::Boolean(rng->NextBool()));
          break;
        case rel::ValueType::kDouble:
          values.push_back(rel::Value::Real(rng->NextDouble()));
          break;
      }
    }
    (void)table.Insert(rel::Tuple(std::move(values)));
  }
  return Shape{label, *schema, std::move(table)};
}

/// Heap bytes in use, after returning free memory to the system.
size_t HeapInUse() {
  malloc_trim(0);
  return mallinfo2().uordblks;
}

/// The bytes the server keeps per document after storing `rows` rows of
/// T(key, val) (key kN, val N % 100): the heap delta across the
/// kStoreRelation request alone. Sets *doc_bytes to the mean serialized
/// document size.
double ServerBytesPerDocument(size_t rows, bool integrity,
                              client::VerifyMode mode, double* doc_bytes) {
  auto schema = rel::Schema::Create({
      {"key", rel::ValueType::kString, 12},
      {"val", rel::ValueType::kInt64, 10},
  });
  rel::Relation table("T", *schema);
  for (size_t n = 0; n < rows; ++n) {
    (void)table.Insert({rel::Value::Str("k" + std::to_string(n)),
                        rel::Value::Int(static_cast<int64_t>(n % 100))});
  }
  server::ServerRuntimeOptions options;
  options.enable_integrity = integrity;
  server::UntrustedServer server(options);
  crypto::HmacDrbg rng("e8-server", 1);
  size_t retained = 0;
  size_t total_doc_bytes = 0;
  client::Client owner(
      ToBytes("e8 server master"),
      [&](const Bytes& request) {
        auto envelope = protocol::Envelope::Parse(request);
        if (!envelope.ok() ||
            envelope->type != protocol::MessageType::kStoreRelation) {
          return server.HandleRequest(request);
        }
        {
          ByteReader reader(envelope->payload);
          auto relation = core::EncryptedRelation::ReadFrom(&reader);
          if (!relation.ok()) return Bytes{};
          for (const auto& doc : relation->documents) {
            total_doc_bytes += doc.SerializedSize();
          }
        }
        const size_t before = HeapInUse();
        Bytes response = server.HandleRequest(request);
        retained = HeapInUse() - before;
        return response;
      },
      &rng);
  owner.set_verify_mode(mode);
  if (!owner.Outsource(table).ok()) return -1;
  *doc_bytes =
      static_cast<double>(total_doc_bytes) / static_cast<double>(rows);
  return static_cast<double>(retained) / static_cast<double>(rows);
}

}  // namespace

int main(int argc, char** argv) {
  size_t server_rows = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      server_rows = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  if (server_rows == 0) {
    std::fprintf(stderr, "--rows must be a positive row count\n");
    return 2;
  }
  crypto::HmacDrbg rng("e8", 1);
  const size_t kRows = 500;

  std::vector<Shape> shapes;
  shapes.push_back(MakeShape(
      "uniform (3 x string[10])",
      {{"a", rel::ValueType::kString, 10},
       {"b", rel::ValueType::kString, 10},
       {"c", rel::ValueType::kString, 10}},
      kRows, &rng));
  shapes.push_back(MakeShape(
      "skewed (string[64] + 2 short)",
      {{"blob", rel::ValueType::kString, 64},
       {"flag", rel::ValueType::kBool, 1},
       {"code", rel::ValueType::kString, 4}},
      kRows, &rng));
  shapes.push_back(MakeShape(
      "wide (8 x int)",
      {{"c0", rel::ValueType::kInt64, 6},
       {"c1", rel::ValueType::kInt64, 6},
       {"c2", rel::ValueType::kInt64, 6},
       {"c3", rel::ValueType::kInt64, 6},
       {"c4", rel::ValueType::kInt64, 6},
       {"c5", rel::ValueType::kInt64, 6},
       {"c6", rel::ValueType::kInt64, 6},
       {"c7", rel::ValueType::kInt64, 6}},
      kRows, &rng));

  std::printf(
      "E8: ciphertext expansion, %zu rows per shape (expansion = cipher "
      "bytes / plaintext value bytes)\n\n",
      kRows);
  std::printf("%-30s %-22s %12s %12s %10s\n", "schema shape", "scheme",
              "plain B", "cipher B", "expansion");

  auto print_row = [](const char* shape, const char* scheme, size_t plain,
                      size_t cipher) {
    std::printf("%-30s %-22s %12zu %12zu %9.2fx\n", shape, scheme, plain,
                cipher,
                static_cast<double>(cipher) / static_cast<double>(plain));
  };

  for (const auto& shape : shapes) {
    size_t plain = PlaintextBytes(shape.table);

    // One check byte keeps the shortest variable-length words legal
    // (a bool word is value + id = 2 bytes) and comparable across rows.
    core::DbphOptions fixed_options;
    fixed_options.check_length = 1;
    core::DbphOptions variable_options = fixed_options;
    variable_options.variable_length = true;

    // Database PH, fixed word length (the paper's rule).
    {
      auto ph =
          core::DatabasePh::Create(shape.schema, ToBytes("e8"), fixed_options);
      if (!ph.ok()) {
        std::printf("dbph create failed: %s\n",
                    ph.status().ToString().c_str());
        return 1;
      }
      auto enc = ph->EncryptRelation(shape.table, &rng);
      if (!enc.ok()) return 1;
      print_row(shape.label, "dbph fixed-length", plain,
                enc->CiphertextBytes());
    }
    // Database PH, variable-length classes (full-version optimization).
    {
      auto ph = core::DatabasePh::Create(shape.schema, ToBytes("e8"),
                                         variable_options);
      if (!ph.ok()) {
        std::printf("dbph create failed: %s\n",
                    ph.status().ToString().c_str());
        return 1;
      }
      auto enc = ph->EncryptRelation(shape.table, &rng);
      if (!enc.ok()) return 1;
      print_row(shape.label, "dbph variable-length", plain,
                enc->CiphertextBytes());
    }
    // Bucketization.
    {
      auto scheme =
          baseline::BucketScheme::Create(shape.schema, ToBytes("e8"));
      if (!scheme.ok()) return 1;
      auto enc = scheme->EncryptRelation(shape.table, &rng);
      if (!enc.ok()) return 1;
      print_row(shape.label, "bucketization", plain, enc->CiphertextBytes());
    }
    // Damiani.
    {
      auto scheme =
          baseline::DamianiScheme::Create(shape.schema, ToBytes("e8"));
      if (!scheme.ok()) return 1;
      auto enc = scheme->EncryptRelation(shape.table, &rng);
      if (!enc.ok()) return 1;
      print_row(shape.label, "damiani", plain, enc->CiphertextBytes());
    }
  }

  std::printf(
      "\nShape check: fixed-length words cost ~(max attr length x #attrs)\n"
      "per tuple, so skewed schemas inflate most; variable-length classes\n"
      "recover most of the gap, at the cost of leaking each slot's length\n"
      "class. Baselines are compact but leak value equality outright (E1).\n"
      "Note: dbph rows include the 16 B nonce and the 32 B integrity tag\n"
      "per tuple (authenticate_documents defaults to on); disable the tag\n"
      "to recover 32 B/tuple in the honest-but-curious model.\n");

  std::printf(
      "\nE8: server heap bytes per stored document, %zu rows of T(key, "
      "val) (mallinfo2 uordblks delta across kStoreRelation, after "
      "malloc_trim)\n\n",
      server_rows);
  std::printf("%-44s %10s %14s\n", "server set-up", "doc B", "server B/doc");
  struct Setup {
    const char* label;
    bool integrity;
    client::VerifyMode mode;
  };
  const Setup setups[] = {
      {"integrity off", false, client::VerifyMode::kOff},
      {"integrity on, unverified owner", true, client::VerifyMode::kOff},
      {"integrity on, Enforce owner (search entries)", true,
       client::VerifyMode::kEnforce},
  };
  for (const Setup& setup : setups) {
    double doc_bytes = 0;
    double per_doc = ServerBytesPerDocument(server_rows, setup.integrity,
                                            setup.mode, &doc_bytes);
    if (per_doc < 0) {
      std::printf("server set-up '%s' failed\n", setup.label);
      return 1;
    }
    std::printf("%-44s %10.1f %14.1f\n", setup.label, doc_bytes, per_doc);
  }
  return 0;
}
