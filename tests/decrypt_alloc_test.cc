// Allocation regression tests. A global operator-new counting hook (the
// technique bench_e6_performance --scan uses) measures:
//  - DatabasePh::DecryptAndFilter over a result set. Every fixed key's
//    HMAC schedule is derived once and word decryption runs on stack
//    scratch, so the per-row count is a small constant: it must not
//    scale with the Feistel rounds or the PRF calls per word, as it did
//    when each of them built its own buffers.
//  - One verified first-contact select, end to end in process. The scan
//    memoizes its trapdoor and republishes the relation's snapshot; that
//    republish shares the row and search trees instead of copying them,
//    so the select's count must not scale with the relation's size.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "client/client.h"
#include "crypto/feistel.h"
#include "crypto/random.h"
#include "dbph/scheme.h"
#include "server/untrusted_server.h"

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dbph {
namespace {

using rel::Value;
using rel::ValueType;

// The benchmark relation's shape: T(key, val), key = "k<N>",
// val = N % 100.
Result<rel::Schema> BenchSchema() {
  return rel::Schema::Create({
      {"key", ValueType::kString, 8},
      {"val", ValueType::kInt64, 4},
  });
}

rel::Tuple BenchTuple(size_t n) {
  return rel::Tuple{Value::Str("k" + std::to_string(n)),
                    Value::Int(static_cast<int64_t>(n % 100))};
}

TEST(DecryptAllocTest, DecryptAndFilterStaysWithinPerRowBudget) {
  auto schema = BenchSchema();
  ASSERT_TRUE(schema.ok());
  auto ph = core::DatabasePh::Create(*schema, ToBytes("alloc test master"));
  ASSERT_TRUE(ph.ok());
  crypto::HmacDrbg rng("decrypt-alloc", 1);

  constexpr size_t kRows = 500;
  std::vector<swp::EncryptedDocument> docs;
  docs.reserve(kRows);
  for (size_t n = 0; n < kRows; ++n) {
    auto doc = ph->EncryptTuple(BenchTuple(n), &rng);
    ASSERT_TRUE(doc.ok());
    docs.push_back(std::move(*doc));
  }

  const uint64_t before = g_heap_allocs.load();
  auto result = ph->DecryptAndFilter(docs, "val", Value::Int(7));
  const uint64_t allocs = g_heap_allocs.load() - before;
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), kRows / 100);

  const double per_row = static_cast<double>(allocs) / kRows;
  RecordProperty("allocs_per_row", std::to_string(per_row));
  // Two words per row. What remains per row (7 today) is the tag check,
  // the document's stream nonce, the word vector, one buffer per
  // decrypted word and the tuple reassembly; a per-round or per-PRF
  // allocation would add at least kRounds per word (the code that built
  // buffers per call made 106 per row here).
  constexpr double kPerRowBudget = 10;
  static_assert(kPerRowBudget < 2 * crypto::FeistelPrp::kRounds);
  EXPECT_LE(per_row, kPerRowBudget) << allocs << " allocations over "
                                    << kRows << " rows";
}

/// Heap allocations made by one first-contact point select from an
/// Enforce client against an in-process server holding `docs` rows.
uint64_t FirstContactSelectAllocs(size_t docs) {
  auto schema = BenchSchema();
  EXPECT_TRUE(schema.ok());
  rel::Relation table("T", *schema);
  for (size_t n = 0; n < docs; ++n) {
    EXPECT_TRUE(table.Insert(BenchTuple(n)).ok());
  }
  server::UntrustedServer server;
  crypto::HmacDrbg rng("memo-alloc", 1);
  client::Client client(
      ToBytes("memo alloc master"),
      [&server](const Bytes& request) { return server.HandleRequest(request); },
      &rng);
  client.set_verify_mode(client::VerifyMode::kEnforce);
  EXPECT_TRUE(client.Outsource(table).ok());
  // A first select of another key takes the one-time costs (instrument
  // registration, kernel dispatch) off the measured one.
  auto warm = client.Select("T", "key", Value::Str("k1"));
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();

  const uint64_t before = g_heap_allocs.load();
  auto result = client.Select("T", "key", Value::Str("k42"));
  const uint64_t allocs = g_heap_allocs.load() - before;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ok() ? result->size() : 0, 1u);
  return allocs;
}

TEST(DecryptAllocTest, FirstContactSelectDoesNotScaleWithDocuments) {
  // The select scans every document, memoizes its trapdoor and
  // republishes the snapshot. Copying the trees in that republish cost
  // about one allocation per document (one posting list per distinct
  // search tag): about 8,560 at 8k rows.
  constexpr size_t kSmallDocs = 2000;
  constexpr size_t kLargeDocs = 8000;
  const uint64_t small = FirstContactSelectAllocs(kSmallDocs);
  const uint64_t large = FirstContactSelectAllocs(kLargeDocs);
  RecordProperty("allocs_2k_docs", std::to_string(small));
  RecordProperty("allocs_8k_docs", std::to_string(large));
  EXPECT_LT(large, 1000u) << "first-contact select at " << kLargeDocs
                          << " documents";
  // Growth of one allocation per ten added documents already fails.
  EXPECT_LT(large, small + (kLargeDocs - kSmallDocs) / 10)
      << small << " allocations at " << kSmallDocs << " documents, "
      << large << " at " << kLargeDocs;
}

}  // namespace
}  // namespace dbph
