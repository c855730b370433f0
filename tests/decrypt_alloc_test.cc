// Allocation regression test for the client's decrypt path. A global
// operator-new counting hook (the technique bench_e6_performance --scan
// uses) measures DatabasePh::DecryptAndFilter over a result set. Every
// fixed key's HMAC schedule is derived once and word decryption runs on
// stack scratch, so the per-row count is a small constant: it must not
// scale with the Feistel rounds or the PRF calls per word, as it did
// when each of them built its own buffers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "crypto/feistel.h"
#include "crypto/random.h"
#include "dbph/scheme.h"

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

TEST(DecryptAllocTest, DecryptAndFilterStaysWithinPerRowBudget) {
  // The benchmark relation's shape: T(key, val), val = N % 100.
  auto schema = rel::Schema::Create({
      {"key", ValueType::kString, 8},
      {"val", ValueType::kInt64, 4},
  });
  ASSERT_TRUE(schema.ok());
  auto ph = core::DatabasePh::Create(*schema, ToBytes("alloc test master"));
  ASSERT_TRUE(ph.ok());
  crypto::HmacDrbg rng("decrypt-alloc", 1);

  constexpr size_t kRows = 500;
  std::vector<swp::EncryptedDocument> docs;
  docs.reserve(kRows);
  for (size_t n = 0; n < kRows; ++n) {
    rel::Tuple tuple{Value::Str("k" + std::to_string(n)),
                     Value::Int(static_cast<int64_t>(n % 100))};
    auto doc = ph->EncryptTuple(tuple, &rng);
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

}  // namespace
}  // namespace dbph
