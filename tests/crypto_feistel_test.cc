#include "crypto/feistel.h"

#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/random.h"

namespace dbph {
namespace crypto {
namespace {

TEST(FeistelTest, RoundTripAllSmallLengths) {
  FeistelPrp prp(ToBytes("feistel key"));
  HmacDrbg rng("feistel-roundtrip", 11);
  for (size_t len = 2; len <= 64; ++len) {
    Bytes pt = rng.NextBytes(len);
    auto ct = prp.Encrypt(pt);
    ASSERT_TRUE(ct.ok()) << "len " << len;
    EXPECT_EQ(ct->size(), len);
    auto back = prp.Decrypt(*ct);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, pt) << "len " << len;
  }
}

TEST(FeistelTest, RejectsTooShort) {
  FeistelPrp prp(ToBytes("k"));
  EXPECT_FALSE(prp.Encrypt(Bytes{0x01}).ok());
  EXPECT_FALSE(prp.Encrypt(Bytes{}).ok());
  EXPECT_FALSE(prp.Decrypt(Bytes{0x01}).ok());
}

TEST(FeistelTest, Deterministic) {
  FeistelPrp prp(ToBytes("k"));
  Bytes pt = ToBytes("determinism!");
  EXPECT_EQ(*prp.Encrypt(pt), *prp.Encrypt(pt));
}

TEST(FeistelTest, KeySeparation) {
  FeistelPrp a(ToBytes("key-a"));
  FeistelPrp b(ToBytes("key-b"));
  Bytes pt = ToBytes("same plaintext");
  EXPECT_NE(*a.Encrypt(pt), *b.Encrypt(pt));
}

// A permutation on a tiny domain must be injective: enumerate all 2-byte
// inputs over a restricted alphabet and require distinct outputs.
TEST(FeistelTest, InjectiveOnSampledDomain) {
  FeistelPrp prp(ToBytes("injectivity"));
  std::set<Bytes> images;
  int count = 0;
  for (int a = 0; a < 64; ++a) {
    for (int b = 0; b < 64; ++b) {
      Bytes pt = {static_cast<uint8_t>(a), static_cast<uint8_t>(b)};
      auto ct = prp.Encrypt(pt);
      ASSERT_TRUE(ct.ok());
      images.insert(*ct);
      ++count;
    }
  }
  EXPECT_EQ(static_cast<int>(images.size()), count);
}

// Avalanche: flipping one plaintext bit should change roughly half the
// ciphertext bits on average. We accept a generous band.
TEST(FeistelTest, Avalanche) {
  FeistelPrp prp(ToBytes("avalanche"));
  HmacDrbg rng("avalanche", 3);
  const size_t len = 16;
  int total_bits = 0;
  int flipped_bits = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes pt = rng.NextBytes(len);
    Bytes pt2 = pt;
    size_t byte = rng.NextBelow(len);
    pt2[byte] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    Bytes d = Xor(*prp.Encrypt(pt), *prp.Encrypt(pt2));
    for (uint8_t x : d) flipped_bits += __builtin_popcount(x);
    total_bits += static_cast<int>(len) * 8;
  }
  double ratio = static_cast<double>(flipped_bits) / total_bits;
  EXPECT_GT(ratio, 0.40);
  EXPECT_LT(ratio, 0.60);
}

TEST(FeistelTest, OddLengthsRoundTrip) {
  FeistelPrp prp(ToBytes("odd"));
  for (size_t len : {3u, 5u, 7u, 9u, 11u, 13u, 33u, 63u}) {
    Bytes pt(len);
    for (size_t i = 0; i < len; ++i) pt[i] = static_cast<uint8_t>(i * 7 + 1);
    auto ct = prp.Encrypt(pt);
    ASSERT_TRUE(ct.ok());
    EXPECT_EQ(*prp.Decrypt(*ct), pt);
  }
}

// The Feistel network as first written: split into two vectors, derive
// each round value with a one-shot HmacSha256Expand over
// uint32_be(round) | half, and XOR it in. The in-place implementation
// must agree with it on every length.
Bytes ReferenceRoundValue(const Bytes& key, int round, const Bytes& half,
                          size_t out_len) {
  Bytes input;
  AppendUint32(&input, static_cast<uint32_t>(round));
  input.insert(input.end(), half.begin(), half.end());
  return HmacSha256Expand(key, input, out_len);
}

Bytes ReferenceFeistel(const Bytes& key, const Bytes& in, bool decrypt) {
  const size_t l_len = in.size() / 2;
  Bytes left(in.begin(), in.begin() + static_cast<long>(l_len));
  Bytes right(in.begin() + static_cast<long>(l_len), in.end());
  for (int i = 0; i < FeistelPrp::kRounds; ++i) {
    const int round = decrypt ? FeistelPrp::kRounds - 1 - i : i;
    if (round % 2 == 0) {
      XorInPlace(&right, ReferenceRoundValue(key, round, left, right.size()));
    } else {
      XorInPlace(&left, ReferenceRoundValue(key, round, right, left.size()));
    }
  }
  return Concat(left, right);
}

// Lengths 2..200 cross the stack-scratch threshold (kStackBytes) and the
// round-message sizes where the HMAC inner hash grows a block.
TEST(FeistelTest, MatchesReferenceOnEveryLength) {
  static_assert(FeistelPrp::kStackBytes < 200);
  const Bytes key = ToBytes("feistel reference key");
  FeistelPrp prp(key);
  HmacDrbg rng("feistel-reference", 5);
  for (size_t len = 2; len <= 200; ++len) {
    SCOPED_TRACE(len);
    Bytes pt = rng.NextBytes(len);
    auto ct = prp.Encrypt(pt);
    ASSERT_TRUE(ct.ok());
    EXPECT_EQ(*ct, ReferenceFeistel(key, pt, /*decrypt=*/false));
    EXPECT_EQ(*prp.Decrypt(pt), ReferenceFeistel(key, pt, /*decrypt=*/true));
    Bytes in_place = pt;
    ASSERT_TRUE(prp.EncryptInPlace(in_place.data(), in_place.size()).ok());
    EXPECT_EQ(in_place, *ct);
    ASSERT_TRUE(prp.DecryptInPlace(in_place.data(), in_place.size()).ok());
    EXPECT_EQ(in_place, pt);
  }
}

}  // namespace
}  // namespace crypto
}  // namespace dbph
