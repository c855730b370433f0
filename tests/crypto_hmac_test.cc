#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/hkdf.h"
#include "crypto/prf.h"
#include "crypto/sha256_compress.h"

namespace dbph {
namespace crypto {
namespace {

Bytes Hex(const std::string& h) {
  auto r = HexDecode(h);
  EXPECT_TRUE(r.ok());
  return *r;
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes msg = ToBytes("Hi There");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  Bytes msg = ToBytes("what do ya want for nothing?");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes msg(50, 0xdd);
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key larger than block size.
TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  Bytes msg = ToBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, ExpandTruncates) {
  Bytes key = ToBytes("k");
  Bytes out = HmacSha256Expand(key, ToBytes("m"), 16);
  EXPECT_EQ(out.size(), 16u);
  Bytes full = HmacSha256Expand(key, ToBytes("m"), 32);
  EXPECT_EQ(Bytes(full.begin(), full.begin() + 16), out);
}

TEST(HmacTest, ExpandExtends) {
  Bytes key = ToBytes("k");
  Bytes out = HmacSha256Expand(key, ToBytes("m"), 100);
  EXPECT_EQ(out.size(), 100u);
  // Deterministic.
  EXPECT_EQ(out, HmacSha256Expand(key, ToBytes("m"), 100));
  // Different messages diverge.
  EXPECT_NE(out, HmacSha256Expand(key, ToBytes("n"), 100));
}

// The counter-mode expansion spelled out on top of one-shot HMAC: the
// definition Prf and HmacSha256Expand must keep, T_i = HMAC(key, msg | i).
Bytes ReferenceExpand(const Bytes& key, const Bytes& message,
                      size_t out_len) {
  Bytes out;
  for (uint32_t counter = 0; out.size() < out_len; ++counter) {
    Bytes input = message;
    AppendUint32(&input, counter);
    Bytes t = HmacSha256(key, input);
    const size_t take = std::min(t.size(), out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<long>(take));
  }
  return out;
}

// Output lengths around one digest; message lengths on both sides of the
// 55- and 119-byte padding boundaries, for the message alone and with the
// 4 counter bytes appended (where the inner hash grows a block), and of
// the whole-block boundaries; keys short and longer than a block.
TEST(PrfTest, EvalMatchesCounterModeDefinition) {
  const size_t out_lens[] = {1, 31, 32, 33, 64, 100};
  const size_t msg_lens[] = {0,   1,   51,  52,  54,  55,  56,  57,
                             59,  60,  63,  64,  65,  115, 116, 118,
                             119, 120, 121, 127, 128, 129, 200};
  for (const Bytes& key : {ToBytes("prf key"), Bytes(131, 0x5a)}) {
    const Prf prf(key);
    for (size_t msg_len : msg_lens) {
      Bytes msg(msg_len);
      for (size_t i = 0; i < msg_len; ++i) msg[i] = static_cast<uint8_t>(i);
      for (size_t out_len : out_lens) {
        SCOPED_TRACE("key " + std::to_string(key.size()) + " msg " +
                     std::to_string(msg_len) + " out " +
                     std::to_string(out_len));
        const Bytes expected = ReferenceExpand(key, msg, out_len);
        EXPECT_EQ(prf.Eval(msg, out_len), expected);
        EXPECT_EQ(HmacSha256Expand(key, msg, out_len), expected);
        // EvalInto writes exactly out_len bytes and nothing past them.
        Bytes buffer(out_len + 8, 0xee);
        prf.EvalInto(msg.data(), msg.size(), buffer.data(), out_len);
        EXPECT_EQ(Bytes(buffer.begin(), buffer.begin() + out_len), expected);
        EXPECT_EQ(Bytes(buffer.begin() + out_len, buffer.end()),
                  Bytes(8, 0xee));
      }
    }
  }
}

// A borrowed schedule and an owned one give the same stream, equal to
// PRF(key, nonce | uint64_be(index)), for nonces on both sides of the
// generator's stack threshold.
TEST(PrfTest, StreamGeneratorMatchesDefinition) {
  const Bytes key = ToBytes("stream key");
  const HmacSha256Precomputed schedule(key);
  for (size_t nonce_len : {0, 8, 16, 55, 56, 57, 100}) {
    Bytes nonce(nonce_len, 0x42);
    StreamGenerator owned(key, nonce);
    StreamGenerator borrowed(&schedule, nonce);
    for (uint64_t index : {uint64_t{0}, uint64_t{7}, uint64_t{1} << 40}) {
      for (size_t width : {1, 12, 32, 45}) {
        Bytes input = nonce;
        AppendUint64(&input, index);
        const Bytes expected = ReferenceExpand(key, input, width);
        EXPECT_EQ(owned.Block(index, width), expected);
        Bytes out(width);
        borrowed.BlockInto(index, out.data(), width);
        EXPECT_EQ(out, expected);
      }
    }
  }
}

// The precomputed schedule must agree with HmacSha256 on every RFC 4231
// vector (and hence with the RFC): one-shot, streaming, and batched
// evaluation all share the same ipad/opad midstates.
TEST(HmacPrecomputedTest, Rfc4231Vectors) {
  struct Case {
    Bytes key;
    Bytes msg;
    const char* expected;
  };
  const Case cases[] = {
      {Bytes(20, 0x0b), ToBytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {ToBytes("Jefe"), ToBytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {Bytes(131, 0xaa),
       ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const Case& c : cases) {
    HmacSha256Precomputed schedule(c.key);
    EXPECT_EQ(HexEncode(schedule.Eval(c.msg)), c.expected);

    // Streaming, byte-at-a-time, must land on the same digest.
    HmacSha256Stream stream(&schedule);
    for (uint8_t byte : c.msg) stream.Update(&byte, 1);
    EXPECT_EQ(HexEncode(stream.Finish()), c.expected);

    // Reset rewinds for the next message over the same schedule.
    stream.Reset();
    stream.Update(c.msg);
    EXPECT_EQ(HexEncode(stream.Finish()), c.expected);
  }
}

// Batched evaluation must be bit-identical to scalar evaluation for
// every lane, across lengths that exercise the one-block fast path,
// block-straddling padding, and multi-block messages — and for every
// partial batch width around the 8- and 16-lane kernels.
TEST(HmacPrecomputedTest, EvalManyMatchesScalar) {
  HmacSha256Precomputed schedule(ToBytes("batch key"));
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  const auto next = [&seed]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (size_t msg_len : {0u, 1u, 16u, 20u, 55u, 56u, 63u, 64u, 100u, 128u}) {
    for (size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u}) {
      std::vector<Bytes> msgs(n, Bytes(msg_len));
      std::vector<const uint8_t*> ptrs(n);
      for (size_t i = 0; i < n; ++i) {
        for (auto& b : msgs[i]) b = static_cast<uint8_t>(next());
        ptrs[i] = msgs[i].data();
      }
      std::vector<uint8_t> batched(n * 32);
      schedule.EvalMany(ptrs.data(), msg_len, n, batched.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(Bytes(batched.begin() + static_cast<long>(32 * i),
                        batched.begin() + static_cast<long>(32 * i + 32)),
                  schedule.Eval(msgs[i]))
            << "lane " << i << " of " << n << ", msg_len " << msg_len;
      }
    }
  }
}

// Sha256CompressMany must equal n single-block compressions at every
// width from 1 to 40: whole 16/8/4/2-lane groups plus every remainder.
// Each lane starts from its own random state (not a shared midstate)
// and reads its block from its own allocation at its own misalignment,
// as the matcher's per-lane scratch does.
TEST(Sha256KernelTest, CompressManyMatchesSingleBlockAtEveryWidth) {
  uint64_t seed = 0x243f6a8885a308d3ull;
  const auto next = [&seed]() {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (size_t n = 1; n <= 40; ++n) {
    std::vector<Sha256State> batched(n);
    std::vector<Sha256State> expected(n);
    std::vector<std::unique_ptr<uint8_t[]>> storage(n);
    std::vector<const uint8_t*> blocks(n);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t& word : batched[i]) word = static_cast<uint32_t>(next());
      expected[i] = batched[i];
      const size_t offset = 1 + (i * 5) % 63;  // distinct, never aligned
      storage[i] = std::make_unique<uint8_t[]>(offset + 64);
      uint8_t* block = storage[i].get() + offset;
      for (size_t b = 0; b < 64; ++b) block[b] = static_cast<uint8_t>(next());
      blocks[i] = block;
      Sha256Compress(&expected[i], block);
    }
    Sha256CompressMany(batched.data(), blocks.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched[i], expected[i]) << "lane " << i << " of " << n;
    }
  }
}

// The runtime dispatcher must honor DBPH_SHA256_KERNEL when the forced
// kernel is supported (ci.sh runs this test under each forced value as
// the dispatch smoke) and must never pick an unsupported kernel.
TEST(Sha256KernelTest, DispatchHonorsEnvironmentOverride) {
  const Sha256Kernel active = ActiveSha256Kernel();
  const char* forced = std::getenv("DBPH_SHA256_KERNEL");
  if (forced != nullptr) {
    const std::string want(forced);
    // The dispatcher only grants a supported kernel; portable is always
    // supported, so forcing it must always take effect.
    if (want == "portable") {
      EXPECT_EQ(active, Sha256Kernel::kPortable);
    }
    if (want == std::string(Sha256KernelName(active))) {
      SUCCEED();  // forced kernel granted
    }
  }
#if defined(__x86_64__)
  // avx512 heads the preference order, so both the default pick and a
  // forced `avx512` land on it exactly when the CPU has AVX-512F and the
  // OS saves ZMM state (libgcc checks both, independently of the
  // dispatcher's own cpuid/xgetbv probe).
  if (forced == nullptr || std::string(forced) == "avx512") {
    EXPECT_EQ(active == Sha256Kernel::kAvx512,
              __builtin_cpu_supports("avx512f") != 0);
  }
#endif
  // Whatever was selected must produce correct digests (the RFC/NIST
  // vector tests in this binary already ran against it) and a name.
  EXPECT_NE(std::string(Sha256KernelName(active)), "unknown");
}

// RFC 5869 test case 1 (SHA-256).
TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = Hex("000102030405060708090a0b0c");
  Bytes info = Hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes prk = HkdfExtract(salt, ikm);
  EXPECT_EQ(HexEncode(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes okm = HkdfExpand(prk, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3 (zero-length salt and info).
TEST(HkdfTest, Rfc5869Case3) {
  Bytes ikm(22, 0x0b);
  Bytes okm = Hkdf(Bytes(), ikm, Bytes(), 42);
  EXPECT_EQ(HexEncode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, SubkeysAreIndependent) {
  Bytes master = ToBytes("master key material");
  Bytes a = DeriveSubkey(master, "swp/pre-encryption");
  Bytes b = DeriveSubkey(master, "swp/word-key");
  EXPECT_EQ(a.size(), 32u);
  EXPECT_EQ(b.size(), 32u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, DeriveSubkey(master, "swp/pre-encryption"));
}

}  // namespace
}  // namespace crypto
}  // namespace dbph
