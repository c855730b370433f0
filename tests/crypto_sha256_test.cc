#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/hmac.h"

namespace dbph {
namespace crypto {
namespace {

std::string HashHex(const std::string& msg) {
  return HexEncode(Sha256::Hash(ToBytes(msg)));
}

/// FIPS 180-4 spelled out with nothing but the compression function:
/// msg | 0x80 | zeros to 56 mod 64 | 64-bit big-endian bit length, folded
/// block by block from `state` (which has absorbed `prefix_bytes` bytes).
Bytes ReferenceDigest(const Bytes& msg,
                      Sha256State state = Sha256InitialState(),
                      uint64_t prefix_bytes = 0) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0x00);
  const uint64_t bits = (prefix_bytes + msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  for (size_t off = 0; off < padded.size(); off += 64) {
    Sha256Compress(&state, padded.data() + off);
  }
  Bytes digest;
  for (uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      digest.push_back(static_cast<uint8_t>(word >> shift));
    }
  }
  return digest;
}

/// A message whose bytes differ by position, so a misplaced byte shows.
Bytes PatternMessage(size_t len) {
  Bytes msg(len);
  for (size_t i = 0; i < len; ++i) msg[i] = static_cast<uint8_t>(i * 7 + 1);
  return msg;
}

/// HMAC-SHA256 (RFC 2104) from the reference digest alone.
Bytes ReferenceHmac(const Bytes& key, const Bytes& msg) {
  Bytes k = key.size() > 64 ? ReferenceDigest(key) : key;
  k.resize(64, 0x00);
  Bytes inner(64), outer(64);
  for (size_t i = 0; i < 64; ++i) {
    inner[i] = k[i] ^ 0x36;
    outer[i] = k[i] ^ 0x5c;
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  Bytes inner_digest = ReferenceDigest(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return ReferenceDigest(outer);
}

// NIST FIPS 180-4 / well-known reference digests.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, QuickBrownFox) {
  EXPECT_EQ(HashHex("The quick brown fox jumps over the lazy dog"),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "incremental hashing must be equivalent to one-shot";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(ToBytes(msg.substr(0, split)));
    h.Update(ToBytes(msg.substr(split)));
    EXPECT_EQ(HexEncode(h.Finish()), HashHex(msg)) << "split=" << split;
  }
  // Every length 0..200 — one- and two-block finishes, tails of every
  // size — fed whole and split at every offset, against the reference.
  for (size_t len = 0; len <= 200; ++len) {
    const Bytes msg_bytes = PatternMessage(len);
    const Bytes expected = ReferenceDigest(msg_bytes);
    ASSERT_EQ(Sha256::Hash(msg_bytes), expected) << "len=" << len;
    for (size_t split = 0; split <= len; ++split) {
      Sha256 h;
      h.Update(msg_bytes.data(), split);
      h.Update(msg_bytes.data() + split, len - split);
      uint8_t out[Sha256::kDigestSize];
      h.FinishInto(out);
      ASSERT_EQ(Bytes(out, out + sizeof(out)), expected)
          << "len=" << len << " split=" << split;
    }
  }
}

TEST(Sha256Test, ResumedMidstateFinishesAtEveryPaddingBoundary) {
  // A hasher resumed from a cloned midstate (HMAC's ipad state) counts
  // the prefix block in its bit length; its finish must match the
  // reference fold at the lengths where padding changes shape.
  Bytes key = ToBytes("midstate-key");
  HmacSha256Precomputed schedule(key);
  Sha256State ipad_state = Sha256InitialState();
  Bytes ipad(64, 0x36);
  for (size_t i = 0; i < key.size(); ++i) ipad[i] ^= key[i];
  Sha256Compress(&ipad_state, ipad.data());
  ASSERT_EQ(ipad_state, schedule.inner_midstate());
  for (size_t len : {0u, 1u, 54u, 55u, 56u, 57u, 63u, 64u, 65u, 118u, 119u,
                     120u, 121u, 127u, 128u}) {
    const Bytes msg = PatternMessage(len);
    Sha256 resumed = Sha256::FromMidstate(schedule.inner_midstate(), 64);
    resumed.Update(msg);
    EXPECT_EQ(resumed.Finish(), ReferenceDigest(msg, ipad_state, 64))
        << "len=" << len;

    const Bytes expected = ReferenceHmac(key, msg);
    EXPECT_EQ(HmacSha256(key, msg), expected) << "len=" << len;
    for (size_t split : {size_t{0}, len / 2, len}) {
      HmacSha256Stream stream(&schedule);
      stream.Update(msg.data(), split);
      stream.Update(msg.data() + split, len - split);
      EXPECT_EQ(stream.Finish(), expected)
          << "len=" << len << " split=" << split;
    }
  }
}

TEST(Sha256Test, ResetRestoresPristineState) {
  Sha256 h;
  h.Update(ToBytes("garbage"));
  h.Reset();
  h.Update(ToBytes("abc"));
  EXPECT_EQ(HexEncode(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Boundary lengths around the 64-byte block size (55/56/63/64/65 bytes):
// padding behaviour changes at each of these.
TEST(Sha256Test, BlockBoundaryLengths) {
  struct Case {
    size_t len;
    const char* digest;
  };
  // Digests of 'a' * len, cross-checked with coreutils sha256sum.
  const Case cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
  };
  for (const auto& c : cases) {
    Bytes msg(c.len, 'a');
    EXPECT_EQ(HexEncode(Sha256::Hash(msg)), c.digest) << "len=" << c.len;
    EXPECT_EQ(HexEncode(ReferenceDigest(msg)), c.digest) << "len=" << c.len;
  }
  // The reference agrees with the published vectors above, so it can
  // stand in for them at every other length.
  for (size_t len = 0; len <= 200; ++len) {
    Bytes msg(len, 'a');
    EXPECT_EQ(Sha256::Hash(msg), ReferenceDigest(msg)) << "len=" << len;
  }
}

}  // namespace
}  // namespace crypto
}  // namespace dbph
