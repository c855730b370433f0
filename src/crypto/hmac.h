#ifndef DBPH_CRYPTO_HMAC_H_
#define DBPH_CRYPTO_HMAC_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"

namespace dbph {
namespace crypto {

/// \brief HMAC-SHA256 (RFC 2104 / FIPS 198-1).
///
/// Keys of any length are accepted (longer than the block size are hashed
/// first, per the RFC). Verified against the RFC 4231 test vectors.
Bytes HmacSha256(const Bytes& key, const Bytes& message);

/// \brief HMAC-SHA256 truncated/expanded to exactly `out_len` bytes.
///
/// For out_len <= 32 the digest is truncated. For longer outputs the
/// digest is extended in counter mode: T_i = HMAC(key, msg | i), i = 0..,
/// concatenated — the standard PRF-stretching used by HKDF-Expand.
Bytes HmacSha256Expand(const Bytes& key, const Bytes& message,
                       size_t out_len);

/// \brief A precomputed HMAC-SHA256 key schedule: the ipad and opad
/// chaining states are derived once per key, so evaluating a short
/// message costs exactly two SHA-256 compressions (one inner, one
/// outer) and zero heap allocations — against four compressions plus
/// the key copy/pad rebuild HmacSha256 pays per call.
///
/// This is the scan kernel's crypto core: a trapdoor's check key is
/// fixed for an entire scan, so the schedule amortizes across every
/// candidate word. Digests are bit-identical to HmacSha256 (asserted
/// against the RFC 4231 vectors in tests/crypto_hmac_test.cc).
class HmacSha256Precomputed {
 public:
  static constexpr size_t kDigestSize = Sha256::kDigestSize;
  static constexpr size_t kBlockSize = Sha256::kBlockSize;
  /// Longest message the single-inner-block fast path supports:
  /// 64 (ipad block) + len + padding must fit two blocks.
  static constexpr size_t kMaxOneBlockMessage = kBlockSize - 9;

  explicit HmacSha256Precomputed(const Bytes& key)
      : HmacSha256Precomputed(key.data(), key.size()) {}
  HmacSha256Precomputed(const uint8_t* key, size_t key_len);

  /// Evaluates HMAC(key, msg) into `out` (32 bytes), zero allocations.
  void Eval(const uint8_t* msg, size_t len, uint8_t out[kDigestSize]) const;

  /// Convenience overload for tests and cold paths.
  Bytes Eval(const Bytes& msg) const;

  /// \brief HmacSha256Expand over this schedule, zero allocations:
  /// out[0, out_len) = T_0 | T_1 | ... truncated, T_i = HMAC(key, msg | i)
  /// with i a big-endian 32-bit counter. Whole message blocks are
  /// absorbed once and shared by every counter block, so messages of any
  /// length and outputs of any length cost no scratch beyond the stack.
  void ExpandInto(const uint8_t* msg, size_t len, uint8_t* out,
                  size_t out_len) const;

  /// \brief Batched evaluation of `n` equal-length messages:
  /// out + 32*i receives HMAC(key, msgs[i]). Runs the lanes through the
  /// multi-way compression kernel (kSha256BatchLanes at a time), zero
  /// heap allocations.
  /// Bit-identical to n scalar Eval calls.
  void EvalMany(const uint8_t* const* msgs, size_t msg_len, size_t n,
                uint8_t* out) const;

  /// The chaining state after absorbing the ipad (resp. opad) block.
  const Sha256State& inner_midstate() const { return inner_; }
  const Sha256State& outer_midstate() const { return outer_; }

 private:
  Sha256State inner_;
  Sha256State outer_;
};

/// \brief Incremental HMAC-SHA256 over a precomputed schedule: stream
/// the message piecewise (no materialized input buffer), then Finish.
/// Reset() rewinds to the schedule's ipad state for the next message,
/// so one stream object MACs any number of documents with zero
/// per-document allocations.
class HmacSha256Stream {
 public:
  explicit HmacSha256Stream(const HmacSha256Precomputed* schedule)
      : schedule_(schedule),
        inner_(Sha256::FromMidstate(schedule->inner_midstate(),
                                    HmacSha256Precomputed::kBlockSize)) {}

  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  void Update(const Bytes& data) { inner_.Update(data); }
  /// Appends a big-endian 32-bit integer (the serializer's framing).
  void UpdateUint32(uint32_t v);

  /// Finalizes: HMAC(key, everything streamed since construction/Reset).
  void FinishInto(uint8_t out[HmacSha256Precomputed::kDigestSize]);
  Bytes Finish();

  /// Rewinds to the empty-message state for the next MAC.
  void Reset();

 private:
  const HmacSha256Precomputed* schedule_;
  Sha256 inner_;
};

}  // namespace crypto
}  // namespace dbph

#endif  // DBPH_CRYPTO_HMAC_H_
