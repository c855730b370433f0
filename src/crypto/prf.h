#ifndef DBPH_CRYPTO_PRF_H_
#define DBPH_CRYPTO_PRF_H_

#include <memory>

#include "common/bytes.h"
#include "crypto/hmac.h"

namespace dbph {
namespace crypto {

/// \brief Keyed pseudorandom function F_k : {0,1}* -> {0,1}^{8*out_len},
/// realized as HMAC-SHA256 with counter-mode expansion.
///
/// This is the "F" of the SWP construction (maps the stream half S_i to the
/// check half) and the "f" that derives per-word keys k_i = f_{k'}(L_i).
///
/// The HMAC key schedule is derived once, in the constructor: every
/// evaluation of a long-lived Prf costs two SHA-256 compressions per
/// 32 output bytes (for messages under 56 bytes) and no allocations.
class Prf {
 public:
  explicit Prf(const Bytes& key) : schedule_(key) {}
  Prf(const uint8_t* key, size_t key_len) : schedule_(key, key_len) {}

  /// Evaluates the PRF on `input`, producing exactly `out_len` bytes.
  Bytes Eval(const Bytes& input, size_t out_len) const;

  /// Eval into caller memory: out[0, out_len) = HmacSha256Expand(key,
  /// in[0, len), out_len), bit for bit, with zero allocations.
  void EvalInto(const uint8_t* in, size_t len, uint8_t* out,
                size_t out_len) const {
    schedule_.ExpandInto(in, len, out, out_len);
  }

 private:
  HmacSha256Precomputed schedule_;
};

/// \brief The pseudorandom stream generator "G" of the SWP construction,
/// with random access by element index.
///
/// S_i = PRF(key, nonce | i) truncated to `width` bytes. Random access by
/// index is essential: the data owner decrypts word slots independently,
/// and the server never learns the seed.
class StreamGenerator {
 public:
  /// Derives (and owns) the stream key's schedule.
  StreamGenerator(const Bytes& key, Bytes nonce);

  /// Borrows `schedule`, which must outlive the generator: a caller that
  /// opens one stream per document derives the key schedule once.
  StreamGenerator(const HmacSha256Precomputed* schedule, Bytes nonce)
      : schedule_(schedule), nonce_(std::move(nonce)) {}

  /// Returns S_index, a pseudorandom block of `width` bytes.
  Bytes Block(uint64_t index, size_t width) const;

  /// Writes S_index into out[0, width), zero allocations for nonces up
  /// to kStackNonce bytes.
  void BlockInto(uint64_t index, uint8_t* out, size_t width) const;

 private:
  static constexpr size_t kStackNonce = 56;

  std::unique_ptr<const HmacSha256Precomputed> owned_;
  const HmacSha256Precomputed* schedule_;
  Bytes nonce_;
};

}  // namespace crypto
}  // namespace dbph

#endif  // DBPH_CRYPTO_PRF_H_
