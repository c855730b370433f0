#ifndef DBPH_CRYPTO_FEISTEL_H_
#define DBPH_CRYPTO_FEISTEL_H_

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/prf.h"

namespace dbph {
namespace crypto {

/// \brief Length-preserving pseudorandom permutation over byte strings of
/// any length >= 2, built as an alternating (unbalanced) Feistel network
/// with an HMAC-SHA256 round function (Luby–Rackoff).
///
/// SWP's deterministic pre-encryption E'' must be an invertible,
/// deterministic, length-preserving cipher over *word-sized* strings;
/// words are rarely exactly one AES block, so a dedicated small-domain
/// PRP is required. Alternating Feistel with a PRF round function is the
/// standard construction (also the basis of format-preserving encryption
/// modes); we use kRounds = 8 for comfortable margin over the 4-round
/// Luby–Rackoff bound.
///
/// Layout for input of n bytes: L = first floor(n/2) bytes, R = rest.
/// Even rounds update R from L, odd rounds update L from R; inversion
/// replays the rounds in reverse. Round r XORs
/// PRF(key, uint32_be(r) | source half) into the other half.
///
/// The round PRF's key schedule is derived once, at construction, and
/// the rounds run in place with stack scratch for inputs up to
/// kStackBytes (one heap buffer beyond): a round costs two SHA-256
/// compressions for words under ~50 bytes, and permuting a word
/// allocates nothing beyond the result.
class FeistelPrp {
 public:
  static constexpr int kRounds = 8;
  /// Longest input whose rounds run on stack scratch.
  static constexpr size_t kStackBytes = 128;

  /// `key` may be any length (it keys HMAC). Prefer >= 16 bytes.
  explicit FeistelPrp(const Bytes& key) : prf_(key) {}

  /// Encrypts `in`; returns a permuted string of the same length.
  /// Inputs shorter than 2 bytes are rejected (no room to split).
  Result<Bytes> Encrypt(const Bytes& in) const;

  /// Inverts Encrypt.
  Result<Bytes> Decrypt(const Bytes& in) const;

  /// Encrypt/Decrypt over data[0, len), overwriting it.
  Status EncryptInPlace(uint8_t* data, size_t len) const;
  Status DecryptInPlace(uint8_t* data, size_t len) const;

 private:
  /// Applies round `round` to data[0, len); `scratch` holds len + 4
  /// bytes.
  void Round(int round, uint8_t* data, size_t len, uint8_t* scratch) const;

  Prf prf_;
};

}  // namespace crypto
}  // namespace dbph

#endif  // DBPH_CRYPTO_FEISTEL_H_
