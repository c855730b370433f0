#ifndef DBPH_SWP_FINAL_SCHEME_H_
#define DBPH_SWP_FINAL_SCHEME_H_

#include <string>

#include "crypto/feistel.h"
#include "swp/scheme.h"

namespace dbph {
namespace swp {

/// \brief Scheme IV of SWP — the "final scheme" the database privacy
/// homomorphism is built on.
///
/// Encryption of word W at stream position i:
///   X = E''(W)                 deterministic pre-encryption (Feistel PRP)
///   <L | R> = X                |L| = n - m, |R| = m
///   k_L = f_{k'}(L)            per-word key from the LEFT PART ONLY
///   C = X XOR <S_i, F_{k_L}(S_i)>
///
/// Search trapdoor for W: (X, k_L). The server XORs C with X and verifies
/// the check half — matching any occurrence at any position, with false-
/// positive probability 2^(-8m).
///
/// Decryption by the data owner regenerates S_i, recovers L = C_L XOR S_i,
/// re-derives k_L, strips the check pad, and inverts E''. Keying off L
/// alone is exactly what makes this possible (the fix over scheme III).
///
/// Cost per word: the fixed keys (stream, k', E'') have their HMAC
/// schedules built once, so a word pays 2 SHA-256 compressions for S_i,
/// 2 for k_L, 4 for F_{k_L} (2 of them its per-word key schedule) and 16
/// for the 8 Feistel rounds, all on stack scratch; the only allocation
/// is the returned word.
class FinalScheme : public SearchableScheme {
 public:
  FinalScheme(SwpParams params, SwpKeys keys)
      : SearchableScheme(params, std::move(keys)),
        preencrypt_(keys_.preencrypt_key) {}

  std::string Name() const override { return "swp-final"; }

  Result<Bytes> EncryptWord(const crypto::StreamGenerator& stream,
                            uint64_t position,
                            const Bytes& word) const override;
  Result<Trapdoor> MakeTrapdoor(const Bytes& word) const override;
  bool Matches(const Trapdoor& trapdoor, const Bytes& cipher) const override;
  bool SupportsDecryption() const override { return true; }
  Result<Bytes> DecryptWord(const crypto::StreamGenerator& stream,
                            uint64_t position,
                            const Bytes& cipher) const override;
  bool HidesQueries() const override { return true; }

 private:
  static constexpr size_t kWordKeySize = 32;

  /// out = k_L = f_{k'}(x[0, left_length)), x the pre-encrypted word.
  void LeftPartKey(const uint8_t* x, uint8_t out[kWordKeySize]) const;

  crypto::FeistelPrp preencrypt_;
};

}  // namespace swp
}  // namespace dbph

#endif  // DBPH_SWP_FINAL_SCHEME_H_
