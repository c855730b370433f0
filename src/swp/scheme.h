#ifndef DBPH_SWP_SCHEME_H_
#define DBPH_SWP_SCHEME_H_

#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/prf.h"
#include "swp/params.h"

namespace dbph {
namespace swp {

/// \brief A search trapdoor handed to the untrusted server.
///
/// For the hidden/final schemes `target` is the *pre-encrypted* word
/// E''(W); for the basic/controlled schemes it is the plaintext word
/// itself (which is precisely why those schemes do not hide queries —
/// see SearchableScheme::HidesQueries).
struct Trapdoor {
  Bytes target;
  Bytes key;  ///< the F key the server uses for the check part

  void AppendTo(Bytes* out) const;
  static Result<Trapdoor> ReadFrom(ByteReader* reader);
};

/// \brief Interface over the four Song–Wagner–Perrig constructions.
///
/// A scheme encrypts fixed-length words position by position against a
/// per-document pseudorandom stream (the caller supplies the
/// StreamGenerator seeded with the document nonce). The server, given a
/// trapdoor, can test any ciphertext word for equality with the queried
/// word — and learns nothing else (modulo each scheme's documented leak).
///
/// Scheme overview (SWP, IEEE S&P 2000):
///   I   Basic       — fixed check key; no pre-encryption; searching one
///                     word lets the server test *any* word (k'' global).
///   II  Controlled  — per-word check keys k_i = f_{k'}(W_i); trapdoor
///                     only unlocks the queried word; query is plaintext.
///   III Hidden      — scheme II over X = E''(W); queries hidden, but the
///                     data owner can no longer decrypt (k_i needs all of
///                     X).
///   IV  Final       — k_i = f_{k'}(L(X)) depends only on the left part,
///                     restoring decryptability while keeping queries
///                     hidden. This is the scheme the database PH uses.
class SearchableScheme {
 public:
  virtual ~SearchableScheme() = default;

  virtual std::string Name() const = 0;
  const SwpParams& params() const { return params_; }

  /// Encrypts the word at stream position `position` of a document.
  /// `word` must be exactly params().word_length bytes.
  virtual Result<Bytes> EncryptWord(const crypto::StreamGenerator& stream,
                                    uint64_t position,
                                    const Bytes& word) const = 0;

  /// Builds the search trapdoor for `word`.
  virtual Result<Trapdoor> MakeTrapdoor(const Bytes& word) const = 0;

  /// Server-side test: does `cipher` encrypt the trapdoor's word?
  /// Position independent; false positives with probability 2^(-8m).
  virtual bool Matches(const Trapdoor& trapdoor,
                       const Bytes& cipher) const = 0;

  /// Whether the data owner can decrypt ciphertext words (schemes I, IV).
  virtual bool SupportsDecryption() const = 0;

  /// Inverts EncryptWord. kUnimplemented for schemes II and III.
  virtual Result<Bytes> DecryptWord(const crypto::StreamGenerator& stream,
                                    uint64_t position,
                                    const Bytes& cipher) const = 0;

  /// Whether the trapdoor hides the queried word (schemes III, IV).
  virtual bool HidesQueries() const = 0;

 protected:
  SearchableScheme(SwpParams params, SwpKeys keys)
      : params_(params),
        keys_(std::move(keys)),
        word_key_(keys_.word_key_key) {}

  Status CheckWordLength(const Bytes& word) const;
  Status CheckCipherLength(const Bytes& cipher) const;

  /// XORs the pad <S_i | F_check(S_i)> onto word[0, word_length), in
  /// place and without allocations for words up to kStackWord bytes.
  void XorPad(const crypto::StreamGenerator& stream, uint64_t position,
              const crypto::Prf& check, uint8_t* word) const;

  /// Words up to this length encrypt and decrypt on stack scratch.
  static constexpr size_t kStackWord = 64;

  SwpParams params_;
  SwpKeys keys_;
  /// f_{k'}: derives per-word check keys (schemes II-IV). Its schedule
  /// is built once per scheme, not once per word.
  crypto::Prf word_key_;
};

/// Which of the four SWP constructions to instantiate.
enum class SchemeVariant { kBasic, kControlled, kHidden, kFinal };

const char* SchemeVariantName(SchemeVariant variant);

/// \brief Factory: builds a scheme with subkeys derived from `master`.
Result<std::unique_ptr<SearchableScheme>> CreateScheme(
    SchemeVariant variant, const SwpParams& params, const Bytes& master);

}  // namespace swp
}  // namespace dbph

#endif  // DBPH_SWP_SCHEME_H_
