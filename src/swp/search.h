#ifndef DBPH_SWP_SEARCH_H_
#define DBPH_SWP_SEARCH_H_

#include <vector>

#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "swp/match_kernel.h"
#include "swp/scheme.h"

namespace dbph {
namespace swp {

/// \brief An encrypted document: ordered ciphertext word slots plus the
/// nonce that seeded its word stream. The order carries no plaintext
/// meaning when the producer shuffles slots (the database PH does).
///
/// `tag` is an optional integrity MAC over (nonce | words), added by the
/// database PH when document authentication is enabled: the paper's Eve
/// is honest-but-curious, but a deployment should *detect* a server that
/// substitutes or splices ciphertexts. Empty = unauthenticated.
struct EncryptedDocument {
  Bytes nonce;
  std::vector<Bytes> words;
  Bytes tag;

  /// The MAC input: nonce and every word, length-delimited (so word
  /// boundaries are authenticated too, not just the concatenation).
  /// Reference layout only — tag computation streams through MacTag,
  /// which never materializes this buffer.
  Bytes MacInput() const;

  /// HMAC(key, MacInput()) without building MacInput(): the nonce and
  /// words stream incrementally into the precomputed schedule, so a tag
  /// check costs no serialization buffer and no key-schedule rebuild.
  /// Bit-identical to HmacSha256(key, MacInput()).
  Bytes MacTag(const crypto::HmacSha256Precomputed& mac_schedule) const;

  /// MerkleTree::LeafHash of the AppendTo() bytes, streamed through
  /// SHA-256 without serializing the document.
  crypto::MerkleTree::Hash LeafHash() const;

  void AppendTo(Bytes* out) const;
  /// The number of bytes AppendTo writes.
  size_t SerializedSize() const;
  static Result<EncryptedDocument> ReadFrom(ByteReader* reader);
};

/// \brief Reads a count-prefixed document list (the wire shape shared by
/// select results, appends, and stored relations). The count comes from
/// untrusted input, so the reserve is capped by what the remaining
/// buffer could physically hold — kDocumentFramingBytes of framing
/// (nonce length, word count, tag length) per document minimum.
inline constexpr size_t kDocumentFramingBytes = 12;
Result<std::vector<EncryptedDocument>> ReadDocumentList(ByteReader* reader);

/// \brief The server-side match predicate, shared by all four schemes:
/// XOR the trapdoor target into the ciphertext and verify the check part
/// with the trapdoor key.
///
/// Deliberately a free function of (params, trapdoor, cipher) only — the
/// untrusted server holds no scheme keys, and this signature proves the
/// match needs none. False positives with probability 2^(-8m).
bool MatchCipherWord(const SwpParams& params, const Trapdoor& trapdoor,
                     const Bytes& cipher);

/// \brief Server-side scan of one document: slots whose ciphertext matches
/// the trapdoor. This is all an untrusted server can compute.
std::vector<size_t> SearchDocument(const SearchableScheme& scheme,
                                   const Trapdoor& trapdoor,
                                   const EncryptedDocument& doc);

/// \brief Keyless variant used by the server (word length may differ per
/// slot in variable-length mode; non-matching lengths never match).
std::vector<size_t> SearchDocument(const SwpParams& params,
                                   const Trapdoor& trapdoor,
                                   const EncryptedDocument& doc);

/// \brief Keyless: true when any slot of `doc` matches the context's
/// trapdoor. Callers checking many documents against one trapdoor (the
/// client's re-check of a result set) build the context once.
bool DocumentMatches(MatchContext* context, const EncryptedDocument& doc);

/// \brief Convenience: true when any slot matches.
bool DocumentContains(const SearchableScheme& scheme,
                      const Trapdoor& trapdoor,
                      const EncryptedDocument& doc);

}  // namespace swp
}  // namespace dbph

#endif  // DBPH_SWP_SEARCH_H_
