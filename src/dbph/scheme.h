#ifndef DBPH_DBPH_SCHEME_H_
#define DBPH_DBPH_SCHEME_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/hmac.h"
#include "crypto/random.h"
#include "dbph/document.h"
#include "dbph/encrypted_relation.h"
#include "dbph/query.h"
#include "relation/relation.h"
#include "swp/scheme.h"

namespace dbph {
namespace core {

/// \brief Configuration of the database privacy homomorphism.
struct DbphOptions {
  /// Check bytes per word; per-word false-positive rate is 2^(-8m).
  size_t check_length = 4;
  /// The SWP construction words are encrypted with. Only the final scheme
  /// both hides queries and decrypts; the others are exposed for the
  /// ablation experiments.
  swp::SchemeVariant variant = swp::SchemeVariant::kFinal;
  /// Variable-length word classes (the full-version optimization).
  bool variable_length = false;
  /// Shuffle word slots per tuple so documents are sets (paper semantics).
  bool shuffle_slots = true;
  /// Nonce bytes per tuple.
  size_t nonce_length = 16;
  /// Append an HMAC tag to every document and verify it before
  /// decryption. Detects a server that substitutes, splices or corrupts
  /// ciphertexts (beyond the paper's honest-but-curious model).
  bool authenticate_documents = true;
};

/// \brief The paper's database privacy homomorphism (K, E, Eq, D).
///
/// One instance is bound to a relation schema and a master key:
///
///  - E  = EncryptRelation / EncryptTuple — tuple-by-tuple encryption into
///    documents of SWP-encrypted words (Definition 1.1, condition 1);
///  - Eq = EncryptQuery — maps σ_{a:v} to a search trapdoor
///    ϕ_{toString(v)|id(a)};
///  - ψ  = ExecuteSelect (a free function over public data only) — the
///    ciphertext operation the untrusted server runs;
///  - D  = DecryptTuple / DecryptRelation, plus DecryptAndFilter which
///    removes SWP false positives by re-checking the plaintext predicate
///    (the paper's client-side filter).
///
/// The homomorphism property E_k(σ(R)) = ψ(Eq_k(σ), E_k(R)) holds up to
/// the documented false-positive rate; after the filter the result is
/// exact. See tests/dbph_scheme_test.cc::HomomorphismProperty.
class DatabasePh {
 public:
  static Result<DatabasePh> Create(const rel::Schema& schema,
                                   const Bytes& master_key,
                                   const DbphOptions& options = {});

  const rel::Schema& schema() const { return mapper_.schema(); }
  const DbphOptions& options() const { return options_; }
  const DocumentMapper& mapper() const { return mapper_; }

  /// E_k on one tuple: builds the document, shuffles the slots, encrypts
  /// each word against a fresh per-tuple nonce.
  Result<swp::EncryptedDocument> EncryptTuple(const rel::Tuple& tuple,
                                              crypto::Rng* rng) const;

  /// E_k on a relation (tuple-by-tuple, per Definition 1.1).
  Result<EncryptedRelation> EncryptRelation(const rel::Relation& relation,
                                            crypto::Rng* rng) const;

  /// D_k on one document.
  Result<rel::Tuple> DecryptTuple(const swp::EncryptedDocument& doc) const;

  /// D_k on a whole encrypted relation.
  Result<rel::Relation> DecryptRelation(const EncryptedRelation& enc) const;

  /// Eq_k(σ_{attribute:value}).
  Result<EncryptedQuery> EncryptQuery(const std::string& relation,
                                      const std::string& attribute,
                                      const rel::Value& value) const;

  /// Eq_k on a conjunction (one trapdoor per term).
  Result<EncryptedConjunction> EncryptConjunction(
      const std::string& relation,
      const std::vector<std::pair<std::string, rel::Value>>& terms) const;

  /// Decrypts the documents the server returned for σ and drops false
  /// positives by re-evaluating the plaintext predicate.
  Result<rel::Relation> DecryptAndFilter(
      const std::vector<swp::EncryptedDocument>& docs,
      const std::string& attribute, const rel::Value& value) const;

 private:
  DatabasePh(DocumentMapper mapper, DbphOptions options,
             const Bytes& stream_key, const Bytes& mac_key,
             std::map<size_t, std::unique_ptr<swp::SearchableScheme>> schemes)
      : mapper_(std::move(mapper)),
        options_(options),
        stream_schedule_(stream_key),
        mac_schedule_(mac_key),
        schemes_(std::move(schemes)) {}

  const swp::SearchableScheme& SchemeFor(size_t word_length) const {
    return *schemes_.at(word_length);
  }

  DocumentMapper mapper_;
  DbphOptions options_;
  /// The stream key's HMAC schedule, derived once: every document's
  /// StreamGenerator borrows it instead of rebuilding it per tuple.
  crypto::HmacSha256Precomputed stream_schedule_;
  /// The MAC key's HMAC schedule, derived once: tagging/verifying a
  /// document costs no per-document key-schedule rebuild and no
  /// serialized MAC-input buffer (see EncryptedDocument::MacTag).
  crypto::HmacSha256Precomputed mac_schedule_;
  /// One SWP scheme per distinct word length (a single entry in fixed
  /// mode); all share subkeys derived from the same master.
  std::map<size_t, std::unique_ptr<swp::SearchableScheme>> schemes_;
};

/// \brief ψ: the server-side ciphertext operation. Returns the indices of
/// documents containing a word that matches the trapdoor.
///
/// Takes only public data — the encrypted relation and the encrypted
/// query — mirroring that the server holds no keys.
std::vector<size_t> ExecuteSelect(const EncryptedRelation& relation,
                                  const EncryptedQuery& query);

/// \brief ψ for conjunctions: documents matching *all* trapdoors.
std::vector<size_t> ExecuteConjunction(const EncryptedRelation& relation,
                                       const EncryptedConjunction& query);

/// \brief Generates a fresh uniformly random master key (the paper's
/// K <- K with security parameter n = 8 * `bytes`).
Bytes GenerateMasterKey(crypto::Rng* rng, size_t bytes = 32);

}  // namespace core
}  // namespace dbph

#endif  // DBPH_DBPH_SCHEME_H_
