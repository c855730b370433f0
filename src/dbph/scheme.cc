#include "dbph/scheme.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "swp/search.h"

namespace dbph {
namespace core {

Result<DatabasePh> DatabasePh::Create(const rel::Schema& schema,
                                      const Bytes& master_key,
                                      const DbphOptions& options) {
  if (master_key.empty()) {
    return Status::InvalidArgument("empty master key");
  }
  if (options.nonce_length < 8) {
    return Status::InvalidArgument("nonce must be at least 8 bytes");
  }
  DBPH_ASSIGN_OR_RETURN(
      DocumentMapper mapper,
      DocumentMapper::Create(schema, options.variable_length));

  // The SWP subkeys derive from a dedicated branch of the master key.
  Bytes swp_master = crypto::DeriveSubkey(master_key, "dbph/swp-master");
  Bytes stream_key = swp::SwpKeys::Derive(swp_master).stream_key;
  Bytes mac_key = crypto::DeriveSubkey(master_key, "dbph/document-mac");

  std::map<size_t, std::unique_ptr<swp::SearchableScheme>> schemes;
  for (size_t len : mapper.DistinctWordLengths()) {
    if (options.check_length >= len) {
      return Status::InvalidArgument(
          "check_length " + std::to_string(options.check_length) +
          " leaves no left part for words of length " + std::to_string(len) +
          " (shrink check_length or lengthen attributes)");
    }
    swp::SwpParams params{len, options.check_length};
    DBPH_ASSIGN_OR_RETURN(auto scheme,
                          CreateScheme(options.variant, params, swp_master));
    schemes.emplace(len, std::move(scheme));
  }
  return DatabasePh(std::move(mapper), options, stream_key, mac_key,
                    std::move(schemes));
}

Result<swp::EncryptedDocument> DatabasePh::EncryptTuple(
    const rel::Tuple& tuple, crypto::Rng* rng) const {
  DBPH_ASSIGN_OR_RETURN(std::vector<Bytes> words,
                        mapper_.MakeDocument(tuple));

  // Slot assignment: a uniformly random permutation per tuple makes the
  // document a *set* of words, as the paper requires. Decryption never
  // needs the permutation — attribute ids reassign words to attributes.
  std::vector<size_t> slot_to_attr(words.size());
  std::iota(slot_to_attr.begin(), slot_to_attr.end(), 0);
  if (options_.shuffle_slots) {
    for (size_t i = slot_to_attr.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(rng->NextBelow(i));
      std::swap(slot_to_attr[i - 1], slot_to_attr[j]);
    }
  }

  swp::EncryptedDocument doc;
  doc.nonce = rng->NextBytes(options_.nonce_length);
  crypto::StreamGenerator stream(&stream_schedule_, doc.nonce);
  doc.words.reserve(words.size());
  for (size_t slot = 0; slot < slot_to_attr.size(); ++slot) {
    size_t attr = slot_to_attr[slot];
    const auto& scheme = SchemeFor(mapper_.WordLengthFor(attr));
    DBPH_ASSIGN_OR_RETURN(Bytes cipher,
                          scheme.EncryptWord(stream, slot, words[attr]));
    doc.words.push_back(std::move(cipher));
  }
  if (options_.authenticate_documents) {
    doc.tag = doc.MacTag(mac_schedule_);
  }
  return doc;
}

Result<EncryptedRelation> DatabasePh::EncryptRelation(
    const rel::Relation& relation, crypto::Rng* rng) const {
  if (!(relation.schema() == mapper_.schema())) {
    return Status::InvalidArgument(
        "relation schema does not match this database PH");
  }
  EncryptedRelation out;
  out.name = relation.name();
  out.check_length = static_cast<uint32_t>(options_.check_length);
  out.documents.reserve(relation.size());
  for (const rel::Tuple& tuple : relation.tuples()) {
    DBPH_ASSIGN_OR_RETURN(swp::EncryptedDocument doc,
                          EncryptTuple(tuple, rng));
    out.documents.push_back(std::move(doc));
  }
  return out;
}

Result<rel::Tuple> DatabasePh::DecryptTuple(
    const swp::EncryptedDocument& doc) const {
  if (options_.authenticate_documents) {
    Bytes expected = doc.MacTag(mac_schedule_);
    if (!ConstantTimeEqual(expected, doc.tag)) {
      return Status::DataLoss(
          "document authentication failed: the server returned a "
          "substituted or corrupted ciphertext");
    }
  }
  crypto::StreamGenerator stream(&stream_schedule_, doc.nonce);
  std::vector<Bytes> words;
  words.reserve(doc.words.size());
  for (size_t slot = 0; slot < doc.words.size(); ++slot) {
    auto it = schemes_.find(doc.words[slot].size());
    if (it == schemes_.end()) {
      return Status::DataLoss("ciphertext word of unknown length class");
    }
    DBPH_ASSIGN_OR_RETURN(Bytes word,
                          it->second->DecryptWord(stream, slot,
                                                  doc.words[slot]));
    words.push_back(std::move(word));
  }
  return mapper_.ReassembleTuple(words);
}

Result<rel::Relation> DatabasePh::DecryptRelation(
    const EncryptedRelation& enc) const {
  rel::Relation out(enc.name, mapper_.schema());
  for (const auto& doc : enc.documents) {
    DBPH_ASSIGN_OR_RETURN(rel::Tuple tuple, DecryptTuple(doc));
    DBPH_RETURN_IF_ERROR(out.Insert(std::move(tuple)));
  }
  return out;
}

Result<EncryptedQuery> DatabasePh::EncryptQuery(
    const std::string& relation, const std::string& attribute,
    const rel::Value& value) const {
  DBPH_ASSIGN_OR_RETURN(size_t attr, mapper_.schema().IndexOf(attribute));
  DBPH_ASSIGN_OR_RETURN(Bytes word, mapper_.MakeWord(attr, value));
  const auto& scheme = SchemeFor(mapper_.WordLengthFor(attr));
  DBPH_ASSIGN_OR_RETURN(swp::Trapdoor trapdoor, scheme.MakeTrapdoor(word));
  EncryptedQuery q;
  q.relation = relation;
  q.trapdoor = std::move(trapdoor);
  return q;
}

Result<EncryptedConjunction> DatabasePh::EncryptConjunction(
    const std::string& relation,
    const std::vector<std::pair<std::string, rel::Value>>& terms) const {
  if (terms.empty()) {
    return Status::InvalidArgument("conjunction needs at least one term");
  }
  EncryptedConjunction out;
  out.relation = relation;
  for (const auto& [attribute, value] : terms) {
    DBPH_ASSIGN_OR_RETURN(EncryptedQuery q,
                          EncryptQuery(relation, attribute, value));
    out.trapdoors.push_back(std::move(q.trapdoor));
  }
  return out;
}

Result<rel::Relation> DatabasePh::DecryptAndFilter(
    const std::vector<swp::EncryptedDocument>& docs,
    const std::string& attribute, const rel::Value& value) const {
  DBPH_ASSIGN_OR_RETURN(
      rel::ExactMatch predicate,
      rel::MakeExactMatch(mapper_.schema(), attribute, value));
  rel::Relation out("result", mapper_.schema());
  for (const auto& doc : docs) {
    DBPH_ASSIGN_OR_RETURN(rel::Tuple tuple, DecryptTuple(doc));
    if (predicate.Evaluate(tuple)) {
      DBPH_RETURN_IF_ERROR(out.Insert(std::move(tuple)));
    }
    // else: an SWP false positive — silently dropped, per the paper.
  }
  return out;
}

std::vector<size_t> ExecuteSelect(const EncryptedRelation& relation,
                                  const EncryptedQuery& query) {
  swp::SwpParams params;
  params.word_length = query.trapdoor.target.size();
  params.check_length = relation.check_length;
  swp::MatchContext context(params, query.trapdoor);
  std::vector<size_t> matches;
  for (size_t i = 0; i < relation.documents.size(); ++i) {
    if (swp::DocumentMatches(&context, relation.documents[i])) {
      matches.push_back(i);
    }
  }
  return matches;
}

std::vector<size_t> ExecuteConjunction(const EncryptedRelation& relation,
                                       const EncryptedConjunction& query) {
  std::vector<swp::MatchContext> contexts;
  contexts.reserve(query.trapdoors.size());
  for (const auto& trapdoor : query.trapdoors) {
    swp::SwpParams params;
    params.word_length = trapdoor.target.size();
    params.check_length = relation.check_length;
    contexts.emplace_back(params, trapdoor);
  }
  std::vector<size_t> matches;
  for (size_t i = 0; i < relation.documents.size(); ++i) {
    bool all = true;
    for (auto& context : contexts) {
      if (!swp::DocumentMatches(&context, relation.documents[i])) {
        all = false;
        break;
      }
    }
    if (all) matches.push_back(i);
  }
  return matches;
}

Bytes GenerateMasterKey(crypto::Rng* rng, size_t bytes) {
  return rng->NextBytes(bytes);
}

}  // namespace core
}  // namespace dbph
