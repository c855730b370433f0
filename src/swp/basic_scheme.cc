#include "swp/basic_scheme.h"

#include "common/macros.h"
#include "swp/search.h"

namespace dbph {
namespace swp {

Result<Bytes> BasicScheme::EncryptWord(const crypto::StreamGenerator& stream,
                                       uint64_t position,
                                       const Bytes& word) const {
  DBPH_RETURN_IF_ERROR(CheckWordLength(word));
  Bytes cipher = word;
  XorPad(stream, position, check_, cipher.data());
  return cipher;
}

Result<Trapdoor> BasicScheme::MakeTrapdoor(const Bytes& word) const {
  DBPH_RETURN_IF_ERROR(CheckWordLength(word));
  Trapdoor t;
  t.target = word;
  t.key = keys_.check_key;  // the global key leaks with the first query
  return t;
}

bool BasicScheme::Matches(const Trapdoor& trapdoor,
                          const Bytes& cipher) const {
  if (cipher.size() != params_.word_length) return false;
  return MatchCipherWord(params_, trapdoor, cipher);
}

Result<Bytes> BasicScheme::DecryptWord(const crypto::StreamGenerator& stream,
                                       uint64_t position,
                                       const Bytes& cipher) const {
  DBPH_RETURN_IF_ERROR(CheckCipherLength(cipher));
  Bytes word = cipher;
  XorPad(stream, position, check_, word.data());
  return word;
}

}  // namespace swp
}  // namespace dbph
