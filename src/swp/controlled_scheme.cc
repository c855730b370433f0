#include "swp/controlled_scheme.h"

#include "common/macros.h"
#include "swp/search.h"

namespace dbph {
namespace swp {

Bytes ControlledScheme::WordKey(const Bytes& word) const {
  return word_key_.Eval(word, 32);
}

Result<Bytes> ControlledScheme::EncryptWord(
    const crypto::StreamGenerator& stream, uint64_t position,
    const Bytes& word) const {
  DBPH_RETURN_IF_ERROR(CheckWordLength(word));
  Bytes cipher = word;
  XorPad(stream, position, crypto::Prf(WordKey(word)), cipher.data());
  return cipher;
}

Result<Trapdoor> ControlledScheme::MakeTrapdoor(const Bytes& word) const {
  DBPH_RETURN_IF_ERROR(CheckWordLength(word));
  Trapdoor t;
  t.target = word;  // plaintext query: scheme II does not hide queries
  t.key = WordKey(word);
  return t;
}

bool ControlledScheme::Matches(const Trapdoor& trapdoor,
                          const Bytes& cipher) const {
  if (cipher.size() != params_.word_length) return false;
  return MatchCipherWord(params_, trapdoor, cipher);
}

Result<Bytes> ControlledScheme::DecryptWord(const crypto::StreamGenerator&,
                                            uint64_t, const Bytes&) const {
  return Status::Unimplemented(
      "scheme II cannot decrypt: the check key depends on the whole word "
      "(use the final scheme)");
}

}  // namespace swp
}  // namespace dbph
