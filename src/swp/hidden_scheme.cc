#include "swp/hidden_scheme.h"

#include "common/macros.h"
#include "swp/search.h"

namespace dbph {
namespace swp {

Result<Bytes> HiddenScheme::EncryptWord(const crypto::StreamGenerator& stream,
                                        uint64_t position,
                                        const Bytes& word) const {
  DBPH_RETURN_IF_ERROR(CheckWordLength(word));
  DBPH_ASSIGN_OR_RETURN(Bytes x, preencrypt_.Encrypt(word));
  const crypto::Prf check(word_key_.Eval(x, 32));
  XorPad(stream, position, check, x.data());
  return x;
}

Result<Trapdoor> HiddenScheme::MakeTrapdoor(const Bytes& word) const {
  DBPH_RETURN_IF_ERROR(CheckWordLength(word));
  DBPH_ASSIGN_OR_RETURN(Bytes x, preencrypt_.Encrypt(word));
  Trapdoor t;
  t.key = word_key_.Eval(x, 32);
  t.target = std::move(x);  // only the pre-encryption leaves the client
  return t;
}

bool HiddenScheme::Matches(const Trapdoor& trapdoor,
                          const Bytes& cipher) const {
  if (cipher.size() != params_.word_length) return false;
  return MatchCipherWord(params_, trapdoor, cipher);
}

Result<Bytes> HiddenScheme::DecryptWord(const crypto::StreamGenerator&,
                                        uint64_t, const Bytes&) const {
  return Status::Unimplemented(
      "scheme III cannot decrypt: the check key depends on the whole "
      "pre-encrypted word (use the final scheme)");
}

}  // namespace swp
}  // namespace dbph
