#include "swp/final_scheme.h"

#include "common/macros.h"
#include "swp/search.h"

namespace dbph {
namespace swp {

void FinalScheme::LeftPartKey(const uint8_t* x,
                              uint8_t out[kWordKeySize]) const {
  word_key_.EvalInto(x, params_.left_length(), out, kWordKeySize);
}

Result<Bytes> FinalScheme::EncryptWord(const crypto::StreamGenerator& stream,
                                       uint64_t position,
                                       const Bytes& word) const {
  DBPH_RETURN_IF_ERROR(CheckWordLength(word));
  Bytes x = word;
  DBPH_RETURN_IF_ERROR(preencrypt_.EncryptInPlace(x.data(), x.size()));
  uint8_t word_key[kWordKeySize];
  LeftPartKey(x.data(), word_key);
  XorPad(stream, position, crypto::Prf(word_key, kWordKeySize), x.data());
  return x;
}

Result<Trapdoor> FinalScheme::MakeTrapdoor(const Bytes& word) const {
  DBPH_RETURN_IF_ERROR(CheckWordLength(word));
  Trapdoor t;
  t.target = word;
  DBPH_RETURN_IF_ERROR(
      preencrypt_.EncryptInPlace(t.target.data(), t.target.size()));
  t.key.resize(kWordKeySize);
  LeftPartKey(t.target.data(), t.key.data());
  return t;
}

bool FinalScheme::Matches(const Trapdoor& trapdoor,
                          const Bytes& cipher) const {
  if (cipher.size() != params_.word_length) return false;
  return MatchCipherWord(params_, trapdoor, cipher);
}

Result<Bytes> FinalScheme::DecryptWord(const crypto::StreamGenerator& stream,
                                       uint64_t position,
                                       const Bytes& cipher) const {
  DBPH_RETURN_IF_ERROR(CheckCipherLength(cipher));
  const size_t left_len = params_.left_length();

  // x becomes X = <L | R>, then is inverted in place into the word.
  Bytes x(cipher.size());
  ScratchBytes<kStackWord> s(left_len);
  stream.BlockInto(position, s.data(), left_len);
  for (size_t i = 0; i < left_len; ++i) x[i] = cipher[i] ^ s.data()[i];

  uint8_t word_key[kWordKeySize];
  LeftPartKey(x.data(), word_key);
  const crypto::Prf check(word_key, kWordKeySize);
  check.EvalInto(s.data(), left_len, x.data() + left_len,
                 params_.check_length);
  for (size_t i = left_len; i < x.size(); ++i) x[i] ^= cipher[i];
  DBPH_RETURN_IF_ERROR(preencrypt_.DecryptInPlace(x.data(), x.size()));
  return x;
}

}  // namespace swp
}  // namespace dbph
