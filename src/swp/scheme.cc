#include "swp/scheme.h"

#include "common/macros.h"
#include "swp/basic_scheme.h"
#include "swp/controlled_scheme.h"
#include "swp/final_scheme.h"
#include "swp/hidden_scheme.h"

namespace dbph {
namespace swp {

void Trapdoor::AppendTo(Bytes* out) const {
  AppendLengthPrefixed(out, target);
  AppendLengthPrefixed(out, key);
}

Result<Trapdoor> Trapdoor::ReadFrom(ByteReader* reader) {
  Trapdoor t;
  DBPH_ASSIGN_OR_RETURN(t.target, reader->ReadLengthPrefixed());
  DBPH_ASSIGN_OR_RETURN(t.key, reader->ReadLengthPrefixed());
  return t;
}

Status SearchableScheme::CheckWordLength(const Bytes& word) const {
  if (word.size() != params_.word_length) {
    return Status::InvalidArgument(
        "word must be exactly " + std::to_string(params_.word_length) +
        " bytes, got " + std::to_string(word.size()));
  }
  return Status::OK();
}

Status SearchableScheme::CheckCipherLength(const Bytes& cipher) const {
  if (cipher.size() != params_.word_length) {
    return Status::InvalidArgument("ciphertext word has wrong length");
  }
  return Status::OK();
}

void SearchableScheme::XorPad(const crypto::StreamGenerator& stream,
                              uint64_t position, const crypto::Prf& check,
                              uint8_t* word) const {
  const size_t left_len = params_.left_length();
  ScratchBytes<kStackWord> pad(params_.word_length);
  stream.BlockInto(position, pad.data(), left_len);
  check.EvalInto(pad.data(), left_len, pad.data() + left_len,
                 params_.check_length);
  for (size_t i = 0; i < params_.word_length; ++i) word[i] ^= pad.data()[i];
}

const char* SchemeVariantName(SchemeVariant variant) {
  switch (variant) {
    case SchemeVariant::kBasic:
      return "swp-basic";
    case SchemeVariant::kControlled:
      return "swp-controlled";
    case SchemeVariant::kHidden:
      return "swp-hidden";
    case SchemeVariant::kFinal:
      return "swp-final";
  }
  return "?";
}

Result<std::unique_ptr<SearchableScheme>> CreateScheme(
    SchemeVariant variant, const SwpParams& params, const Bytes& master) {
  DBPH_RETURN_IF_ERROR(params.Validate());
  if (master.empty()) {
    return Status::InvalidArgument("empty master key");
  }
  SwpKeys keys = SwpKeys::Derive(master);
  std::unique_ptr<SearchableScheme> scheme;
  switch (variant) {
    case SchemeVariant::kBasic:
      scheme = std::make_unique<BasicScheme>(params, std::move(keys));
      break;
    case SchemeVariant::kControlled:
      scheme = std::make_unique<ControlledScheme>(params, std::move(keys));
      break;
    case SchemeVariant::kHidden:
      scheme = std::make_unique<HiddenScheme>(params, std::move(keys));
      break;
    case SchemeVariant::kFinal:
      scheme = std::make_unique<FinalScheme>(params, std::move(keys));
      break;
  }
  return scheme;
}

}  // namespace swp
}  // namespace dbph
