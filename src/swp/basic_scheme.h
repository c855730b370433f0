#ifndef DBPH_SWP_BASIC_SCHEME_H_
#define DBPH_SWP_BASIC_SCHEME_H_

#include <string>

#include "swp/scheme.h"

namespace dbph {
namespace swp {

/// \brief Scheme I of SWP: C_i = W_i XOR <S_i, F_{k''}(S_i)> with one
/// global check key k''.
///
/// Searching requires revealing k'' — after a single query the server can
/// probe every position for any candidate word. Kept as a pedagogical
/// baseline and negative control for the games; never used by the
/// database PH.
class BasicScheme : public SearchableScheme {
 public:
  BasicScheme(SwpParams params, SwpKeys keys)
      : SearchableScheme(params, std::move(keys)), check_(keys_.check_key) {}

  std::string Name() const override { return "swp-basic"; }

  Result<Bytes> EncryptWord(const crypto::StreamGenerator& stream,
                            uint64_t position,
                            const Bytes& word) const override;
  Result<Trapdoor> MakeTrapdoor(const Bytes& word) const override;
  bool Matches(const Trapdoor& trapdoor, const Bytes& cipher) const override;
  bool SupportsDecryption() const override { return true; }
  Result<Bytes> DecryptWord(const crypto::StreamGenerator& stream,
                            uint64_t position,
                            const Bytes& cipher) const override;
  bool HidesQueries() const override { return false; }

 private:
  /// F_{k''}, keyed once: the global check key never changes.
  crypto::Prf check_;
};

}  // namespace swp
}  // namespace dbph

#endif  // DBPH_SWP_BASIC_SCHEME_H_
