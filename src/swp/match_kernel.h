#ifndef DBPH_SWP_MATCH_KERNEL_H_
#define DBPH_SWP_MATCH_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/hmac.h"
#include "swp/params.h"
#include "swp/scheme.h"

namespace dbph {
namespace swp {

/// \brief One candidate ciphertext word inside a contiguous arena:
/// `length` bytes starting at `offset`. The server's sealed chunks keep
/// their documents' serialized bytes back to back with one ref per word
/// slot, so a scan streams linearly instead of pointer-chasing per-word
/// heap vectors.
struct WordRef {
  uint32_t offset = 0;
  uint32_t length = 0;

  bool operator==(const WordRef& other) const = default;
};

/// \brief Walks a serialized EncryptedDocument and appends one WordRef
/// per word slot — offsets into `serialized` itself, nothing copied,
/// nothing allocated beyond `out`'s growth. Returns the word count.
///
/// Performs exactly the bounds checks EncryptedDocument::ReadFrom does,
/// so it fails on precisely the inputs ReadFrom fails on (callers that
/// need ReadFrom's exact error status re-parse on failure).
Result<size_t> CollectWordRefs(std::span<const uint8_t> serialized,
                               std::vector<WordRef>* out);

/// \brief The hot-scan matcher: everything derivable from a (params,
/// trapdoor) pair, computed once and reused across every candidate word
/// of a scan — the precomputed HMAC key schedule (two SHA-256
/// compressions per eval instead of four plus a key-schedule rebuild)
/// and the XOR/message scratch buffers (zero per-word allocations).
///
/// Matches()/MatchMany() return results bit-identical to
/// MatchCipherWord (which is now a thin wrapper over this class); the
/// equivalence is asserted exhaustively in tests/swp_match_kernel_test.
///
/// Constant-time invariant: like the scalar path, the check-part
/// comparison accumulates a difference mask over all check bytes —
/// batching changes the schedule of PRF evaluations, never the
/// data-dependence of the comparison. A word's match time depends only
/// on lengths, not on how many check bytes happened to agree.
///
/// Not thread-safe (owns scratch); build one per scan shard.
class MatchContext {
 public:
  MatchContext(const SwpParams& params, const Trapdoor& trapdoor);

  /// Single-word check, zero allocations. Bit-identical to
  /// MatchCipherWord(params, trapdoor, cipher).
  bool Matches(const uint8_t* cipher, size_t len);
  bool Matches(const Bytes& cipher) {
    return Matches(cipher.data(), cipher.size());
  }

  /// \brief Batched check of `refs.size()` candidate words against the
  /// arena: match_out[i] is 1 when refs[i] matches, else 0. PRF
  /// evaluations run through the multi-way compression kernel,
  /// crypto::kSha256BatchLanes at a time, with zero per-word allocations.
  ///
  /// Hostile refs are safe: a ref whose length differs from the
  /// trapdoor target never evaluates (exactly like the scalar length
  /// check), and a ref extending past the arena — malformed offsets
  /// from an untrusted source — is treated as a non-match without
  /// touching out-of-bounds memory. Returns the number of matches.
  size_t MatchMany(std::span<const uint8_t> arena,
                   std::span<const WordRef> refs, uint8_t* match_out);

  /// PRF evaluations performed since construction (the per-query
  /// `match_evals` EXPLAIN and the obs stack account).
  uint64_t match_evals() const { return match_evals_; }

  const SwpParams& params() const { return params_; }

 private:
  bool EvalOne(const uint8_t* cipher);

  SwpParams params_;
  Bytes target_;
  crypto::HmacSha256Precomputed schedule_;
  size_t left_len_ = 0;    ///< target bytes before the check part
  size_t msg_len_ = 0;     ///< PRF message: left part + 4-byte counter
  bool viable_ = false;    ///< target longer than the check part
  uint64_t match_evals_ = 0;
  /// Lane-major scratch for batched PRF messages and digests.
  std::vector<uint8_t> scratch_;
  std::vector<uint32_t> candidates_;
};

}  // namespace swp
}  // namespace dbph

#endif  // DBPH_SWP_MATCH_KERNEL_H_
