#include "swp/match_kernel.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_compress.h"

namespace dbph {
namespace swp {

namespace {

using crypto::kSha256BatchLanes;
constexpr size_t kDigest = crypto::HmacSha256Precomputed::kDigestSize;

inline uint32_t Load32BE(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

}  // namespace

Result<size_t> CollectWordRefs(std::span<const uint8_t> serialized,
                               std::vector<WordRef>* out) {
  const uint8_t* data = serialized.data();
  const size_t size = serialized.size();
  size_t pos = 0;
  const auto read_u32 = [&](uint32_t* v) {
    if (size - pos < 4) return false;
    *v = Load32BE(data + pos);
    pos += 4;
    return true;
  };
  const auto skip = [&](size_t n) {
    if (size - pos < n) return false;
    pos += n;
    return true;
  };

  uint32_t nonce_len = 0;
  if (!read_u32(&nonce_len) || !skip(nonce_len)) {
    return Status::DataLoss("truncated document nonce");
  }
  uint32_t count = 0;
  if (!read_u32(&count)) return Status::DataLoss("truncated word count");
  out->reserve(out->size() + std::min<size_t>(count, (size - pos) / 4));
  const size_t first = out->size();
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t word_len = 0;
    if (!read_u32(&word_len) || size - pos < word_len) {
      out->resize(first);
      return Status::DataLoss("truncated word slot");
    }
    out->push_back({static_cast<uint32_t>(pos), word_len});
    pos += word_len;
  }
  uint32_t tag_len = 0;
  if (!read_u32(&tag_len) || !skip(tag_len)) {
    out->resize(first);
    return Status::DataLoss("truncated document tag");
  }
  return static_cast<size_t>(count);
}

MatchContext::MatchContext(const SwpParams& params, const Trapdoor& trapdoor)
    : params_(params), target_(trapdoor.target), schedule_(trapdoor.key) {
  viable_ = target_.size() > params_.check_length;
  if (viable_) {
    left_len_ = target_.size() - params_.check_length;
    msg_len_ = left_len_ + 4;
    // Lane-major message scratch plus one digest slab for the batch.
    scratch_.resize(kSha256BatchLanes * (msg_len_ + kDigest));
  }
}

bool MatchContext::EvalOne(const uint8_t* cipher) {
  ++match_evals_;
  uint8_t* msg = scratch_.data();
  for (size_t i = 0; i < left_len_; ++i) msg[i] = cipher[i] ^ target_[i];
  // T_0 covers check parts up to a digest; longer check parts extend in
  // counter mode exactly like HmacSha256Expand. The comparison
  // accumulates over every check byte — no early exit, constant time in
  // the contents.
  uint8_t digest[kDigest];
  uint8_t diff = 0;
  size_t produced = 0;
  uint32_t counter = 0;
  while (produced < params_.check_length) {
    uint8_t* ctr = msg + left_len_;
    ctr[0] = static_cast<uint8_t>(counter >> 24);
    ctr[1] = static_cast<uint8_t>(counter >> 16);
    ctr[2] = static_cast<uint8_t>(counter >> 8);
    ctr[3] = static_cast<uint8_t>(counter);
    ++counter;
    schedule_.Eval(msg, msg_len_, digest);
    const size_t take =
        std::min<size_t>(kDigest, params_.check_length - produced);
    const uint8_t* check = cipher + left_len_ + produced;
    const uint8_t* target_check = target_.data() + left_len_ + produced;
    for (size_t j = 0; j < take; ++j) {
      diff |= static_cast<uint8_t>(digest[j] ^ check[j] ^ target_check[j]);
    }
    produced += take;
  }
  return diff == 0;
}

bool MatchContext::Matches(const uint8_t* cipher, size_t len) {
  if (len != target_.size() || !viable_) return false;
  return EvalOne(cipher);
}

size_t MatchContext::MatchMany(std::span<const uint8_t> arena,
                               std::span<const WordRef> refs,
                               uint8_t* match_out) {
  std::memset(match_out, 0, refs.size());
  if (!viable_) return 0;
  const size_t target_len = target_.size();

  // Pass 1: length + bounds filter. Only in-bounds refs of exactly the
  // trapdoor's length ever reach the PRF — the same words the scalar
  // path would have evaluated.
  candidates_.clear();
  for (size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].length != target_len) continue;
    const uint64_t end =
        static_cast<uint64_t>(refs[i].offset) + refs[i].length;
    if (end > arena.size()) continue;  // hostile offset: never a match
    candidates_.push_back(static_cast<uint32_t>(i));
  }
  if (candidates_.empty()) return 0;

  // The wide check part falls back to the scalar counter-mode loop.
  if (params_.check_length > kDigest) {
    size_t matched = 0;
    for (uint32_t i : candidates_) {
      if (EvalOne(arena.data() + refs[i].offset)) {
        match_out[i] = 1;
        ++matched;
      }
    }
    return matched;
  }

  // Pass 2: batched PRF, kSha256BatchLanes lanes a pass. Messages are
  // built into lane-major scratch ((cipher XOR target) left part |
  // counter 0), digested by the multi-way compression kernel, then
  // compared against each word's check part with an accumulated
  // difference mask.
  uint8_t* msgs = scratch_.data();
  uint8_t* digests = scratch_.data() + kSha256BatchLanes * msg_len_;
  const uint8_t* lane_ptrs[kSha256BatchLanes];
  size_t matched = 0;
  for (size_t base = 0; base < candidates_.size();
       base += kSha256BatchLanes) {
    const size_t lanes =
        std::min(kSha256BatchLanes, candidates_.size() - base);
    for (size_t l = 0; l < lanes; ++l) {
      const uint8_t* cipher = arena.data() + refs[candidates_[base + l]].offset;
      uint8_t* msg = msgs + l * msg_len_;
      for (size_t i = 0; i < left_len_; ++i) msg[i] = cipher[i] ^ target_[i];
      std::memset(msg + left_len_, 0, 4);  // counter 0
      lane_ptrs[l] = msg;
    }
    schedule_.EvalMany(lane_ptrs, msg_len_, lanes, digests);
    match_evals_ += lanes;
    for (size_t l = 0; l < lanes; ++l) {
      const uint32_t ref_index = candidates_[base + l];
      const uint8_t* cipher = arena.data() + refs[ref_index].offset;
      const uint8_t* digest = digests + l * kDigest;
      const uint8_t* check = cipher + left_len_;
      const uint8_t* target_check = target_.data() + left_len_;
      uint8_t diff = 0;
      for (size_t j = 0; j < params_.check_length; ++j) {
        diff |= static_cast<uint8_t>(digest[j] ^ check[j] ^ target_check[j]);
      }
      if (diff == 0) {
        match_out[ref_index] = 1;
        ++matched;
      }
    }
  }
  return matched;
}

}  // namespace swp
}  // namespace dbph
