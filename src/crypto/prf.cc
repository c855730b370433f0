#include "crypto/prf.h"

#include <cstring>

namespace dbph {
namespace crypto {

Bytes Prf::Eval(const Bytes& input, size_t out_len) const {
  Bytes out(out_len);
  EvalInto(input.data(), input.size(), out.data(), out_len);
  return out;
}

StreamGenerator::StreamGenerator(const Bytes& key, Bytes nonce)
    : owned_(std::make_unique<HmacSha256Precomputed>(key)),
      schedule_(owned_.get()),
      nonce_(std::move(nonce)) {}

Bytes StreamGenerator::Block(uint64_t index, size_t width) const {
  Bytes out(width);
  BlockInto(index, out.data(), width);
  return out;
}

void StreamGenerator::BlockInto(uint64_t index, uint8_t* out,
                                size_t width) const {
  // PRF input: nonce | big-endian 64-bit index.
  const size_t len = nonce_.size() + 8;
  ScratchBytes<kStackNonce + 8> input(len);
  uint8_t* p = input.data();
  if (!nonce_.empty()) std::memcpy(p, nonce_.data(), nonce_.size());
  for (int i = 0; i < 8; ++i) {
    p[nonce_.size() + i] = static_cast<uint8_t>(index >> (56 - 8 * i));
  }
  schedule_->ExpandInto(p, len, out, width);
}

}  // namespace crypto
}  // namespace dbph
