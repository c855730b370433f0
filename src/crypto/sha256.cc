#include "crypto/sha256.h"

#include <cstring>

namespace dbph {
namespace crypto {

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  state_ = Sha256InitialState();
  buffer_len_ = 0;
  total_len_ = 0;
}

Sha256 Sha256::FromMidstate(const Sha256State& midstate,
                            uint64_t prefix_bytes) {
  Sha256 h;
  h.state_ = midstate;
  h.total_len_ = prefix_bytes;
  return h;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  // Fast path: with an empty buffer, whole blocks compress straight from
  // the input without staging through buffer_.
  if (buffer_len_ == 0) {
    while (len >= kBlockSize) {
      Sha256Compress(&state_, data);
      data += kBlockSize;
      len -= kBlockSize;
    }
  }
  while (len > 0) {
    size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      Sha256Compress(&state_, buffer_.data());
      buffer_len_ = 0;
      // Back on a block boundary: drain remaining whole blocks directly.
      while (len >= kBlockSize) {
        Sha256Compress(&state_, data);
        data += kBlockSize;
        len -= kBlockSize;
      }
    }
  }
}

void Sha256::FinishState(Sha256State* state, const uint8_t* data,
                         size_t len, uint64_t prefix_bytes,
                         uint8_t out[kDigestSize]) {
  const uint64_t total_bits = (prefix_bytes + len) * 8;
  while (len >= kBlockSize) {
    Sha256Compress(state, data);
    data += kBlockSize;
    len -= kBlockSize;
  }
  uint8_t block[kBlockSize];
  if (len > 0) std::memcpy(block, data, len);  // data may be null when empty
  block[len] = 0x80;
  if (len + 9 > kBlockSize) {
    // The length field does not fit: one padding-only extra block.
    std::memset(block + len + 1, 0, kBlockSize - len - 1);
    Sha256Compress(state, block);
    std::memset(block, 0, kBlockSize - 8);
  } else {
    std::memset(block + len + 1, 0, kBlockSize - 8 - len - 1);
  }
  for (int i = 0; i < 8; ++i) {
    block[kBlockSize - 8 + i] =
        static_cast<uint8_t>(total_bits >> (56 - 8 * i));
  }
  Sha256Compress(state, block);
  StoreDigest(*state, out);
}

void Sha256::StoreDigest(const Sha256State& state, uint8_t out[kDigestSize]) {
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state[i]);
  }
}

void Sha256::FinishInto(uint8_t out[kDigestSize]) {
  FinishState(&state_, buffer_.data(), buffer_len_, total_len_ - buffer_len_,
              out);
}

Bytes Sha256::Finish() {
  Bytes digest(kDigestSize);
  FinishInto(digest.data());
  return digest;
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace crypto
}  // namespace dbph
