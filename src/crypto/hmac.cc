#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>

namespace dbph {
namespace crypto {

namespace {

constexpr size_t kBlock = Sha256::kBlockSize;

}  // namespace

HmacSha256Precomputed::HmacSha256Precomputed(const uint8_t* key,
                                             size_t key_len) {
  uint8_t k[kBlock] = {0};
  if (key_len > kBlock) {
    Sha256 h;
    h.Update(key, key_len);
    h.FinishInto(k);  // 32 digest bytes, rest stays zero
  } else if (key_len > 0) {
    std::memcpy(k, key, key_len);
  }
  uint8_t pad[kBlock];
  for (size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  inner_ = Sha256InitialState();
  Sha256Compress(&inner_, pad);
  for (size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  outer_ = Sha256InitialState();
  Sha256Compress(&outer_, pad);
}

void HmacSha256Precomputed::Eval(const uint8_t* msg, size_t len,
                                 uint8_t out[kDigestSize]) const {
  uint8_t inner_digest[kDigestSize];
  Sha256State state = inner_;
  Sha256::FinishState(&state, msg, len, kBlock, inner_digest);
  state = outer_;
  Sha256::FinishState(&state, inner_digest, kDigestSize, kBlock, out);
}

Bytes HmacSha256Precomputed::Eval(const Bytes& msg) const {
  Bytes out(kDigestSize);
  Eval(msg.data(), msg.size(), out.data());
  return out;
}

void HmacSha256Precomputed::ExpandInto(const uint8_t* msg, size_t len,
                                       uint8_t* out, size_t out_len) const {
  // The inner hash absorbs ipad | msg | counter. Every whole block of msg
  // precedes the counter, so it is compressed once; only the tail (under
  // one block) plus the 4 counter bytes are replayed per output block.
  const size_t whole = len - len % kBlock;
  Sha256State prefix = inner_;
  for (size_t off = 0; off < whole; off += kBlock) {
    Sha256Compress(&prefix, msg + off);
  }
  const size_t tail_len = len - whole;
  uint8_t tail[kBlock + 4];
  if (tail_len > 0) std::memcpy(tail, msg + whole, tail_len);

  uint8_t inner_digest[kDigestSize];
  uint8_t t[kDigestSize];
  uint32_t counter = 0;
  for (size_t produced = 0; produced < out_len; ++counter) {
    tail[tail_len] = static_cast<uint8_t>(counter >> 24);
    tail[tail_len + 1] = static_cast<uint8_t>(counter >> 16);
    tail[tail_len + 2] = static_cast<uint8_t>(counter >> 8);
    tail[tail_len + 3] = static_cast<uint8_t>(counter);
    Sha256State state = prefix;
    Sha256::FinishState(&state, tail, tail_len + 4, kBlock + whole,
                        inner_digest);
    state = outer_;
    Sha256::FinishState(&state, inner_digest, kDigestSize, kBlock, t);
    const size_t take = std::min(kDigestSize, out_len - produced);
    std::memcpy(out + produced, t, take);
    produced += take;
  }
}

void HmacSha256Precomputed::EvalMany(const uint8_t* const* msgs,
                                     size_t msg_len, size_t n,
                                     uint8_t* out) const {
  // Inner hash: the ipad block (already in the midstate) followed by the
  // message and padding; all lanes share one block count because the
  // messages share one length.
  const size_t inner_blocks = (msg_len + 9 + kBlock - 1) / kBlock;
  const uint64_t inner_bits = (kBlock + msg_len) * 8;
  const uint64_t outer_bits = (kBlock + kDigestSize) * 8;

  for (size_t base = 0; base < n; base += kSha256BatchLanes) {
    const size_t lanes = std::min(kSha256BatchLanes, n - base);
    Sha256State states[kSha256BatchLanes];
    for (size_t l = 0; l < lanes; ++l) states[l] = inner_;

    uint8_t scratch[kSha256BatchLanes][kBlock];
    const uint8_t* blocks[kSha256BatchLanes];
    for (size_t b = 0; b < inner_blocks; ++b) {
      const size_t off = b * kBlock;
      if (off + kBlock <= msg_len) {
        // Whole block inside the message: compress straight from it.
        for (size_t l = 0; l < lanes; ++l) blocks[l] = msgs[base + l] + off;
      } else {
        const size_t take = msg_len > off ? msg_len - off : 0;
        for (size_t l = 0; l < lanes; ++l) {
          uint8_t* buf = scratch[l];
          // take == 0 may come with a null (empty) message pointer.
          if (take > 0) std::memcpy(buf, msgs[base + l] + off, take);
          std::memset(buf + take, 0, kBlock - take);
          if (msg_len >= off && msg_len < off + kBlock) {
            buf[msg_len - off] = 0x80;
          }
          if (b == inner_blocks - 1) {
            for (int i = 0; i < 8; ++i) {
              buf[kBlock - 8 + i] =
                  static_cast<uint8_t>(inner_bits >> (56 - 8 * i));
            }
          }
          blocks[l] = buf;
        }
      }
      Sha256CompressMany(states, blocks, lanes);
    }

    // Outer hash: opad midstate + the 32-byte inner digest; digest,
    // 0x80 and the length field all fit one block.
    for (size_t l = 0; l < lanes; ++l) {
      uint8_t* buf = scratch[l];
      Sha256::StoreDigest(states[l], buf);
      buf[kDigestSize] = 0x80;
      std::memset(buf + kDigestSize + 1, 0, kBlock - 8 - kDigestSize - 1);
      for (int i = 0; i < 8; ++i) {
        buf[kBlock - 8 + i] = static_cast<uint8_t>(outer_bits >> (56 - 8 * i));
      }
      blocks[l] = buf;
      states[l] = outer_;
    }
    Sha256CompressMany(states, blocks, lanes);
    for (size_t l = 0; l < lanes; ++l) {
      Sha256::StoreDigest(states[l], out + (base + l) * kDigestSize);
    }
  }
}

void HmacSha256Stream::UpdateUint32(uint32_t v) {
  uint8_t be[4] = {static_cast<uint8_t>(v >> 24), static_cast<uint8_t>(v >> 16),
                   static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v)};
  inner_.Update(be, 4);
}

void HmacSha256Stream::FinishInto(
    uint8_t out[HmacSha256Precomputed::kDigestSize]) {
  uint8_t inner_digest[HmacSha256Precomputed::kDigestSize];
  inner_.FinishInto(inner_digest);
  Sha256State state = schedule_->outer_midstate();
  Sha256::FinishState(&state, inner_digest,
                      HmacSha256Precomputed::kDigestSize, kBlock, out);
}

Bytes HmacSha256Stream::Finish() {
  Bytes out(HmacSha256Precomputed::kDigestSize);
  FinishInto(out.data());
  return out;
}

void HmacSha256Stream::Reset() {
  inner_ = Sha256::FromMidstate(schedule_->inner_midstate(), kBlock);
}

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  HmacSha256Precomputed schedule(key);
  Bytes out(Sha256::kDigestSize);
  schedule.Eval(message.data(), message.size(), out.data());
  return out;
}

Bytes HmacSha256Expand(const Bytes& key, const Bytes& message,
                       size_t out_len) {
  Bytes out(out_len);
  HmacSha256Precomputed(key).ExpandInto(message.data(), message.size(),
                                        out.data(), out_len);
  return out;
}

}  // namespace crypto
}  // namespace dbph
