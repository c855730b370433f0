#include "crypto/feistel.h"

#include <cstring>

#include "common/macros.h"

namespace dbph {
namespace crypto {

namespace {

Status CheckLength(size_t len) {
  if (len < 2) {
    return Status::InvalidArgument("FeistelPrp needs at least 2 bytes");
  }
  return Status::OK();
}

}  // namespace

void FeistelPrp::Round(int round, uint8_t* data, size_t len,
                       uint8_t* scratch) const {
  const size_t l_len = len / 2;
  uint8_t* left = data;
  uint8_t* right = data + l_len;
  const size_t r_len = len - l_len;
  // Even rounds update R from L, odd rounds L from R.
  const bool even = round % 2 == 0;
  const uint8_t* src = even ? left : right;
  const size_t src_len = even ? l_len : r_len;
  uint8_t* dst = even ? right : left;
  const size_t dst_len = even ? r_len : l_len;

  // scratch = uint32_be(round) | src, then the round value after it.
  const uint32_t r = static_cast<uint32_t>(round);
  scratch[0] = static_cast<uint8_t>(r >> 24);
  scratch[1] = static_cast<uint8_t>(r >> 16);
  scratch[2] = static_cast<uint8_t>(r >> 8);
  scratch[3] = static_cast<uint8_t>(r);
  std::memcpy(scratch + 4, src, src_len);
  uint8_t* f = scratch + 4 + src_len;
  prf_.EvalInto(scratch, 4 + src_len, f, dst_len);
  for (size_t i = 0; i < dst_len; ++i) dst[i] ^= f[i];
}

Status FeistelPrp::EncryptInPlace(uint8_t* data, size_t len) const {
  DBPH_RETURN_IF_ERROR(CheckLength(len));
  ScratchBytes<kStackBytes + 4> scratch(len + 4);
  for (int round = 0; round < kRounds; ++round) {
    Round(round, data, len, scratch.data());
  }
  return Status::OK();
}

Status FeistelPrp::DecryptInPlace(uint8_t* data, size_t len) const {
  DBPH_RETURN_IF_ERROR(CheckLength(len));
  ScratchBytes<kStackBytes + 4> scratch(len + 4);
  for (int round = kRounds - 1; round >= 0; --round) {
    Round(round, data, len, scratch.data());
  }
  return Status::OK();
}

Result<Bytes> FeistelPrp::Encrypt(const Bytes& in) const {
  Bytes out = in;
  DBPH_RETURN_IF_ERROR(EncryptInPlace(out.data(), out.size()));
  return out;
}

Result<Bytes> FeistelPrp::Decrypt(const Bytes& in) const {
  Bytes out = in;
  DBPH_RETURN_IF_ERROR(DecryptInPlace(out.data(), out.size()));
  return out;
}

}  // namespace crypto
}  // namespace dbph
