#ifndef DBPH_COMMON_BYTES_H_
#define DBPH_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dbph {

/// Library-wide byte-string type. Ciphertexts, keys, words, trapdoors and
/// wire messages are all Bytes.
using Bytes = std::vector<uint8_t>;

/// \brief Converts a text string into bytes (no copy-free tricks; explicit).
Bytes ToBytes(std::string_view s);

/// \brief Converts bytes into a std::string (may contain NULs).
std::string ToString(const Bytes& b);

/// \brief Lower-case hex encoding ("deadbeef").
std::string HexEncode(const Bytes& b);

/// \brief Decodes a hex string; rejects odd length and non-hex characters.
Result<Bytes> HexDecode(std::string_view hex);

/// \brief Element-wise XOR. The inputs must have equal length.
Bytes Xor(const Bytes& a, const Bytes& b);

/// \brief XORs `src` into `dst` in place. Lengths must match.
void XorInPlace(Bytes* dst, const Bytes& src);

/// \brief Constant-time equality: the running time depends only on the
/// lengths, never on the contents. Use for MAC/tag comparison.
bool ConstantTimeEqual(const Bytes& a, const Bytes& b);

/// \brief Concatenation helper: a | b.
Bytes Concat(const Bytes& a, const Bytes& b);

/// \brief Appends big-endian 32-bit length prefix followed by the payload.
/// The framing used throughout the wire protocol and serializers.
void AppendLengthPrefixed(Bytes* out, const Bytes& payload);

/// \brief Appends a big-endian fixed-width integer.
void AppendUint32(Bytes* out, uint32_t v);
void AppendUint64(Bytes* out, uint64_t v);

/// \brief Scratch bytes that live on the stack up to N bytes and fall
/// back to one heap buffer beyond. Word-sized crypto paths size their
/// scratch by word length, which is short in practice but unbounded by
/// the schema. Contents start uninitialized.
template <size_t N>
class ScratchBytes {
 public:
  explicit ScratchBytes(size_t size) {
    if (size > N) heap_.resize(size);
  }
  ScratchBytes(const ScratchBytes&) = delete;
  ScratchBytes& operator=(const ScratchBytes&) = delete;

  uint8_t* data() { return heap_.empty() ? stack_ : heap_.data(); }

 private:
  uint8_t stack_[N];
  Bytes heap_;
};

/// \brief Cursor-style reader over a byte buffer, mirror of the Append*
/// helpers. All reads are bounds-checked and return errors on truncation.
/// Reads a view, so the buffer must outlive the reader (a document is
/// parsed straight out of the chunk that stores it, with no copy first).
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint32_t> ReadUint32();
  Result<uint64_t> ReadUint64();
  Result<Bytes> ReadLengthPrefixed();
  /// Reads exactly n raw bytes.
  Result<Bytes> ReadRaw(size_t n);
  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace dbph

#endif  // DBPH_COMMON_BYTES_H_
