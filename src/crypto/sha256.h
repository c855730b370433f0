#ifndef DBPH_CRYPTO_SHA256_H_
#define DBPH_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/sha256_compress.h"

namespace dbph {
namespace crypto {

/// \brief Incremental SHA-256 (FIPS 180-4).
///
/// The implementation is self-contained (no OpenSSL dependency) so the whole
/// cryptographic stack of the library is auditable and deterministic across
/// platforms. Verified against the NIST FIPS 180-4 test vectors (see
/// tests/crypto_sha256_test.cc). Block compression goes through the
/// runtime-dispatched kernel in crypto/sha256_compress.h, so every digest
/// in the system (Merkle trees, HMAC, the scan kernel) shares one
/// hardware-accelerated implementation.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  /// Absorbs `data` into the hash state.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// reused afterwards without calling Reset().
  Bytes Finish();

  /// Finish() without the heap: writes the digest into `out`.
  void FinishInto(uint8_t out[kDigestSize]);

  /// \brief Finishes a digest straight from a chaining state. `state` has
  /// compressed the first `prefix_bytes` bytes of the message (a multiple
  /// of kBlockSize); this absorbs the remaining `len` bytes, then writes
  /// the 0x80 byte, the zero fill and the bit length into one block (two
  /// when the length field does not fit after the tail) and compresses
  /// it, with no per-byte work and no heap. FinishInto and the HMAC
  /// evaluators all end here.
  static void FinishState(Sha256State* state, const uint8_t* data,
                          size_t len, uint64_t prefix_bytes,
                          uint8_t out[kDigestSize]);

  /// Writes `state` out as a big-endian digest.
  static void StoreDigest(const Sha256State& state, uint8_t out[kDigestSize]);

  /// Restores the pristine state.
  void Reset();

  /// \brief The current chaining state. Only meaningful on a block
  /// boundary (bytes_buffered() == 0); a midstate captured there can be
  /// cloned into any number of FromMidstate() hashers that each continue
  /// with a different suffix — HMAC's precomputed ipad/opad states are
  /// exactly this.
  const Sha256State& midstate() const { return state_; }
  size_t bytes_buffered() const { return buffer_len_; }

  /// \brief A hasher resumed from a cloned midstate, as if it had already
  /// absorbed `prefix_bytes` bytes (must be a multiple of kBlockSize).
  static Sha256 FromMidstate(const Sha256State& midstate,
                             uint64_t prefix_bytes);

  /// One-shot convenience: SHA-256(data).
  static Bytes Hash(const Bytes& data);

 private:
  Sha256State state_;
  std::array<uint8_t, kBlockSize> buffer_;
  size_t buffer_len_;
  uint64_t total_len_;
};

}  // namespace crypto
}  // namespace dbph

#endif  // DBPH_CRYPTO_SHA256_H_
