#ifndef DBPH_CRYPTO_SHA256_COMPRESS_H_
#define DBPH_CRYPTO_SHA256_COMPRESS_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace dbph {
namespace crypto {

/// \brief The raw SHA-256 chaining state (a midstate): eight working
/// words H0..H7. Exposing it lets callers snapshot the state after
/// absorbing a fixed prefix (HMAC's ipad/opad blocks) and replay only
/// the suffix per message — the core of the scan kernel's "two
/// compressions per trapdoor check" budget.
using Sha256State = std::array<uint32_t, 8>;

/// The FIPS 180-4 initial chaining value H(0).
Sha256State Sha256InitialState();

/// \brief Folds one 64-byte block into `state` — the raw compression
/// function. Single blocks run on SHA-NI whenever the CPU has it (every
/// lane kernel is slower on one block), unless DBPH_SHA256_KERNEL forces
/// `portable`; otherwise on the scalar loop. Bit-exact across every
/// kernel; Sha256::Update is built on it.
void Sha256Compress(Sha256State* state, const uint8_t* block);

/// \brief The batch width callers feed Sha256CompressMany: one AVX-512
/// pass. The other kernels divide it evenly (8, 4 or 2 lanes a pass).
inline constexpr size_t kSha256BatchLanes = 16;

/// \brief Multi-way compression: lane i folds blocks[i] into states[i],
/// for n independent lanes. The batched trapdoor matcher feeds
/// kSha256BatchLanes lanes at a time. The AVX-512/AVX2/SSE4.1 kernels
/// transpose 16/8/4 lanes into vector registers and run them through the
/// round function together, the SHA-NI kernel interleaves two hardware
/// streams, and the portable kernel just loops; a remainder smaller than
/// the kernel's width goes through Sha256Compress. Results are bit-exact
/// with n scalar compressions.
void Sha256CompressMany(Sha256State* states, const uint8_t* const* blocks,
                        size_t n);

/// Which compression implementation serves Sha256CompressMany.
enum class Sha256Kernel : uint8_t {
  kPortable = 0,  ///< scalar C++, any CPU
  kSse41 = 1,     ///< 4-way transposed lanes in XMM registers
  kAvx2 = 2,      ///< 8-way transposed lanes in YMM registers
  kShaNi = 3,     ///< SHA extensions, two interleaved streams
  kAvx512 = 4,    ///< 16-way transposed lanes in ZMM registers
};

/// \brief The batch kernel the dispatcher picked for this process: the
/// most capable one the CPU supports (cpuid- and XCR0-gated; avx512,
/// then shani, avx2, sse41, portable), unless the environment variable
/// DBPH_SHA256_KERNEL ∈ {portable, sse41, avx2, shani, avx512} forces
/// another (forcing an unsupported kernel falls back to the best
/// supported — never to an illegal instruction). Decided once, on first
/// use; thread-safe.
Sha256Kernel ActiveSha256Kernel();

const char* Sha256KernelName(Sha256Kernel kernel);

}  // namespace crypto
}  // namespace dbph

#endif  // DBPH_CRYPTO_SHA256_COMPRESS_H_
