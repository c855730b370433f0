#include "crypto/sha256_compress.h"

#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DBPH_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dbph {
namespace crypto {

namespace {

constexpr uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

alignas(16) constexpr uint32_t kRoundConst[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t RotR(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t Load32BE(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

void CompressScalar(Sha256State* state, const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = Load32BE(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = RotR(w[i - 15], 7) ^ RotR(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = RotR(w[i - 2], 17) ^ RotR(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = (*state)[0], b = (*state)[1], c = (*state)[2], d = (*state)[3];
  uint32_t e = (*state)[4], f = (*state)[5], g = (*state)[6], h = (*state)[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = RotR(e, 6) ^ RotR(e, 11) ^ RotR(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConst[i] + w[i];
    uint32_t s0 = RotR(a, 2) ^ RotR(a, 13) ^ RotR(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  (*state)[0] += a;
  (*state)[1] += b;
  (*state)[2] += c;
  (*state)[3] += d;
  (*state)[4] += e;
  (*state)[5] += f;
  (*state)[6] += g;
  (*state)[7] += h;
}

#if DBPH_SHA256_X86

#define DBPH_SHA_INLINE inline __attribute__((always_inline))

// ---------------------------------------------------------------------------
// Transposed multi-way kernels (SSE4.1 x4 / AVX2 x8 / AVX-512 x16).
//
// GCC generic vectors keep the round function written once; the
// target-attributed wrappers below compile it for the ISA they name and
// the always_inline body inherits those registers. Lane l of every
// vector is message l, so the 64 rounds run all lanes in lockstep —
// the schedule and round math are data-independent, which also keeps
// the lanes free of cross-message timing variation.
// ---------------------------------------------------------------------------

typedef uint32_t u32x4 __attribute__((vector_size(16)));
typedef uint32_t u32x8 __attribute__((vector_size(32)));
typedef uint32_t u32x16 __attribute__((vector_size(64)));

// A macro, not a helper: a function passing or returning a vector wider
// than the baseline ISA draws -Wpsabi even when it is always inlined.
#define DBPH_VEC_ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

template <typename V, int kLanes>
DBPH_SHA_INLINE void VecCompressLanes(Sha256State* states,
                                      const uint8_t* const* blocks) {
  V s[8];
  for (int i = 0; i < 8; ++i) {
    for (int l = 0; l < kLanes; ++l) s[i][l] = states[l][i];
  }
  V w[16];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < kLanes; ++l) w[i][l] = Load32BE(blocks[l] + 4 * i);
  }

  V a = s[0], b = s[1], c = s[2], d = s[3];
  V e = s[4], f = s[5], g = s[6], h = s[7];

  for (int i = 0; i < 64; ++i) {
    if (i >= 16) {
      // Rolling 16-entry window: w[i % 16] is W[i-16] coming in, W[i]
      // going out.
      V w15 = w[(i + 1) % 16];
      V w2 = w[(i + 14) % 16];
      V s0 = DBPH_VEC_ROTR(w15, 7) ^ DBPH_VEC_ROTR(w15, 18) ^ (w15 >> 3);
      V s1 = DBPH_VEC_ROTR(w2, 17) ^ DBPH_VEC_ROTR(w2, 19) ^ (w2 >> 10);
      w[i % 16] = w[i % 16] + s0 + w[(i + 9) % 16] + s1;
    }
    V s1 = DBPH_VEC_ROTR(e, 6) ^ DBPH_VEC_ROTR(e, 11) ^ DBPH_VEC_ROTR(e, 25);
    V ch = (e & f) ^ (~e & g);
    V temp1 = h + s1 + ch + kRoundConst[i] + w[i % 16];
    V s0 = DBPH_VEC_ROTR(a, 2) ^ DBPH_VEC_ROTR(a, 13) ^ DBPH_VEC_ROTR(a, 22);
    V maj = (a & b) ^ (a & c) ^ (b & c);
    V temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  s[0] += a;
  s[1] += b;
  s[2] += c;
  s[3] += d;
  s[4] += e;
  s[5] += f;
  s[6] += g;
  s[7] += h;
  for (int i = 0; i < 8; ++i) {
    for (int l = 0; l < kLanes; ++l) states[l][i] = s[i][l];
  }
}

#undef DBPH_VEC_ROTR

__attribute__((target("sse4.1"))) void CompressSse41x4(
    Sha256State* states, const uint8_t* const* blocks) {
  VecCompressLanes<u32x4, 4>(states, blocks);
}

__attribute__((target("avx2"))) void CompressAvx2x8(
    Sha256State* states, const uint8_t* const* blocks) {
  VecCompressLanes<u32x8, 8>(states, blocks);
}

// AVX-512F turns the rotates into single VPRORD instructions.
__attribute__((target("avx512f"))) void CompressAvx512x16(
    Sha256State* states, const uint8_t* const* blocks) {
  VecCompressLanes<u32x16, 16>(states, blocks);
}

// ---------------------------------------------------------------------------
// SHA-NI kernel. One SHA256RNDS2 chain is latency-bound, so the N=2
// instantiation interleaves two independent streams and digests two
// blocks in roughly the wall time of one.
// ---------------------------------------------------------------------------

template <int N>
__attribute__((target("sha,ssse3,sse4.1"))) void ShaNiCompress(
    Sha256State* const* states, const uint8_t* const* blocks) {
  const __m128i kFlip =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i st0[N], st1[N], save0[N], save1[N], msg[N][4];
  for (int j = 0; j < N; ++j) {
    // Repack {a..h} into the ABEF / CDGH register layout SHA256RNDS2
    // expects.
    __m128i lo = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(states[j]->data()));  // a b c d
    __m128i hi = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(states[j]->data() + 4));  // e f g h
    lo = _mm_shuffle_epi32(lo, 0xB1);                              // b a d c
    hi = _mm_shuffle_epi32(hi, 0x1B);                              // h g f e
    st0[j] = _mm_alignr_epi8(lo, hi, 8);                           // f e b a
    st1[j] = _mm_blend_epi16(hi, lo, 0xF0);                        // h g d c
    save0[j] = st0[j];
    save1[j] = st1[j];
    for (int i = 0; i < 4; ++i) {
      msg[j][i] = _mm_shuffle_epi8(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(blocks[j] + 16 * i)),
          kFlip);
    }
  }

  for (int i = 0; i < 16; ++i) {
    const __m128i k =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kRoundConst + 4 * i));
    for (int j = 0; j < N; ++j) {
      __m128i wcur;
      if (i < 4) {
        wcur = msg[j][i];
      } else {
        // W[4i..4i+3] = MSG2(MSG1(W-16, W-12) + (W-7 slice), W-4).
        __m128i t = _mm_sha256msg1_epu32(msg[j][i % 4], msg[j][(i + 1) % 4]);
        t = _mm_add_epi32(
            t, _mm_alignr_epi8(msg[j][(i + 3) % 4], msg[j][(i + 2) % 4], 4));
        wcur = _mm_sha256msg2_epu32(t, msg[j][(i + 3) % 4]);
        msg[j][i % 4] = wcur;
      }
      __m128i wk = _mm_add_epi32(wcur, k);
      st1[j] = _mm_sha256rnds2_epu32(st1[j], st0[j], wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      st0[j] = _mm_sha256rnds2_epu32(st0[j], st1[j], wk);
    }
  }

  for (int j = 0; j < N; ++j) {
    st0[j] = _mm_add_epi32(st0[j], save0[j]);
    st1[j] = _mm_add_epi32(st1[j], save1[j]);
    __m128i lo = _mm_shuffle_epi32(st0[j], 0x1B);   // a b e f
    __m128i hi = _mm_shuffle_epi32(st1[j], 0xB1);   // g h c d
    __m128i abcd = _mm_blend_epi16(lo, hi, 0xF0);   // a b c d
    __m128i efgh = _mm_alignr_epi8(hi, lo, 8);      // e f g h
    _mm_storeu_si128(reinterpret_cast<__m128i*>(states[j]->data()), abcd);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(states[j]->data() + 4), efgh);
  }
}

struct CpuFeatures {
  bool ssse3 = false;
  bool sse41 = false;
  bool avx2 = false;
  bool avx512f = false;
  bool sha = false;
};

CpuFeatures DetectCpu() {
  CpuFeatures features;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return features;
  features.ssse3 = (ecx & (1u << 9)) != 0;
  features.sse41 = (ecx & (1u << 19)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  bool ymm_enabled = false;
  bool zmm_enabled = false;
  if (osxsave && avx) {
    // The OS must have enabled YMM state saving before AVX2 is usable,
    // and opmask + both ZMM halves (XCR0 bits 5-7) before AVX-512.
    // Raw xgetbv: the _xgetbv intrinsic would demand -mxsave TU-wide.
    uint32_t xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    const uint64_t xcr0 = (static_cast<uint64_t>(xcr0_hi) << 32) | xcr0_lo;
    ymm_enabled = (xcr0 & 0x6) == 0x6;
    zmm_enabled = (xcr0 & 0xE6) == 0xE6;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    features.avx2 = ymm_enabled && (ebx & (1u << 5)) != 0;
    features.avx512f = zmm_enabled && (ebx & (1u << 16)) != 0;
    features.sha = (ebx & (1u << 29)) != 0;
  }
  return features;
}

#endif  // DBPH_SHA256_X86

bool KernelSupported(Sha256Kernel kernel) {
#if DBPH_SHA256_X86
  static const CpuFeatures features = DetectCpu();
  switch (kernel) {
    case Sha256Kernel::kPortable:
      return true;
    case Sha256Kernel::kSse41:
      return features.sse41;
    case Sha256Kernel::kAvx2:
      return features.avx2;
    case Sha256Kernel::kShaNi:
      return features.sha && features.ssse3 && features.sse41;
    case Sha256Kernel::kAvx512:
      return features.avx512f;
  }
  return false;
#else
  return kernel == Sha256Kernel::kPortable;
#endif
}

Sha256Kernel PickKernel() {
  Sha256Kernel best = Sha256Kernel::kPortable;
  if (KernelSupported(Sha256Kernel::kSse41)) best = Sha256Kernel::kSse41;
  if (KernelSupported(Sha256Kernel::kAvx2)) best = Sha256Kernel::kAvx2;
  if (KernelSupported(Sha256Kernel::kShaNi)) best = Sha256Kernel::kShaNi;
  if (KernelSupported(Sha256Kernel::kAvx512)) best = Sha256Kernel::kAvx512;
  const char* env = std::getenv("DBPH_SHA256_KERNEL");
  if (env != nullptr) {
    const std::string want(env);
    Sha256Kernel forced = best;
    if (want == "portable") forced = Sha256Kernel::kPortable;
    if (want == "sse41") forced = Sha256Kernel::kSse41;
    if (want == "avx2") forced = Sha256Kernel::kAvx2;
    if (want == "shani") forced = Sha256Kernel::kShaNi;
    if (want == "avx512") forced = Sha256Kernel::kAvx512;
    if (KernelSupported(forced)) return forced;
  }
  return best;
}

}  // namespace

Sha256State Sha256InitialState() {
  Sha256State state;
  std::memcpy(state.data(), kInit, sizeof(kInit));
  return state;
}

Sha256Kernel ActiveSha256Kernel() {
  static const Sha256Kernel kernel = PickKernel();
  return kernel;
}

const char* Sha256KernelName(Sha256Kernel kernel) {
  switch (kernel) {
    case Sha256Kernel::kPortable:
      return "portable";
    case Sha256Kernel::kSse41:
      return "sse41";
    case Sha256Kernel::kAvx2:
      return "avx2";
    case Sha256Kernel::kShaNi:
      return "shani";
    case Sha256Kernel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void Sha256Compress(Sha256State* state, const uint8_t* block) {
#if DBPH_SHA256_X86
  // Decided apart from the batch kernel: one SHA-NI stream beats every
  // lane kernel on a single block, so only a forced `portable` (the
  // scalar reference) keeps it off.
  static const bool use_sha_ni =
      KernelSupported(Sha256Kernel::kShaNi) &&
      ActiveSha256Kernel() != Sha256Kernel::kPortable;
  if (use_sha_ni) {
    Sha256State* states[1] = {state};
    const uint8_t* blocks[1] = {block};
    ShaNiCompress<1>(states, blocks);
    return;
  }
#endif
  CompressScalar(state, block);
}

void Sha256CompressMany(Sha256State* states, const uint8_t* const* blocks,
                        size_t n) {
  size_t i = 0;
#if DBPH_SHA256_X86
  switch (ActiveSha256Kernel()) {
    case Sha256Kernel::kAvx512:
      for (; i + 16 <= n; i += 16) CompressAvx512x16(states + i, blocks + i);
      break;
    case Sha256Kernel::kShaNi:
      for (; i + 2 <= n; i += 2) {
        Sha256State* pair[2] = {&states[i], &states[i + 1]};
        ShaNiCompress<2>(pair, blocks + i);
      }
      break;
    case Sha256Kernel::kAvx2:
      for (; i + 8 <= n; i += 8) CompressAvx2x8(states + i, blocks + i);
      if (i + 4 <= n) {
        CompressSse41x4(states + i, blocks + i);
        i += 4;
      }
      break;
    case Sha256Kernel::kSse41:
      for (; i + 4 <= n; i += 4) CompressSse41x4(states + i, blocks + i);
      break;
    case Sha256Kernel::kPortable:
      break;
  }
#endif
  for (; i < n; ++i) Sha256Compress(&states[i], blocks[i]);
}

}  // namespace crypto
}  // namespace dbph
