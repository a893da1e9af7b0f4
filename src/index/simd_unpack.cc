#include "index/simd_unpack.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define CSR_X86 1
#include <immintrin.h>
#endif

namespace csr {

namespace {

/// Scalar unpack starting at value `start` (the SIMD kernels' tail path).
/// The packed stream is LSB-first, so value `start` begins at bit
/// start*bits; a partial leading byte is consumed by pre-shifting it into
/// the accumulator. The caller guarantees PackedBytes(count, bits) <=
/// avail, which bounds every byte read below p + avail.
void UnpackScalarFrom(const uint8_t* p, size_t avail, size_t count,
                      uint32_t bits, uint32_t* out, size_t start) {
  if (start >= count) return;
  const uint64_t mask = bits == 32 ? ~0ull >> 32 : (1ull << bits) - 1;
  const uint8_t* hard_end = p + avail;
  const uint64_t bitpos = static_cast<uint64_t>(start) * bits;
  const uint8_t* q = p + (bitpos >> 3);
  uint64_t acc = 0;
  uint32_t acc_bits = 0;
  const uint32_t skip = static_cast<uint32_t>(bitpos & 7);
  if (skip != 0) {
    acc = static_cast<uint64_t>(*q++) >> skip;
    acc_bits = 8 - skip;
  }
  for (size_t i = start; i < count; ++i) {
    if (acc_bits < bits) {
      if constexpr (std::endian::native == std::endian::little) {
        if (hard_end - q >= 4) {
          uint32_t word;
          std::memcpy(&word, q, sizeof(word));
          acc |= static_cast<uint64_t>(word) << acc_bits;
          q += 4;
          acc_bits += 32;
        }
      }
      while (acc_bits < bits) {
        acc |= static_cast<uint64_t>(*q++) << acc_bits;
        acc_bits += 8;
      }
    }
    out[i] = static_cast<uint32_t>(acc & mask);
    acc >>= bits;
    acc_bits -= bits;
  }
}

#if defined(CSR_X86)

/// Extracts four already-gathered 32-bit windows: SSE2 has no per-lane
/// variable shift, so each window is multiplied by 2^(24-shift) (pmuludq
/// widens to 64 bits; the product cannot overflow) and the 64-bit product
/// shifted down by 24, which equals window >> shift.
inline __m128i Sse2ExtractFour(__m128i x, __m128i mul_even, __m128i mul_odd,
                               __m128i mask) {
  __m128i even = _mm_srli_epi64(_mm_mul_epu32(x, mul_even), 24);
  __m128i odd =
      _mm_srli_epi64(_mm_mul_epu32(_mm_srli_si128(x, 4), mul_odd), 24);
  even = _mm_shuffle_epi32(even, _MM_SHUFFLE(3, 1, 2, 0));
  odd = _mm_shuffle_epi32(odd, _MM_SHUFFLE(3, 1, 2, 0));
  return _mm_and_si128(_mm_unpacklo_epi32(even, odd), mask);
}

void UnpackSse2(const uint8_t* p, size_t avail, size_t count, uint32_t bits,
                uint32_t* out) {
  if (bits == 0) {
    std::fill(out, out + count, 0u);
    return;
  }
  // The multiply-align trick needs shift + bits <= 31 (shift <= 7), so
  // widths above 24 stay scalar; FOR blocks that wide span >16M docids.
  if (bits > 24) {
    UnpackScalarFrom(p, avail, count, bits, out, 0);
    return;
  }
  // Every 8 values the stream advances exactly `bits` bytes; value k's
  // 4-byte window starts at byte d[k] with bit shift s[k].
  size_t d[8];
  uint32_t s[8];
  for (uint32_t k = 0; k < 8; ++k) {
    d[k] = (k * bits) >> 3;
    s[k] = (k * bits) & 7;
  }
  const __m128i me0 =
      _mm_setr_epi32(1 << (24 - s[0]), 0, 1 << (24 - s[2]), 0);
  const __m128i mo0 =
      _mm_setr_epi32(1 << (24 - s[1]), 0, 1 << (24 - s[3]), 0);
  const __m128i me1 =
      _mm_setr_epi32(1 << (24 - s[4]), 0, 1 << (24 - s[6]), 0);
  const __m128i mo1 =
      _mm_setr_epi32(1 << (24 - s[5]), 0, 1 << (24 - s[7]), 0);
  const __m128i mask = _mm_set1_epi32(static_cast<int>((1u << bits) - 1));
  const size_t steps = count / 8;
  const size_t max_read = d[7] + 4;  // furthest byte touched per step
  size_t i = 0;
  for (; i < steps && i * bits + max_read <= avail; ++i) {
    const uint8_t* p0 = p + i * bits;
    uint32_t w[8];
    for (int k = 0; k < 8; ++k) std::memcpy(&w[k], p0 + d[k], 4);
    __m128i x0 = _mm_setr_epi32(static_cast<int>(w[0]),
                                static_cast<int>(w[1]),
                                static_cast<int>(w[2]),
                                static_cast<int>(w[3]));
    __m128i x1 = _mm_setr_epi32(static_cast<int>(w[4]),
                                static_cast<int>(w[5]),
                                static_cast<int>(w[6]),
                                static_cast<int>(w[7]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 8),
                     Sse2ExtractFour(x0, me0, mo0, mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 8 + 4),
                     Sse2ExtractFour(x1, me1, mo1, mask));
  }
  UnpackScalarFrom(p, avail, count, bits, out, i * 8);
}

__attribute__((target("avx2"))) void UnpackAvx2(const uint8_t* p,
                                                size_t avail, size_t count,
                                                uint32_t bits,
                                                uint32_t* out) {
  if (bits == 0) {
    std::fill(out, out + count, 0u);
    return;
  }
  size_t d[8];
  int s[8];
  for (uint32_t k = 0; k < 8; ++k) {
    d[k] = (k * bits) >> 3;
    s[k] = static_cast<int>((k * bits) & 7);
  }
  const size_t steps = count / 8;
  size_t i = 0;
  if (bits <= 16) {
    // 4-byte windows: one 8x32 vector per 8 values. Lane 0 is loaded at
    // p0, lane 1 at p0 + d[4]; pshufb replicates each value's window into
    // its dword, then a variable shift + mask extracts it.
    alignas(32) int8_t sh[32];
    for (int k = 0; k < 4; ++k) {
      for (int b = 0; b < 4; ++b) {
        sh[4 * k + b] = static_cast<int8_t>(d[k] + b);
        sh[16 + 4 * k + b] = static_cast<int8_t>(d[4 + k] - d[4] + b);
      }
    }
    const __m256i vsh =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(sh));
    const __m256i vshift = _mm256_setr_epi32(s[0], s[1], s[2], s[3], s[4],
                                             s[5], s[6], s[7]);
    const __m256i vmask =
        _mm256_set1_epi32(static_cast<int>((1u << bits) - 1));
    const size_t max_read = d[4] + 16;
    for (; i < steps && i * bits + max_read <= avail; ++i) {
      const uint8_t* p0 = p + i * bits;
      __m256i v = _mm256_inserti128_si256(
          _mm256_castsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p0))),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p0 + d[4])), 1);
      v = _mm256_shuffle_epi8(v, vsh);
      v = _mm256_srlv_epi32(v, vshift);
      v = _mm256_and_si256(v, vmask);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * 8), v);
    }
  } else {
    // Widths 17..32 need 8-byte windows (shift + bits can exceed 32):
    // 64-bit lanes, two vectors per 8 values, low dwords compressed with a
    // cross-lane permute.
    alignas(32) int8_t sh_a[32];
    alignas(32) int8_t sh_b[32];
    for (int b = 0; b < 8; ++b) {
      sh_a[b] = static_cast<int8_t>(b);  // value 0 (d[0] == 0)
      sh_a[8 + b] = static_cast<int8_t>(d[1] + b);
      sh_a[16 + b] = static_cast<int8_t>(b);  // value 2, relative to d[2]
      sh_a[24 + b] = static_cast<int8_t>(d[3] - d[2] + b);
      sh_b[b] = static_cast<int8_t>(b);  // value 4, relative to d[4]
      sh_b[8 + b] = static_cast<int8_t>(d[5] - d[4] + b);
      sh_b[16 + b] = static_cast<int8_t>(b);  // value 6, relative to d[6]
      sh_b[24 + b] = static_cast<int8_t>(d[7] - d[6] + b);
    }
    const __m256i vsh_a =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(sh_a));
    const __m256i vsh_b =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(sh_b));
    const __m256i vshift_a = _mm256_setr_epi64x(s[0], s[1], s[2], s[3]);
    const __m256i vshift_b = _mm256_setr_epi64x(s[4], s[5], s[6], s[7]);
    const uint64_t m64 = bits == 32 ? 0xFFFFFFFFull : (1ull << bits) - 1;
    const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(m64));
    const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    const size_t max_read = d[6] + 16;
    for (; i < steps && i * bits + max_read <= avail; ++i) {
      const uint8_t* p0 = p + i * bits;
      __m256i a = _mm256_inserti128_si256(
          _mm256_castsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p0))),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p0 + d[2])), 1);
      a = _mm256_shuffle_epi8(a, vsh_a);
      a = _mm256_and_si256(_mm256_srlv_epi64(a, vshift_a), vmask);
      a = _mm256_permutevar8x32_epi32(a, pick);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 8),
                       _mm256_castsi256_si128(a));
      __m256i b = _mm256_inserti128_si256(
          _mm256_castsi128_si256(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(p0 + d[4]))),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p0 + d[6])), 1);
      b = _mm256_shuffle_epi8(b, vsh_b);
      b = _mm256_and_si256(_mm256_srlv_epi64(b, vshift_b), vmask);
      b = _mm256_permutevar8x32_epi32(b, pick);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 8 + 4),
                       _mm256_castsi256_si128(b));
    }
  }
  // The compiler turns the tail below into a jump that skips its own
  // vzeroupper; left dirty, the upper ymm state slows every later SSE
  // instruction (double arithmetic included) until the next AVX exit.
  _mm256_zeroupper();
  UnpackScalarFrom(p, avail, count, bits, out, i * 8);
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }

#endif  // CSR_X86

/// -1 = no override; otherwise the pinned UnpackLevel. Relaxed atomics:
/// the override is written only from single-threaded test setup, and a
/// stale read momentarily keeps the (bit-identical) previous kernel.
std::atomic<int> g_level_override{-1};

UnpackLevel DetectLevel() {
#if defined(CSR_FORCE_SCALAR)
  return UnpackLevel::kScalar;
#else
  const char* env = std::getenv("CSR_FORCE_SCALAR");
  if (env != nullptr && env[0] != '\0' &&
      std::string_view(env) != std::string_view("0")) {
    return UnpackLevel::kScalar;
  }
#if defined(CSR_X86)
  return CpuHasAvx2() ? UnpackLevel::kAvx2 : UnpackLevel::kSse2;
#else
  return UnpackLevel::kScalar;
#endif
#endif
}

UnpackLevel DetectedLevel() {
  static const UnpackLevel level = DetectLevel();
  return level;
}

}  // namespace

UnpackLevel ActiveUnpackLevel() {
  int ov = g_level_override.load(std::memory_order_relaxed);
  if (ov >= 0) return static_cast<UnpackLevel>(ov);
  return DetectedLevel();
}

std::string_view UnpackLevelName(UnpackLevel level) {
  switch (level) {
    case UnpackLevel::kScalar:
      return "scalar";
    case UnpackLevel::kSse2:
      return "sse2";
    case UnpackLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool UnpackLevelSupported(UnpackLevel level) {
#if defined(CSR_FORCE_SCALAR)
  return level == UnpackLevel::kScalar;
#else
  switch (level) {
    case UnpackLevel::kScalar:
      return true;
    case UnpackLevel::kSse2:
#if defined(CSR_X86)
      return true;  // SSE2 is the x86-64 baseline
#else
      return false;
#endif
    case UnpackLevel::kAvx2:
#if defined(CSR_X86)
      return CpuHasAvx2();
#else
      return false;
#endif
  }
  return false;
#endif
}

void UnpackBitsScalar(const uint8_t* p, size_t avail, size_t count,
                      uint32_t bits, uint32_t* out) {
  if (bits == 0) {
    std::fill(out, out + count, 0u);
    return;
  }
  UnpackScalarFrom(p, avail, count, bits, out, 0);
}

void UnpackBitsAtLevel(UnpackLevel level, const uint8_t* p, size_t avail,
                       size_t count, uint32_t bits, uint32_t* out) {
  switch (level) {
#if defined(CSR_X86) && !defined(CSR_FORCE_SCALAR)
    case UnpackLevel::kAvx2:
      UnpackAvx2(p, avail, count, bits, out);
      return;
    case UnpackLevel::kSse2:
      UnpackSse2(p, avail, count, bits, out);
      return;
#endif
    default:
      UnpackBitsScalar(p, avail, count, bits, out);
      return;
  }
}

void UnpackBitsDispatch(const uint8_t* p, size_t avail, size_t count,
                        uint32_t bits, uint32_t* out) {
  UnpackBitsAtLevel(ActiveUnpackLevel(), p, avail, count, bits, out);
}

void SetUnpackLevelForTest(UnpackLevel level) {
  g_level_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ClearUnpackLevelOverride() {
  g_level_override.store(-1, std::memory_order_relaxed);
}

}  // namespace csr
