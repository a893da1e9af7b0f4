#include "index/simd_intersect.h"

#include <algorithm>
#include <atomic>
#include <bit>

#if defined(__x86_64__) || defined(__i386__)
#define CSR_X86 1
#include <immintrin.h>
#endif

namespace csr {

namespace {

// ---------------------------------------------------------------------------
// Scalar kernels. These are the reference semantics every SIMD level must
// reproduce bit-for-bit, and the baseline the perf gate measures speedups
// against: a two-pointer merge, a 32-wide blocked probe, and a per-value
// exponential gallop — the same probe shapes the cursor paths used before
// vectorization.
// ---------------------------------------------------------------------------

/// Two-pointer merge from positions (i, j); appends to out[n..].
size_t MergeTail(const uint32_t* a, size_t na, const uint32_t* b, size_t nb,
                 size_t i, size_t j, uint32_t* out, size_t n) {
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[n++] = a[i];
      ++i;
      ++j;
    }
  }
  return n;
}

size_t ScalarPairwise(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb, uint32_t* out) {
  return MergeTail(a, na, b, nb, 0, 0, out, 0);
}

/// Probe-window width shared by the wide-probe kernels at every level: the
/// frequent cursor only ever advances in whole 32-value blocks, so block
/// geometry (and with it the probe pattern) is level-independent.
constexpr size_t kWideWindow = 32;

size_t ScalarWideProbe(const uint32_t* rare, size_t nrare,
                       const uint32_t* freq, size_t nfreq, uint32_t* out) {
  size_t j = 0;
  size_t n = 0;
  for (size_t i = 0; i < nrare; ++i) {
    const uint32_t v = rare[i];
    while (j + kWideWindow <= nfreq && freq[j + kWideWindow - 1] < v) {
      j += kWideWindow;
    }
    const size_t end = std::min(j + kWideWindow, nfreq);
    size_t t = j;
    while (t < end && freq[t] < v) ++t;
    if (t < end && freq[t] == v) out[n++] = v;
  }
  return n;
}

size_t ScalarGallop(const uint32_t* rare, size_t nrare, const uint32_t* freq,
                    size_t nfreq, uint32_t* out) {
  size_t j = 0;
  size_t n = 0;
  for (size_t i = 0; i < nrare && j < nfreq; ++i) {
    const uint32_t v = rare[i];
    if (freq[j] < v) {
      size_t bound = 1;
      while (j + bound < nfreq && freq[j + bound] < v) bound <<= 1;
      const size_t lo = j + bound / 2;
      const size_t hi = std::min(j + bound + 1, nfreq);
      j = static_cast<size_t>(
          std::lower_bound(freq + lo, freq + hi, v) - freq);
    }
    if (j < nfreq && freq[j] == v) out[n++] = v;
  }
  return n;
}

#if defined(CSR_X86)

// ---------------------------------------------------------------------------
// SSE2 kernels (x86-64 baseline — no target attribute needed).
// ---------------------------------------------------------------------------

size_t Sse2Pairwise(const uint32_t* a, size_t na, const uint32_t* b,
                    size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, n = 0;
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    while (true) {
      // a-block vs every rotation of the b-block: exactly the 16 pairwise
      // equality tests, four lanes at a time.
      __m128i c = _mm_cmpeq_epi32(va, vb);
      c = _mm_or_si128(
          c, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));  // rot 1
      c = _mm_or_si128(
          c, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4E)));  // rot 2
      c = _mm_or_si128(
          c, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));  // rot 3
      int m = _mm_movemask_ps(_mm_castsi128_ps(c));
      while (m != 0) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(
            static_cast<unsigned>(m)));
        out[n++] = a[i + bit];
        m &= m - 1;
      }
      const uint32_t amax = a[i + 3];
      const uint32_t bmax = b[j + 3];
      // Advance whichever block tops out first (both on a tie): a value can
      // only match in blocks whose max reaches it, so nothing is skipped
      // and — the lists being strictly increasing — nothing matches twice.
      const bool step_a = amax <= bmax;
      const bool step_b = bmax <= amax;
      if (step_a) {
        i += 4;
        if (i + 4 > na) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (step_b) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  return MergeTail(a, na, b, nb, i, j, out, n);
}

size_t Sse2WideProbe(const uint32_t* rare, size_t nrare, const uint32_t* freq,
                     size_t nfreq, uint32_t* out) {
  size_t j = 0;
  size_t n = 0;
  for (size_t i = 0; i < nrare; ++i) {
    const uint32_t v = rare[i];
    while (j + kWideWindow <= nfreq && freq[j + kWideWindow - 1] < v) {
      j += kWideWindow;
    }
    if (j + kWideWindow <= nfreq) {
      const __m128i vv = _mm_set1_epi32(static_cast<int>(v));
      const __m128i* p = reinterpret_cast<const __m128i*>(freq + j);
      __m128i c = _mm_or_si128(
          _mm_or_si128(_mm_cmpeq_epi32(_mm_loadu_si128(p), vv),
                       _mm_cmpeq_epi32(_mm_loadu_si128(p + 1), vv)),
          _mm_or_si128(_mm_cmpeq_epi32(_mm_loadu_si128(p + 2), vv),
                       _mm_cmpeq_epi32(_mm_loadu_si128(p + 3), vv)));
      c = _mm_or_si128(
          c, _mm_or_si128(
                 _mm_or_si128(_mm_cmpeq_epi32(_mm_loadu_si128(p + 4), vv),
                              _mm_cmpeq_epi32(_mm_loadu_si128(p + 5), vv)),
                 _mm_or_si128(_mm_cmpeq_epi32(_mm_loadu_si128(p + 6), vv),
                              _mm_cmpeq_epi32(_mm_loadu_si128(p + 7), vv))));
      if (_mm_movemask_epi8(c) != 0) out[n++] = v;
    } else {
      const size_t end = nfreq;
      size_t t = j;
      while (t < end && freq[t] < v) ++t;
      if (t < end && freq[t] == v) out[n++] = v;
    }
  }
  return n;
}

/// Gallop over block-max values at granularity B: returns the smallest
/// full-block index in [jb, nblocks) whose max (freq[k*B + B - 1]) >= v,
/// or nblocks when every full block tops out below v.
template <size_t B>
inline size_t GallopBlocks(const uint32_t* freq, size_t nblocks, size_t jb,
                           uint32_t v) {
  if (jb >= nblocks || freq[jb * B + B - 1] >= v) return jb;
  size_t bound = 1;
  while (jb + bound < nblocks && freq[(jb + bound) * B + B - 1] < v) {
    bound <<= 1;
  }
  size_t lo = jb + bound / 2;
  size_t hi = std::min(jb + bound + 1, nblocks);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (freq[mid * B + B - 1] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t Sse2Gallop(const uint32_t* rare, size_t nrare, const uint32_t* freq,
                  size_t nfreq, uint32_t* out) {
  const size_t nblocks = nfreq / 4;
  size_t jb = 0;       // current full-block index
  size_t jt = nblocks * 4;  // tail cursor past the full blocks
  size_t n = 0;
  for (size_t i = 0; i < nrare; ++i) {
    const uint32_t v = rare[i];
    jb = GallopBlocks<4>(freq, nblocks, jb, v);
    if (jb < nblocks) {
      const __m128i c = _mm_cmpeq_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(freq + jb * 4)),
          _mm_set1_epi32(static_cast<int>(v)));
      if (_mm_movemask_epi8(c) != 0) out[n++] = v;
    } else {
      while (jt < nfreq && freq[jt] < v) ++jt;
      if (jt >= nfreq) break;
      if (freq[jt] == v) out[n++] = v;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// AVX2 kernels.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) size_t Avx2Pairwise(const uint32_t* a,
                                                    size_t na,
                                                    const uint32_t* b,
                                                    size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, n = 0;
  if (na >= 8 && nb >= 8) {
    const __m256i r1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    const __m256i r2 = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1);
    const __m256i r3 = _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2);
    const __m256i r4 = _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3);
    const __m256i r5 = _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4);
    const __m256i r6 = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
    const __m256i r7 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    while (true) {
      __m256i c = _mm256_cmpeq_epi32(va, vb);
      c = _mm256_or_si256(
          c, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r1)));
      c = _mm256_or_si256(
          c, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r2)));
      c = _mm256_or_si256(
          c, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r3)));
      c = _mm256_or_si256(
          c, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r4)));
      c = _mm256_or_si256(
          c, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r5)));
      c = _mm256_or_si256(
          c, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r6)));
      c = _mm256_or_si256(
          c, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r7)));
      int m = _mm256_movemask_ps(_mm256_castsi256_ps(c));
      while (m != 0) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(
            static_cast<unsigned>(m)));
        out[n++] = a[i + bit];
        m &= m - 1;
      }
      const uint32_t amax = a[i + 7];
      const uint32_t bmax = b[j + 7];
      const bool step_a = amax <= bmax;
      const bool step_b = bmax <= amax;
      if (step_a) {
        i += 8;
        if (i + 8 > na) break;
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (step_b) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      }
    }
  }
  return MergeTail(a, na, b, nb, i, j, out, n);
}

__attribute__((target("avx2"))) size_t Avx2WideProbe(const uint32_t* rare,
                                                     size_t nrare,
                                                     const uint32_t* freq,
                                                     size_t nfreq,
                                                     uint32_t* out) {
  size_t j = 0;
  size_t n = 0;
  for (size_t i = 0; i < nrare; ++i) {
    const uint32_t v = rare[i];
    while (j + kWideWindow <= nfreq && freq[j + kWideWindow - 1] < v) {
      j += kWideWindow;
    }
    if (j + kWideWindow <= nfreq) {
      const __m256i vv = _mm256_set1_epi32(static_cast<int>(v));
      const __m256i* p = reinterpret_cast<const __m256i*>(freq + j);
      const __m256i c = _mm256_or_si256(
          _mm256_or_si256(_mm256_cmpeq_epi32(_mm256_loadu_si256(p), vv),
                          _mm256_cmpeq_epi32(_mm256_loadu_si256(p + 1), vv)),
          _mm256_or_si256(_mm256_cmpeq_epi32(_mm256_loadu_si256(p + 2), vv),
                          _mm256_cmpeq_epi32(_mm256_loadu_si256(p + 3), vv)));
      if (_mm256_movemask_epi8(c) != 0) out[n++] = v;
    } else {
      const size_t end = nfreq;
      size_t t = j;
      while (t < end && freq[t] < v) ++t;
      if (t < end && freq[t] == v) out[n++] = v;
    }
  }
  return n;
}

__attribute__((target("avx2"))) size_t Avx2Gallop(const uint32_t* rare,
                                                  size_t nrare,
                                                  const uint32_t* freq,
                                                  size_t nfreq,
                                                  uint32_t* out) {
  const size_t nblocks = nfreq / 8;
  size_t jb = 0;
  size_t jt = nblocks * 8;
  size_t n = 0;
  for (size_t i = 0; i < nrare; ++i) {
    const uint32_t v = rare[i];
    jb = GallopBlocks<8>(freq, nblocks, jb, v);
    if (jb < nblocks) {
      const __m256i c = _mm256_cmpeq_epi32(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(freq + jb * 8)),
          _mm256_set1_epi32(static_cast<int>(v)));
      if (_mm256_movemask_epi8(c) != 0) out[n++] = v;
    } else {
      while (jt < nfreq && freq[jt] < v) ++jt;
      if (jt >= nfreq) break;
      if (freq[jt] == v) out[n++] = v;
    }
  }
  return n;
}

#endif  // CSR_X86

// ---------------------------------------------------------------------------
// Selector tallies. Relaxed atomics: pure monotone telemetry, read by the
// metrics sampler and `.stats`; tests reset between cases.
// ---------------------------------------------------------------------------

std::atomic<uint64_t> g_kernel_calls[3] = {};
std::atomic<uint64_t> g_ratio_hist[kIntersectRatioBuckets] = {};

inline void RecordRatio(uint64_t rare_len, uint64_t freq_len) {
  const uint64_t ratio = rare_len == 0 ? ~0ull : freq_len / rare_len;
  const size_t bucket =
      ratio <= 1 ? 0
                 : std::min<size_t>(static_cast<size_t>(
                                        std::bit_width(ratio) - 1),
                                    kIntersectRatioBuckets - 1);
  g_ratio_hist[bucket].fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string_view IntersectKernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kPairwise:
      return "pairwise";
    case IntersectKernel::kWideProbe:
      return "wide_probe";
    case IntersectKernel::kGallop:
      return "gallop";
  }
  return "unknown";
}

size_t IntersectAtLevel(UnpackLevel level, IntersectKernel kernel,
                        const uint32_t* rare, size_t nrare,
                        const uint32_t* freq, size_t nfreq, uint32_t* out) {
#if defined(CSR_X86) && !defined(CSR_FORCE_SCALAR)
  if (level == UnpackLevel::kAvx2) {
    switch (kernel) {
      case IntersectKernel::kPairwise:
        return Avx2Pairwise(rare, nrare, freq, nfreq, out);
      case IntersectKernel::kWideProbe:
        return Avx2WideProbe(rare, nrare, freq, nfreq, out);
      case IntersectKernel::kGallop:
        return Avx2Gallop(rare, nrare, freq, nfreq, out);
    }
  }
  if (level == UnpackLevel::kSse2) {
    switch (kernel) {
      case IntersectKernel::kPairwise:
        return Sse2Pairwise(rare, nrare, freq, nfreq, out);
      case IntersectKernel::kWideProbe:
        return Sse2WideProbe(rare, nrare, freq, nfreq, out);
      case IntersectKernel::kGallop:
        return Sse2Gallop(rare, nrare, freq, nfreq, out);
    }
  }
#else
  (void)level;
#endif
  switch (kernel) {
    case IntersectKernel::kWideProbe:
      return ScalarWideProbe(rare, nrare, freq, nfreq, out);
    case IntersectKernel::kGallop:
      return ScalarGallop(rare, nrare, freq, nfreq, out);
    default:
      return ScalarPairwise(rare, nrare, freq, nfreq, out);
  }
}

size_t SimdIntersect(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb, uint32_t* out) {
  const uint32_t* rare = a;
  const uint32_t* freq = b;
  size_t nrare = na;
  size_t nfreq = nb;
  if (nrare > nfreq) {
    std::swap(rare, freq);
    std::swap(nrare, nfreq);
  }
  if (nrare == 0) return 0;
  const IntersectKernel kernel = ChooseIntersectKernel(nrare, nfreq);
  g_kernel_calls[static_cast<size_t>(kernel)].fetch_add(
      1, std::memory_order_relaxed);
  RecordRatio(nrare, nfreq);
  return IntersectAtLevel(ActiveUnpackLevel(), kernel, rare, nrare, freq,
                          nfreq, out);
}

IntersectTallies SnapshotIntersectTallies() {
  IntersectTallies t;
  t.pairwise = g_kernel_calls[0].load(std::memory_order_relaxed);
  t.wide_probe = g_kernel_calls[1].load(std::memory_order_relaxed);
  t.gallop = g_kernel_calls[2].load(std::memory_order_relaxed);
  for (size_t i = 0; i < kIntersectRatioBuckets; ++i) {
    t.ratio_hist[i] = g_ratio_hist[i].load(std::memory_order_relaxed);
  }
  return t;
}

void ResetIntersectTalliesForTest() {
  for (auto& c : g_kernel_calls) c.store(0, std::memory_order_relaxed);
  for (auto& c : g_ratio_hist) c.store(0, std::memory_order_relaxed);
}

}  // namespace csr
