#ifndef CSR_INDEX_SIMD_INTERSECT_H_
#define CSR_INDEX_SIMD_INTERSECT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "index/cost_model.h"
#include "index/simd_unpack.h"

namespace csr {

/// Runtime-dispatched set-intersection kernels over decoded docid arrays
/// (sorted, strictly increasing — the invariant every posting block
/// upholds). Three kernel shapes, after Lemire/Kurz `intersectInt`:
///
///   kPairwise  — 2-way shuffle scheme (v1): both lists stepped in
///                4 (SSE2) / 8 (AVX2) value blocks, each block of the
///                first compared against every rotation of the other.
///                Best when the lists are of comparable length.
///   kWideProbe — wide-probe scheme (v3): each rare value is tested
///                against a 32-value window of the frequent list with
///                four vector compares; the window advances by whole
///                blocks. Best from ~50x length ratio.
///   kGallop    — SIMD galloping: exponential probes over block-max
///                values (touching 1/B of the frequent list) locate the
///                one block that can hold the rare value, then a single
///                vector compare tests membership. Best past ~1000x.
///
/// ChooseIntersectKernel picks per call from the length ratio, using the
/// kWideProbeRatioThreshold / kSimdGallopRatioThreshold constants audited
/// by bench_ablation_intersection. Dispatch reuses the simd_unpack level
/// machinery — CSR_FORCE_SCALAR (compile option, env var) and
/// SetUnpackLevelForTest pin the level exactly as they do for decode —
/// and every level returns bit-identical output, so the differential
/// suites can sweep scalar/SSE2/AVX2 against each other.
///
/// The kernels never touch CostCounters: callers on the charged paths
/// (codec.cc's block-pairwise loop) account probe costs analytically so
/// the counters stay identical across dispatch levels by construction.
enum class IntersectKernel : uint8_t { kPairwise = 0, kWideProbe = 1, kGallop = 2 };

/// "pairwise" / "wide_probe" / "gallop" — the .stats / bench / metrics
/// report string.
std::string_view IntersectKernelName(IntersectKernel kernel);

/// The kernel the ratio selector picks for a (rare, frequent) length pair.
inline IntersectKernel ChooseIntersectKernel(uint64_t rare_len,
                                             uint64_t freq_len) {
  const uint64_t ratio = rare_len == 0 ? kSimdGallopRatioThreshold
                                       : freq_len / rare_len;
  if (ratio >= kSimdGallopRatioThreshold) return IntersectKernel::kGallop;
  if (ratio >= kWideProbeRatioThreshold) return IntersectKernel::kWideProbe;
  return IntersectKernel::kPairwise;
}

/// The kernel backing a cost-model strategy on decoded arrays (kMerge and
/// kGallop both map to the 2-way kernel — below 50x the shuffle scheme
/// still wins; kBitmapAnd never reaches the array kernels).
inline IntersectKernel KernelForStrategy(IntersectStrategy s) {
  switch (s) {
    case IntersectStrategy::kSimdGallop:
      return IntersectKernel::kGallop;
    case IntersectStrategy::kWideProbe:
      return IntersectKernel::kWideProbe;
    default:
      return IntersectKernel::kPairwise;
  }
}

/// Intersects two sorted strictly-increasing arrays, auto-selecting the
/// kernel from the length ratio and the level from ActiveUnpackLevel().
/// Writes the matches (ascending) to `out`, which must hold at least
/// min(na, nb) values; returns the match count. Records the selection in
/// the process-wide kernel tallies (SnapshotIntersectTallies).
size_t SimdIntersect(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb, uint32_t* out);

/// Per-kernel, per-level entry point for the differential tests and the
/// kernel microbench: no auto-selection, no tallies. `rare` is the side
/// the probe kernels iterate (kPairwise is symmetric). Calling an
/// unsupported level is undefined (guard with UnpackLevelSupported).
size_t IntersectAtLevel(UnpackLevel level, IntersectKernel kernel,
                        const uint32_t* rare, size_t nrare,
                        const uint32_t* freq, size_t nfreq, uint32_t* out);

/// Process-wide selector observability (exported as intersect.kernel.* by
/// the engine's metrics sampler and the shell's `.stats`). Counters are
/// relaxed atomics — exact under TSan, monotone, reset only by tests.
inline constexpr size_t kIntersectRatioBuckets = 16;

struct IntersectTallies {
  /// Kernel invocations through the auto-selecting SimdIntersect entry.
  uint64_t pairwise = 0;
  uint64_t wide_probe = 0;
  uint64_t gallop = 0;
  /// log2 histogram of the selected freq/rare length ratios: bucket i
  /// counts ratios in [2^i, 2^(i+1)), the last bucket everything >= 2^15.
  uint64_t ratio_hist[kIntersectRatioBuckets] = {};
};

IntersectTallies SnapshotIntersectTallies();
void ResetIntersectTalliesForTest();

}  // namespace csr

#endif  // CSR_INDEX_SIMD_INTERSECT_H_
