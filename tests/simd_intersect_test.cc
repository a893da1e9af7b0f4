// Property / adversarial suite for the SIMD set-intersection kernel
// family (`ctest -L postings`, also swept under TSan): every kernel at
// every supported dispatch level must return exactly the reference
// intersection on random and adversarial shapes — empty, singleton,
// dup-free runs, all-match, no-match, ratio sweeps 1..10000, and
// block-boundary straddles through the compressed pairwise path — and the
// charged CostCounters must be bit-identical across scalar/SSE2/AVX2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "index/codec.h"
#include "index/cost_model.h"
#include "index/intersection.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"
#include "index/simd_intersect.h"
#include "index/simd_unpack.h"
#include "util/random.h"

namespace csr {
namespace {

const UnpackLevel kLevels[] = {UnpackLevel::kScalar, UnpackLevel::kSse2,
                               UnpackLevel::kAvx2};
const IntersectKernel kKernels[] = {IntersectKernel::kPairwise,
                                    IntersectKernel::kWideProbe,
                                    IntersectKernel::kGallop};

std::vector<uint32_t> Reference(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// `n` sorted distinct values spaced by gaps in [1, max_gap].
std::vector<uint32_t> RandomSorted(SplitMix64& rng, size_t n,
                                   uint32_t max_gap) {
  std::vector<uint32_t> out;
  out.reserve(n);
  uint32_t v = static_cast<uint32_t>(rng.NextBounded(8));
  for (size_t i = 0; i < n; ++i) {
    out.push_back(v);
    v += 1 + static_cast<uint32_t>(rng.NextBounded(max_gap));
  }
  return out;
}

void ExpectAllKernelsAllLevels(const std::vector<uint32_t>& a,
                               const std::vector<uint32_t>& b,
                               const std::string& what) {
  const std::vector<uint32_t> ref = Reference(a, b);
  const uint32_t* rare = a.size() <= b.size() ? a.data() : b.data();
  const uint32_t* freq = a.size() <= b.size() ? b.data() : a.data();
  const size_t nrare = std::min(a.size(), b.size());
  const size_t nfreq = std::max(a.size(), b.size());
  std::vector<uint32_t> out(nrare + 8, 0xDEADBEEFu);
  for (IntersectKernel kernel : kKernels) {
    for (UnpackLevel level : kLevels) {
      if (!UnpackLevelSupported(level)) continue;
      std::fill(out.begin(), out.end(), 0xDEADBEEFu);
      const size_t n = IntersectAtLevel(level, kernel, rare, nrare, freq,
                                        nfreq, out.data());
      ASSERT_EQ(n, ref.size())
          << what << " kernel=" << IntersectKernelName(kernel)
          << " level=" << UnpackLevelName(level);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], ref[i])
            << what << " kernel=" << IntersectKernelName(kernel)
            << " level=" << UnpackLevelName(level) << " at " << i;
      }
    }
  }
}

// -- Adversarial shapes, every kernel × every level -------------------------

TEST(SimdIntersectTest, AdversarialShapesMatchReference) {
  std::vector<uint32_t> empty;
  std::vector<uint32_t> one = {77};
  std::vector<uint32_t> run;  // dup-free consecutive run
  for (uint32_t v = 100; v < 400; ++v) run.push_back(v);
  std::vector<uint32_t> evens, odds;
  for (uint32_t v = 0; v < 2000; v += 2) evens.push_back(v);
  for (uint32_t v = 1; v < 2000; v += 2) odds.push_back(v);
  std::vector<uint32_t> high = {0xFFFFFFF0u, 0xFFFFFFF5u, 0xFFFFFFFFu};

  ExpectAllKernelsAllLevels(empty, empty, "empty x empty");
  ExpectAllKernelsAllLevels(empty, run, "empty x run");
  ExpectAllKernelsAllLevels(one, run, "singleton miss below range");
  ExpectAllKernelsAllLevels(std::vector<uint32_t>{250}, run,
                            "singleton hit");
  ExpectAllKernelsAllLevels(run, run, "all-match run");
  ExpectAllKernelsAllLevels(evens, odds, "no-match interleave");
  ExpectAllKernelsAllLevels(high, high, "top-of-range values");
  ExpectAllKernelsAllLevels(one, high, "miss above range");

  // Sizes straddling every SIMD step width (4/8/16/32) plus tails.
  SplitMix64 rng(41);
  for (size_t na : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 31u, 32u, 33u,
                    63u, 65u, 127u}) {
    for (size_t nb : {1u, 8u, 33u, 64u, 129u}) {
      auto a = RandomSorted(rng, na, 6);
      auto b = RandomSorted(rng, nb, 6);
      ExpectAllKernelsAllLevels(
          a, b, "sizes " + std::to_string(na) + "x" + std::to_string(nb));
    }
  }
}

// -- Ratio sweep 1..10000 through the auto-selecting entry ------------------

TEST(SimdIntersectTest, RatioSweepAutoSelectsAndMatchesReference) {
  SplitMix64 rng(43);
  ResetIntersectTalliesForTest();
  uint64_t want_pairwise = 0, want_wide = 0, want_gallop = 0;
  for (uint64_t ratio : {1u, 2u, 10u, 49u, 50u, 100u, 999u, 1000u, 4000u,
                         10000u}) {
    const size_t nrare = ratio >= 1000 ? 4 : 64;
    const size_t nfreq = nrare * ratio;
    auto rare = RandomSorted(rng, nrare, static_cast<uint32_t>(2 * ratio));
    auto freq = RandomSorted(rng, nfreq, 3);
    const std::vector<uint32_t> ref = Reference(rare, freq);
    std::vector<uint32_t> out(nrare);
    const size_t n =
        SimdIntersect(rare.data(), rare.size(), freq.data(), freq.size(),
                      out.data());
    out.resize(n);
    EXPECT_EQ(out, ref) << "ratio " << ratio;

    const IntersectKernel k = ChooseIntersectKernel(nrare, nfreq);
    want_pairwise += k == IntersectKernel::kPairwise;
    want_wide += k == IntersectKernel::kWideProbe;
    want_gallop += k == IntersectKernel::kGallop;
  }
  const IntersectTallies t = SnapshotIntersectTallies();
  EXPECT_EQ(t.pairwise, want_pairwise);
  EXPECT_EQ(t.wide_probe, want_wide);
  EXPECT_EQ(t.gallop, want_gallop);
  uint64_t hist_total = 0;
  for (uint64_t c : t.ratio_hist) hist_total += c;
  EXPECT_EQ(hist_total, want_pairwise + want_wide + want_gallop);
}

// -- Selector thresholds ----------------------------------------------------

TEST(SimdIntersectTest, RatioSelectorThresholds) {
  EXPECT_EQ(ChooseIntersectKernel(100, 100), IntersectKernel::kPairwise);
  EXPECT_EQ(ChooseIntersectKernel(100, 100 * (kWideProbeRatioThreshold - 1)),
            IntersectKernel::kPairwise);
  EXPECT_EQ(ChooseIntersectKernel(100, 100 * kWideProbeRatioThreshold),
            IntersectKernel::kWideProbe);
  EXPECT_EQ(ChooseIntersectKernel(100, 100 * (kSimdGallopRatioThreshold - 1)),
            IntersectKernel::kWideProbe);
  EXPECT_EQ(ChooseIntersectKernel(100, 100 * kSimdGallopRatioThreshold),
            IntersectKernel::kGallop);
  EXPECT_EQ(ChooseIntersectKernel(0, 100), IntersectKernel::kGallop);

  EXPECT_EQ(ChooseIntersectStrategy(100, 100, false, false),
            IntersectStrategy::kMerge);
  EXPECT_EQ(ChooseIntersectStrategy(100, 100 * kGallopRatioThreshold, false,
                                    false),
            IntersectStrategy::kGallop);
  EXPECT_EQ(ChooseIntersectStrategy(100, 100 * kWideProbeRatioThreshold,
                                    false, false),
            IntersectStrategy::kWideProbe);
  EXPECT_EQ(ChooseIntersectStrategy(100, 100 * kSimdGallopRatioThreshold,
                                    false, false),
            IntersectStrategy::kSimdGallop);
  EXPECT_EQ(ChooseIntersectStrategy(100, 100000, true, false),
            IntersectStrategy::kBitmapAnd);
  EXPECT_EQ(KernelForStrategy(IntersectStrategy::kMerge),
            IntersectKernel::kPairwise);
  EXPECT_EQ(KernelForStrategy(IntersectStrategy::kGallop),
            IntersectKernel::kPairwise);
  EXPECT_EQ(KernelForStrategy(IntersectStrategy::kWideProbe),
            IntersectKernel::kWideProbe);
  EXPECT_EQ(KernelForStrategy(IntersectStrategy::kSimdGallop),
            IntersectKernel::kGallop);
}

// -- Compressed pairwise path: results AND CostCounters level-identical -----

PostingList ToList(const std::vector<uint32_t>& docs) {
  PostingList l(128);
  for (uint32_t d : docs) l.Append(d, 1 + d % 7);
  l.FinishBuild();
  return l;
}

struct PairwiseRun {
  uint64_t count = 0;
  std::vector<DocId> docs;
  CostCounters cost_a, cost_b;
};

PairwiseRun RunPairwise(const CompressedPostingList& ca,
                        const CompressedPostingList& cb) {
  PairwiseRun r;
  r.count = CountPairwiseIntersection(ca, cb, &r.cost_a, &r.cost_b);
  CostCounters sa, sb;
  ScanPairwiseIntersection(ca, cb, &sa, &sb,
                           [&](DocId d) { r.docs.push_back(d); });
  EXPECT_EQ(r.count, r.docs.size());
  // Count and scan drive the identical loop: counters must agree.
  EXPECT_EQ(sa.entries_scanned, r.cost_a.entries_scanned);
  EXPECT_EQ(sb.entries_scanned, r.cost_b.entries_scanned);
  return r;
}

void ExpectSameCost(const CostCounters& x, const CostCounters& y,
                    const std::string& what) {
  EXPECT_EQ(x.entries_scanned, y.entries_scanned) << what;
  EXPECT_EQ(x.segments_touched, y.segments_touched) << what;
  EXPECT_EQ(x.skips_taken, y.skips_taken) << what;
  EXPECT_EQ(x.blocks_skipped, y.blocks_skipped) << what;
  EXPECT_EQ(x.bytes_touched, y.bytes_touched) << what;
}

TEST(SimdIntersectTest, CompressedPairwiseBitIdenticalAcrossLevels) {
  SplitMix64 rng(47);
  struct Case {
    const char* name;
    std::vector<uint32_t> a, b;
  };
  std::vector<Case> cases;
  // Block-boundary straddles: matches at positions 63/64/65 of 64-blocks,
  // skewed ratios, and a dense all-match run.
  cases.push_back({"boundary", RandomSorted(rng, 300, 2), {}});
  cases.back().b = cases.back().a;  // all-match, block-aligned
  cases.push_back({"ratio_64x", RandomSorted(rng, 100, 128),
                   RandomSorted(rng, 6400, 2)});
  cases.push_back({"ratio_1500x", RandomSorted(rng, 8, 2000),
                   RandomSorted(rng, 12000, 2)});
  cases.push_back({"sparse_vs_dense", RandomSorted(rng, 50, 97),
                   RandomSorted(rng, 5000, 1)});

  for (const Case& c : cases) {
    const std::vector<uint32_t> ref = Reference(c.a, c.b);
    PostingList pa = ToList(c.a);
    PostingList pb = ToList(c.b);
    for (CodecPolicy policy :
         {CodecPolicy::kAuto, CodecPolicy::kForOnly,
          CodecPolicy::kBitmapPreferred}) {
      auto ca = CompressedPostingList::FromPostingList(pa, 64, policy);
      auto cb = CompressedPostingList::FromPostingList(pb, 64, policy);

      SetUnpackLevelForTest(UnpackLevel::kScalar);
      PairwiseRun want = RunPairwise(ca, cb);
      EXPECT_EQ(want.count, ref.size()) << c.name;
      for (UnpackLevel level : {UnpackLevel::kSse2, UnpackLevel::kAvx2}) {
        if (!UnpackLevelSupported(level)) continue;
        SetUnpackLevelForTest(level);
        PairwiseRun got = RunPairwise(ca, cb);
        std::string what = std::string(c.name) + " level=" +
                           std::string(UnpackLevelName(level));
        EXPECT_EQ(got.docs, want.docs) << what;
        ExpectSameCost(got.cost_a, want.cost_a, what + " (cost_a)");
        ExpectSameCost(got.cost_b, want.cost_b, what + " (cost_b)");
      }
      ClearUnpackLevelOverride();
    }
  }
}

// -- Kernel selection tallies ------------------------------------------------

// The conjunction engine's pairwise step records each array-kernel pick:
// a near-equal pair of compressed lists lands on the 2-way kernel, a 64x
// pair (about two driver docids per probe block) on the wide probe.
TEST(SimdIntersectTest, KernelChoicesRecorded) {
  ResetIntersectTalliesForTest();
  SplitMix64 rng(59);
  auto packed = [&](size_t n, uint32_t max_gap) {
    return CompressedPostingList::FromPostingList(
        ToList(RandomSorted(rng, n, max_gap)), 128, CodecPolicy::kForOnly);
  };
  const CompressedPostingList a = packed(1000, 4);
  const CompressedPostingList near_eq = packed(1200, 4);
  const CompressedPostingList sparse = packed(100, 128);
  const CompressedPostingList dense = packed(12800, 1);
  for (auto [x, y] : {std::pair{&a, &near_eq}, std::pair{&sparse, &dense}}) {
    const PostingRef lists[] = {{nullptr, x, nullptr}, {nullptr, y, nullptr}};
    (void)CountIntersection(lists);
  }
  const IntersectTallies t = SnapshotIntersectTallies();
  EXPECT_GE(t.pairwise, 1u);    // near-equal pair
  EXPECT_GE(t.wide_probe, 1u);  // 64x pair
}

}  // namespace
}  // namespace csr
