// Ablation A1: the Section 3.2.1 cost model in practice — skip-pointer
// segment size M0 and list-size ratio vs. intersection cost.
//
// Shape to verify: when one list is orders of magnitude shorter, the
// skip-based join touches ~|L_short| segments (cost ~ |L_short| * M0),
// far below |L_1| + |L_2|; when lists are comparably dense, skips cannot
// help and the join degrades to a full merge. Galloping SkipTo beats a
// linear merge by orders of magnitude on skewed pairs and loses nothing
// on balanced ones; the same leapfrog join over compressed cursors stays
// competitive because block skips avoid decoding untouched blocks. The
// leapfrog is this bench's own (bench/leapfrog.h): the engine runs every
// conjunction on the block-kernel chain, which BM_KWayConjunction and
// BM_MixedConjunction measure.
//
// `--json <path>` writes a machine-readable summary of these shapes, plus
// the kernel family's throughput per ratio bucket (intersect_kernels) and
// the run⋈block walk's windows through SimdIntersect against the scalar
// window merge they replaced (run_join, bench/scalar_window_join.h).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/leapfrog.h"
#include "bench/scalar_window_join.h"
#include "index/codec.h"
#include "index/intersection.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"
#include "index/simd_intersect.h"
#include "index/simd_unpack.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using csr::CompressedPostingList;
using csr::CostCounters;
using csr::DocId;
using csr::PostingCursor;
using csr::PostingList;
using csr::PostingRef;

PostingList MakeUniformList(uint32_t universe, uint32_t stride,
                            uint32_t segment) {
  PostingList l(segment);
  for (DocId d = 0; d < universe; d += stride) l.Append(d, 1);
  l.FinishBuild();
  return l;
}

/// Args: {long-to-short ratio, segment size M0}.
void BM_SkipIntersection(benchmark::State& state) {
  const uint32_t kUniverse = 1 << 21;  // ~2M docs
  uint32_t ratio = static_cast<uint32_t>(state.range(0));
  uint32_t segment = static_cast<uint32_t>(state.range(1));

  PostingList long_list = MakeUniformList(kUniverse, 2, segment);
  PostingList short_list = MakeUniformList(kUniverse, 2 * ratio, segment);
  std::vector<const PostingList*> lists = {&long_list, &short_list};

  uint64_t result = 0;
  CostCounters cost;
  for (auto _ : state) {
    cost.Reset();
    result = csr::bench::LeapfrogCount(lists, &cost);
    benchmark::DoNotOptimize(result);
  }
  state.counters["result"] = static_cast<double>(result);
  state.counters["entries_scanned"] = static_cast<double>(cost.entries_scanned);
  state.counters["segments"] = static_cast<double>(cost.segments_touched);
  state.counters["model_cost"] =
      static_cast<double>(cost.ModelIntersectionCost(segment));
  state.counters["naive_cost"] =
      static_cast<double>(long_list.size() + short_list.size());
}
BENCHMARK(BM_SkipIntersection)
    ->ArgsProduct({{1, 16, 256, 4096}, {16, 128, 1024}})
    ->Unit(benchmark::kMicrosecond);

/// Merge without skip benefit: both lists dense and interleaved.
void BM_DenseMerge(benchmark::State& state) {
  const uint32_t kUniverse = 1 << 20;
  uint32_t segment = static_cast<uint32_t>(state.range(0));
  PostingList a(segment), b(segment);
  csr::SplitMix64 rng(5);
  for (DocId d = 0; d < kUniverse; ++d) {
    if (rng.NextBool(0.5)) a.Append(d, 1);
    if (rng.NextBool(0.5)) b.Append(d, 1);
  }
  a.FinishBuild();
  b.FinishBuild();
  std::vector<const PostingList*> lists = {&a, &b};
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr::bench::LeapfrogCount(lists));
  }
}
BENCHMARK(BM_DenseMerge)->Arg(16)->Arg(128)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

/// Intersection-with-aggregation (the ∩γ operator of Figure 3): the extra
/// cost of γ_count + γ_sum over plain intersection.
void BM_IntersectAndAggregate(benchmark::State& state) {
  const uint32_t kUniverse = 1 << 20;
  PostingList a = MakeUniformList(kUniverse, 3, 128);
  PostingList b = MakeUniformList(kUniverse, 5, 128);
  std::vector<uint32_t> lengths(kUniverse, 100);
  for (auto _ : state) {
    uint64_t count = 0;
    uint64_t sum_len = 0;
    csr::bench::Leapfrog(
        {PostingCursor(&a, nullptr), PostingCursor(&b, nullptr)},
        [&](DocId d, const auto&) {
          ++count;
          sum_len += lengths[d];
        });
    benchmark::DoNotOptimize(count);
    benchmark::DoNotOptimize(sum_len);
  }
}
BENCHMARK(BM_IntersectAndAggregate)->Unit(benchmark::kMicrosecond);

/// k-way conjunctions: how cost grows with the number of lists (contexts
/// of 2-5 predicates plus keywords).
void BM_KWayConjunction(benchmark::State& state) {
  const uint32_t kUniverse = 1 << 20;
  uint32_t k = static_cast<uint32_t>(state.range(0));
  std::vector<PostingList> lists;
  for (uint32_t i = 0; i < k; ++i) {
    lists.push_back(MakeUniformList(kUniverse, 2 + i, 128));
  }
  std::vector<const PostingList*> ptrs;
  for (auto& l : lists) ptrs.push_back(&l);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr::CountIntersection(ptrs));
  }
}
BENCHMARK(BM_KWayConjunction)->DenseRange(2, 6)->Unit(benchmark::kMicrosecond);

/// Linear two-pointer merge with Next() only — the baseline galloping
/// SkipTo replaces. Works over any pair of cursors.
uint64_t LinearMergeCount(PostingCursor a, PostingCursor b) {
  uint64_t count = 0;
  while (!a.AtEnd() && !b.AtEnd()) {
    if (a.doc() == b.doc()) {
      ++count;
      a.Next();
      b.Next();
    } else if (a.doc() < b.doc()) {
      a.Next();
    } else {
      b.Next();
    }
  }
  return count;
}

uint64_t GallopCount(PostingCursor a, PostingCursor b) {
  std::vector<PostingCursor> cursors;
  cursors.push_back(std::move(a));
  cursors.push_back(std::move(b));
  return csr::bench::LeapfrogCount(std::move(cursors));
}

/// Galloping SkipTo vs linear merge, uncompressed and compressed cursors.
/// Args: {strategy (0=linear, 1=gallop), compressed, long-to-short ratio}.
void BM_GallopVsLinear(benchmark::State& state) {
  const uint32_t kUniverse = 1 << 21;
  bool gallop = state.range(0) != 0;
  bool compressed = state.range(1) != 0;
  uint32_t ratio = static_cast<uint32_t>(state.range(2));
  PostingList long_list = MakeUniformList(kUniverse, 2, 128);
  PostingList short_list = MakeUniformList(kUniverse, 2 * ratio, 128);
  CompressedPostingList clong, cshort;
  if (compressed) {
    clong = CompressedPostingList::FromPostingList(long_list, 128);
    cshort = CompressedPostingList::FromPostingList(short_list, 128);
  }
  uint64_t result = 0;
  for (auto _ : state) {
    PostingCursor a = compressed ? PostingCursor(&clong, nullptr)
                                 : PostingCursor(&long_list, nullptr);
    PostingCursor b = compressed ? PostingCursor(&cshort, nullptr)
                                 : PostingCursor(&short_list, nullptr);
    result = gallop ? GallopCount(std::move(a), std::move(b))
                    : LinearMergeCount(std::move(a), std::move(b));
    benchmark::DoNotOptimize(result);
  }
  state.counters["result"] = static_cast<double>(result);
}
BENCHMARK(BM_GallopVsLinear)
    ->ArgsProduct({{0, 1}, {0, 1}, {1, 256, 4096}})
    ->Unit(benchmark::kMicrosecond);

/// k-way conjunction over mixed representations: uncompressed driver with
/// compressed followers, as the engine serves after partial compaction.
void BM_MixedConjunction(benchmark::State& state) {
  const uint32_t kUniverse = 1 << 20;
  uint32_t k = static_cast<uint32_t>(state.range(0));
  std::vector<PostingList> lists;
  std::vector<CompressedPostingList> clists;
  for (uint32_t i = 0; i < k; ++i) {
    lists.push_back(MakeUniformList(kUniverse, 2 + i, 128));
  }
  for (uint32_t i = 1; i < k; ++i) {
    clists.push_back(CompressedPostingList::FromPostingList(lists[i], 128));
  }
  std::vector<PostingRef> refs = {{&lists[0], nullptr, nullptr}};
  for (auto& cl : clists) refs.push_back({nullptr, &cl, nullptr});
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr::CountIntersection(refs));
  }
}
BENCHMARK(BM_MixedConjunction)->DenseRange(2, 5)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Deterministic --json report.

template <typename Fn>
double MeasureQps(Fn&& fn) {
  fn();
  csr::WallTimer timer;
  uint64_t iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.ElapsedSeconds() < 0.3);
  return static_cast<double>(iters) / timer.ElapsedSeconds();
}

/// Millions of input values (both sides) consumed per second by `fn`,
/// which intersects `values_per_call` values per invocation.
template <typename Fn>
double MeasureMvs(uint64_t values_per_call, Fn&& fn) {
  fn();
  csr::WallTimer timer;
  uint64_t iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.ElapsedSeconds() < 0.3);
  return static_cast<double>(values_per_call) * static_cast<double>(iters) /
         timer.ElapsedSeconds() / 1e6;
}

std::vector<uint32_t> RandomSortedValues(uint64_t seed, size_t n,
                                         uint32_t max_gap) {
  csr::SplitMix64 rng(seed);
  std::vector<uint32_t> out;
  out.reserve(n);
  uint32_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v += 1 + static_cast<uint32_t>(rng.NextBounded(max_gap));
    out.push_back(v);
  }
  return out;
}

/// Kernel-level throughput per ratio bucket: the same decoded-array
/// kernels the block-pairwise path dispatches to, measured at kScalar and
/// at the detected dispatch level. The gate (check_bench_regression.py
/// --intersect-bench) holds the floors: pairwise >= 1.3x scalar on
/// near-equal lists, gallop >= 2x scalar at ratio >= 1000, and `result`
/// exactly reproducible (the kernels are deterministic).
void WriteKernelSection(csr::bench::JsonWriter& j) {
  using csr::IntersectKernel;
  using csr::UnpackLevel;
  const UnpackLevel simd = csr::ActiveUnpackLevel();

  j.OpenObject("intersect_kernels");
  j.Field("dispatch_level",
          std::string(csr::UnpackLevelName(simd)));
  j.OpenObject("thresholds");
  j.Field("gallop_ratio", csr::kGallopRatioThreshold);
  j.Field("wide_probe_ratio", csr::kWideProbeRatioThreshold);
  j.Field("simd_gallop_ratio", csr::kSimdGallopRatioThreshold);
  j.CloseObject();

  struct Bucket {
    const char* name;
    uint64_t ratio;
    size_t nfreq;
  };
  // One bucket per kernel regime plus the threshold neighborhoods the
  // selector constants were audited against (crossover visibility).
  const Bucket buckets[] = {
      {"near_equal", 1, 1u << 20},  {"ratio_8", 8, 1u << 20},
      {"ratio_32", 32, 1u << 20},   {"ratio_64", 64, 1u << 20},
      {"ratio_512", 512, 1u << 20}, {"ratio_4096", 4096, 1u << 22},
  };
  for (const Bucket& b : buckets) {
    const size_t nrare = b.nfreq / b.ratio;
    std::vector<uint32_t> rare =
        RandomSortedValues(101 + b.ratio, nrare,
                           static_cast<uint32_t>(2 * b.ratio));
    std::vector<uint32_t> freq = RandomSortedValues(57, b.nfreq, 2);
    std::vector<uint32_t> out(nrare);
    const IntersectKernel kernel = csr::ChooseIntersectKernel(nrare, b.nfreq);
    const uint64_t per_call = nrare + b.nfreq;

    uint64_t result = 0;
    auto run = [&](UnpackLevel level) {
      result = csr::IntersectAtLevel(level, kernel, rare.data(), nrare,
                                     freq.data(), b.nfreq, out.data());
      benchmark::DoNotOptimize(out.data());
    };
    const double scalar_mvs =
        MeasureMvs(per_call, [&] { run(UnpackLevel::kScalar); });
    const double simd_mvs = MeasureMvs(per_call, [&] { run(simd); });

    j.OpenObject(b.name);
    j.Field("kernel", std::string(csr::IntersectKernelName(kernel)));
    j.Field("ratio", b.ratio);
    j.Field("rare_size", static_cast<uint64_t>(nrare));
    j.Field("freq_size", static_cast<uint64_t>(b.nfreq));
    j.Field("result", result);
    j.Field("scalar_mvs", scalar_mvs);
    j.Field("simd_mvs", simd_mvs);
    j.Field("speedup", scalar_mvs > 0 ? simd_mvs / scalar_mvs : 0.0);
    j.CloseObject();
  }
  j.CloseObject();
}

/// The run⋈block walk at run/list size ratios 1, 8 and 64: a docid run (a
/// context set) joined with a FOR-coded list by JoinRunWithList, whose
/// windows go through SimdIntersect, against the same walk with the
/// scalar window merge (bench/scalar_window_join.h). Both decode the same
/// blocks, so the speedup is the window kernels'. The gate
/// (check_bench_regression.py --intersect-bench) holds `result` exact and
/// a floor on the ratio-8 speedup, where the kernels' lead over the merge
/// is clearest; at ratio 1 the two run about level on this list.
void WriteRunJoinSection(csr::bench::JsonWriter& j) {
  constexpr size_t kListSize = 1 << 18;
  csr::SplitMix64 rng(4242);
  std::vector<csr::Posting> postings;
  postings.reserve(kListSize);
  DocId d = 0;
  for (size_t i = 0; i < kListSize; ++i) {
    d += 1 + static_cast<DocId>(rng.NextBounded(4));
    postings.push_back(csr::Posting{d, 1});
  }
  const uint32_t universe = d + 1;
  const CompressedPostingList list = CompressedPostingList::FromPostings(
      postings, 128, csr::CodecPolicy::kForOnly);

  j.OpenObject("run_join");
  for (size_t ratio : {1, 8, 64}) {
    // kListSize / ratio distinct docids, about half of them list members.
    std::vector<bool> taken(universe, false);
    size_t nrun = 0;
    while (nrun < kListSize / ratio) {
      const DocId r = rng.NextBool(0.5)
                          ? postings[rng.NextBounded(kListSize)].doc
                          : static_cast<DocId>(rng.NextBounded(universe));
      if (!taken[r]) {
        taken[r] = true;
        ++nrun;
      }
    }
    std::vector<DocId> run;
    run.reserve(nrun);
    for (DocId r = 0; r < universe; ++r) {
      if (taken[r]) run.push_back(r);
    }
    const uint64_t result =
        csr::JoinRunWithList(run, list, false, nullptr, nullptr).matches;
    if (csr::bench::ScalarRunJoinCount(run, list) != result) {
      std::fprintf(stderr, "run_join ratio %zu: scalar and SIMD disagree\n",
                   ratio);
      std::exit(1);
    }
    // Best of three alternating measurements per side, so host drift
    // between the two does not set the ratio.
    double scalar_qps = 0;
    double simd_qps = 0;
    for (int round = 0; round < 3; ++round) {
      scalar_qps = std::max(scalar_qps, MeasureQps([&] {
        benchmark::DoNotOptimize(csr::bench::ScalarRunJoinCount(run, list));
      }));
      simd_qps = std::max(simd_qps, MeasureQps([&] {
        benchmark::DoNotOptimize(
            csr::JoinRunWithList(run, list, false, nullptr, nullptr).matches);
      }));
    }
    j.OpenObject("ratio_" + std::to_string(ratio));
    j.Field("ratio", static_cast<uint64_t>(ratio));
    j.Field("run_size", static_cast<uint64_t>(run.size()));
    j.Field("list_size", static_cast<uint64_t>(list.size()));
    j.Field("result", result);
    j.Field("scalar_qps", scalar_qps);
    j.Field("simd_qps", simd_qps);
    j.Field("speedup", scalar_qps > 0 ? simd_qps / scalar_qps : 0.0);
    j.CloseObject();
  }
  j.CloseObject();
}

void WriteJsonReport(const std::string& path) {
  const uint32_t kUniverse = 1 << 21;
  PostingList long_list = MakeUniformList(kUniverse, 2, 128);
  PostingList short_list = MakeUniformList(kUniverse, 2 * 256, 128);
  CompressedPostingList clong =
      CompressedPostingList::FromPostingList(long_list, 128);
  CompressedPostingList cshort =
      CompressedPostingList::FromPostingList(short_list, 128);

  csr::bench::JsonWriter j;
  j.Open();
  j.Field("bench", std::string("bench_ablation_intersection"));
  j.Field("long_size", static_cast<uint64_t>(long_list.size()));
  j.Field("short_size", static_cast<uint64_t>(short_list.size()));

  j.OpenObject("skewed_256x");
  j.Field("linear_uncompressed_qps", MeasureQps([&] {
            LinearMergeCount(PostingCursor(&long_list, nullptr),
                             PostingCursor(&short_list, nullptr));
          }));
  j.Field("gallop_uncompressed_qps", MeasureQps([&] {
            GallopCount(PostingCursor(&long_list, nullptr),
                        PostingCursor(&short_list, nullptr));
          }));
  j.Field("linear_compressed_qps", MeasureQps([&] {
            LinearMergeCount(PostingCursor(&clong, nullptr),
                             PostingCursor(&cshort, nullptr));
          }));
  j.Field("gallop_compressed_qps", MeasureQps([&] {
            GallopCount(PostingCursor(&clong, nullptr),
                        PostingCursor(&cshort, nullptr));
          }));
  CostCounters cost;
  uint64_t result = GallopCount(PostingCursor(&clong, &cost),
                                PostingCursor(&cshort, &cost));
  j.Field("result", result);
  j.Field("blocks_skipped", cost.blocks_skipped);
  j.Field("bytes_touched", cost.bytes_touched);
  j.Field("compressed_bytes_total",
          static_cast<uint64_t>(clong.MemoryBytes() + cshort.MemoryBytes()));
  j.CloseObject();

  WriteKernelSection(j);
  WriteRunJoinSection(j);
  j.Close();

  if (csr::Status s = j.WriteFile(path); !s.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "# wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = csr::bench::TakeJsonFlag(&argc, argv);
  if (json_path.empty()) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  WriteJsonReport(json_path);
  return 0;
}
