// Ablation A5: posting-list compression — memory saved vs. serving cost,
// across codecs (FOR bit-packed vs varint vs bitmap vs uncompressed),
// block sizes, and list densities.
//
// Shape to verify: >= 3x memory reduction on realistic lists; dense
// intersections meet or beat the uncompressed QPS now that dense blocks
// auto-select the bitmap container (word-wise AND / O(1) probes) and FOR
// decodes go through the SIMD kernels; skewed (selective) intersections
// stay within ~10% of the uncompressed QPS because galloping block skips
// avoid decoding most blocks; block-max WAND scores strictly fewer
// postings than classic WAND.
//
// `--json <path>` additionally runs a deterministic self-timed pass and
// writes a machine-readable report (see README: BENCH_postings.json).

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/leapfrog.h"
#include "engine/wand.h"
#include "index/codec.h"
#include "index/intersection.h"
#include "index/inverted_index.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"
#include "index/simd_unpack.h"
#include "stats/collector.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using csr::CodecPolicy;
using csr::CompressedPostingList;
using csr::CostCounters;
using csr::DocId;
using csr::PostingList;
using csr::PostingRef;
using csr::SplitMix64;

PostingList MakeList(uint32_t universe, double density, uint64_t seed) {
  SplitMix64 rng(seed);
  PostingList l(128);
  for (DocId d = 0; d < universe; ++d) {
    if (rng.NextBool(density)) {
      l.Append(d, 1 + static_cast<uint32_t>(rng.NextBounded(5)));
    }
  }
  l.FinishBuild();
  return l;
}

// Codec under test: 0 = uncompressed, 1 = varint-only, 2 = FOR-only,
// 3 = auto (per-block smallest of the three), 4 = bitmap-preferred.
constexpr int kPlain = 0;

CodecPolicy PolicyOf(int codec) {
  switch (codec) {
    case 1:
      return CodecPolicy::kVarintOnly;
    case 2:
      return CodecPolicy::kForOnly;
    case 4:
      return CodecPolicy::kBitmapPreferred;
    default:
      return CodecPolicy::kAuto;
  }
}

/// Args: {codec, density permille, block size}.
void BM_CodecIntersection(benchmark::State& state) {
  int codec = static_cast<int>(state.range(0));
  double density = static_cast<double>(state.range(1)) / 1000.0;
  uint32_t block = static_cast<uint32_t>(state.range(2));
  PostingList a = MakeList(1 << 20, density, 1);
  PostingList b = MakeList(1 << 20, density / 8, 2);

  if (codec == kPlain) {
    std::vector<const PostingList*> lists = {&a, &b};
    for (auto _ : state) {
      benchmark::DoNotOptimize(csr::bench::LeapfrogCount(lists));
    }
    state.counters["bytes"] =
        static_cast<double>(a.MemoryBytes() + b.MemoryBytes());
    return;
  }
  auto ca = CompressedPostingList::FromPostingList(a, block, PolicyOf(codec));
  auto cb = CompressedPostingList::FromPostingList(b, block, PolicyOf(codec));
  const PostingRef lists[] = {{nullptr, &ca, nullptr},
                              {nullptr, &cb, nullptr}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr::CountIntersection(lists));
  }
  state.counters["bytes"] =
      static_cast<double>(ca.MemoryBytes() + cb.MemoryBytes());
  state.counters["plain_bytes"] =
      static_cast<double>(a.MemoryBytes() + b.MemoryBytes());
}
BENCHMARK(BM_CodecIntersection)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {500, 50}, {128}})
    ->Unit(benchmark::kMicrosecond);

/// Full-list decode throughput per codec and block size.
void BM_DecodeThroughput(benchmark::State& state) {
  int codec = static_cast<int>(state.range(0));
  uint32_t block = static_cast<uint32_t>(state.range(1));
  PostingList a = MakeList(1 << 20, 0.3, 3);
  auto ca = CompressedPostingList::FromPostingList(a, block, PolicyOf(codec));
  for (auto _ : state) {
    auto it = ca.MakeIterator();
    uint64_t sum = 0;
    while (!it.AtEnd()) {
      sum += it.doc();
      it.Next();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ca.size()));
}
BENCHMARK(BM_DecodeThroughput)
    ->ArgsProduct({{1, 2, 3}, {32, 128, 512}})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Deterministic --json report.

/// Repeats fn until ~0.3s elapsed; returns executions per second.
template <typename Fn>
double MeasureQps(Fn&& fn) {
  fn();  // warm-up (also first-touch of lazily decoded state)
  csr::WallTimer timer;
  uint64_t iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.ElapsedSeconds() < 0.3);
  return static_cast<double>(iters) / timer.ElapsedSeconds();
}

uint64_t IntersectCompressed(const CompressedPostingList& a,
                             const CompressedPostingList& b,
                             CostCounters* cost = nullptr) {
  const PostingRef lists[] = {{nullptr, &a, cost}, {nullptr, &b, cost}};
  return csr::CountIntersection(lists);
}

/// Runs the intersection several times against one shared CostCounters and
/// verifies the exactly-once-per-block charging contract: bytes_touched
/// must advance by the identical amount every pass (each pass touches the
/// same blocks) and never decrease. Returns the per-pass byte count.
uint64_t CheckedBytesTouched(const CompressedPostingList& a,
                             const CompressedPostingList& b) {
  CostCounters cost;
  IntersectCompressed(a, b, &cost);
  const uint64_t per_pass = cost.bytes_touched;
  uint64_t prev = cost.bytes_touched;
  for (int pass = 0; pass < 3; ++pass) {
    IntersectCompressed(a, b, &cost);
    if (cost.bytes_touched < prev ||
        cost.bytes_touched - prev != per_pass) {
      std::fprintf(stderr,
                   "bytes_touched violates monotone/exactly-once charging: "
                   "first pass %llu, pass %d delta %llu\n",
                   static_cast<unsigned long long>(per_pass), pass,
                   static_cast<unsigned long long>(cost.bytes_touched - prev));
      std::exit(1);
    }
    prev = cost.bytes_touched;
  }
  return per_pass;
}

void WriteJsonReport(const std::string& path) {
  using csr::bench::JsonWriter;
  const uint32_t kUniverse = 1 << 20;
  PostingList dense = MakeList(kUniverse, 0.5, 1);
  PostingList dense2 = MakeList(kUniverse, 0.5, 7);
  PostingList mid = MakeList(kUniverse, 0.0625, 2);
  PostingList sparse = MakeList(kUniverse, 0.002, 3);

  auto compress_all = [&](CodecPolicy p) {
    return std::vector<CompressedPostingList>{
        CompressedPostingList::FromPostingList(dense, 128, p),
        CompressedPostingList::FromPostingList(mid, 128, p),
        CompressedPostingList::FromPostingList(sparse, 128, p),
        CompressedPostingList::FromPostingList(dense2, 128, p)};
  };
  auto total_bytes = [](const std::vector<CompressedPostingList>& ls) {
    uint64_t n = 0;
    for (const auto& l : ls) n += l.MemoryBytes();
    return n;
  };
  std::vector<CompressedPostingList> v_auto = compress_all(CodecPolicy::kAuto);
  std::vector<CompressedPostingList> v_for =
      compress_all(CodecPolicy::kForOnly);
  std::vector<CompressedPostingList> v_varint =
      compress_all(CodecPolicy::kVarintOnly);
  std::vector<CompressedPostingList> v_bm =
      compress_all(CodecPolicy::kBitmapPreferred);

  uint64_t num_postings = dense.size() + mid.size() + sparse.size();
  uint64_t plain_bytes =
      dense.MemoryBytes() + mid.MemoryBytes() + sparse.MemoryBytes();
  uint64_t auto_bytes =
      v_auto[0].MemoryBytes() + v_auto[1].MemoryBytes() +
      v_auto[2].MemoryBytes();

  JsonWriter j;
  j.Open();
  j.Field("bench", std::string("bench_ablation_codec"));
  j.Field("num_postings", num_postings);

  j.OpenObject("memory");
  j.Field("uncompressed_bytes", plain_bytes);
  j.Field("auto_bytes", auto_bytes);
  j.Field("for_bytes", total_bytes(v_for) - v_for[3].MemoryBytes());
  j.Field("varint_bytes", total_bytes(v_varint) - v_varint[3].MemoryBytes());
  j.Field("bitmap_bytes", total_bytes(v_bm) - v_bm[3].MemoryBytes());
  j.Field("bytes_per_posting_uncompressed",
          static_cast<double>(plain_bytes) / num_postings);
  j.Field("bytes_per_posting_auto",
          static_cast<double>(auto_bytes) / num_postings);
  j.Field("ratio_uncompressed_over_auto",
          static_cast<double>(plain_bytes) / auto_bytes);
  j.CloseObject();

  // Intersection QPS: dense∩mid (merge-ish; the PR-3 regression case),
  // dense∩dense (bitmap word-AND territory), and dense∩sparse (skewed —
  // the shape context conjunctions actually have, where galloping block
  // skips pay off).
  std::vector<const PostingList*> plain_dm = {&dense, &mid};
  std::vector<const PostingList*> plain_dd = {&dense, &dense2};
  std::vector<const PostingList*> plain_ds = {&dense, &sparse};
  // The uncompressed baseline is the leapfrog join (bench/leapfrog.h).
  using csr::bench::LeapfrogCount;
  double dm_unc_qps = MeasureQps([&] { LeapfrogCount(plain_dm); });
  double dm_auto_qps =
      MeasureQps([&] { IntersectCompressed(v_auto[0], v_auto[1]); });
  double dd_unc_qps = MeasureQps([&] { LeapfrogCount(plain_dd); });
  double dd_auto_qps =
      MeasureQps([&] { IntersectCompressed(v_auto[0], v_auto[3]); });
  j.OpenObject("intersection");
  j.Field("dense_mid_uncompressed_qps", dm_unc_qps);
  j.Field("dense_mid_auto_qps", dm_auto_qps);
  j.Field("dense_mid_for_qps",
          MeasureQps([&] { IntersectCompressed(v_for[0], v_for[1]); }));
  j.Field("dense_mid_varint_qps",
          MeasureQps([&] { IntersectCompressed(v_varint[0], v_varint[1]); }));
  j.Field("dense_mid_result", IntersectCompressed(v_auto[0], v_auto[1]));
  // PR-3 under-reported this scenario's decode traffic (only the skewed
  // case carried a bytes_touched figure); charge-exactly-once is now
  // asserted, not assumed.
  j.Field("dense_mid_bytes_touched",
          CheckedBytesTouched(v_auto[0], v_auto[1]));
  j.Field("dense_mid_total_bytes",
          v_auto[0].MemoryBytes() + v_auto[1].MemoryBytes());
  j.Field("dense_dense_uncompressed_qps", dd_unc_qps);
  j.Field("dense_dense_auto_qps", dd_auto_qps);
  j.Field("dense_dense_bitmap_qps",
          MeasureQps([&] { IntersectCompressed(v_bm[0], v_bm[3]); }));
  j.Field("dense_dense_for_qps",
          MeasureQps([&] { IntersectCompressed(v_for[0], v_for[3]); }));
  j.Field("dense_dense_result", IntersectCompressed(v_auto[0], v_auto[3]));
  j.Field("dense_dense_bytes_touched",
          CheckedBytesTouched(v_auto[0], v_auto[3]));
  j.Field("skewed_uncompressed_qps",
          MeasureQps([&] { LeapfrogCount(plain_ds); }));
  j.Field("skewed_auto_qps",
          MeasureQps([&] { IntersectCompressed(v_auto[0], v_auto[2]); }));
  CostCounters skew_cost;
  uint64_t skew_result = IntersectCompressed(v_auto[0], v_auto[2], &skew_cost);
  j.Field("skewed_result", skew_result);
  j.Field("skewed_blocks_skipped", skew_cost.blocks_skipped);
  j.Field("skewed_bytes_touched", skew_cost.bytes_touched);
  j.Field("skewed_total_bytes", v_auto[0].MemoryBytes());
  j.CloseObject();

  // Decode-kernel report: which unpack level the dispatcher picked, its
  // decode throughput against the portable scalar kernel (same FOR list,
  // bit-identical output), the per-representation block mix the auto
  // policy chose, and the headline per-representation intersection QPS.
  {
    auto decode_all = [](const CompressedPostingList& l) {
      uint64_t sum = 0;
      for (auto it = l.MakeIterator(); !it.AtEnd(); it.Next()) {
        sum += it.doc();
      }
      benchmark::DoNotOptimize(sum);
    };
    double active_qps = MeasureQps([&] { decode_all(v_for[0]); });
    csr::SetUnpackLevelForTest(csr::UnpackLevel::kScalar);
    double scalar_qps = MeasureQps([&] { decode_all(v_for[0]); });
    csr::ClearUnpackLevelOverride();
    std::array<uint64_t, 3> blocks{};
    for (const CompressedPostingList& l : v_auto) {
      const std::array<uint64_t, 3>& c = l.codec_block_counts();
      for (size_t k = 0; k < blocks.size(); ++k) blocks[k] += c[k];
    }
    const double mpost = static_cast<double>(v_for[0].size()) / 1e6;
    j.OpenObject("kernels");
    j.Field("dispatch_level",
            std::string(csr::UnpackLevelName(csr::ActiveUnpackLevel())));
    j.Field("scalar_decode_mps", scalar_qps * mpost);
    j.Field("active_decode_mps", active_qps * mpost);
    j.Field("blocks_varint", blocks[0]);
    j.Field("blocks_for", blocks[1]);
    j.Field("blocks_bitmap", blocks[2]);
    j.Field("dense_mid_uncompressed_qps", dm_unc_qps);
    j.Field("dense_mid_auto_qps", dm_auto_qps);
    j.Field("dense_dense_uncompressed_qps", dd_unc_qps);
    j.Field("dense_dense_auto_qps", dd_auto_qps);
    j.CloseObject();
  }

  // Block-max WAND vs classic WAND over a small synthetic index.
  {
    SplitMix64 rng(99);
    csr::IndexBuilder builder(128);
    csr::IndexBuilder plain_builder(128);
    const double probs[4] = {0.30, 0.20, 0.05, 0.01};
    std::vector<csr::TermId> tokens;
    for (DocId d = 0; d < 60000; ++d) {
      tokens.clear();
      for (csr::TermId t = 0; t < 4; ++t) {
        if (rng.NextBool(probs[t])) {
          // tf is 1 except for rare spikes: most blocks then carry a
          // max_tf far below the list-wide bound, which is exactly when
          // block-max pruning beats classic WAND.
          uint32_t tf = rng.NextBool(0.004)
                            ? 24 + static_cast<uint32_t>(rng.NextBounded(8))
                            : 1;
          for (uint32_t k = 0; k < tf; ++k) tokens.push_back(t);
        }
      }
      tokens.push_back(4);  // filler term keeps doc lengths non-zero
      (void)builder.AddDocument(d, tokens);
      (void)plain_builder.AddDocument(d, tokens);
    }
    csr::InvertedIndex index = builder.Build();
    csr::InvertedIndex plain = plain_builder.Build();
    index.Compact();
    std::vector<csr::TermId> keywords = {0, 1, 2, 3};
    csr::QueryStats q = csr::QueryStats::FromKeywords(keywords);
    csr::CollectionStats stats = csr::GlobalCollectionStats(index, q.keywords);

    auto classic = csr::WandTopK(index, q, stats, 10, 0.2, false);
    auto blockmax = csr::WandTopK(index, q, stats, 10, 0.2, true);
    auto uncompressed = csr::WandTopK(plain, q, stats, 10, 0.2, false);
    auto same = [](const csr::TopKRunResult& a, const csr::TopKRunResult& b) {
      if (a.top_docs.size() != b.top_docs.size()) return false;
      for (size_t i = 0; i < a.top_docs.size(); ++i) {
        if (a.top_docs[i].doc != b.top_docs[i].doc ||
            a.top_docs[i].score != b.top_docs[i].score) {
          return false;
        }
      }
      return true;
    };
    j.OpenObject("wand");
    j.Field("classic_docs_scored", classic.docs_scored);
    j.Field("blockmax_docs_scored", blockmax.docs_scored);
    j.Field("blockmax_blocks_skipped", blockmax.blocks_skipped);
    j.Field("identical_topk",
            same(classic, blockmax) && same(classic, uncompressed));
    // The serving-path headline: uncompressed classic WAND (what the
    // engine shipped before) vs compressed block-max WAND (what it ships
    // now), same queries, same results.
    j.Field("uncompressed_classic_qps", MeasureQps([&] {
              csr::WandTopK(plain, q, stats, 10, 0.2, false);
            }));
    j.Field("classic_qps", MeasureQps([&] {
              csr::WandTopK(index, q, stats, 10, 0.2, false);
            }));
    j.Field("blockmax_qps", MeasureQps([&] {
              csr::WandTopK(index, q, stats, 10, 0.2, true);
            }));
    j.CloseObject();
  }
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
