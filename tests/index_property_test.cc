#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "index/codec.h"
#include "index/intersection.h"
#include "index/posting_list.h"
#include "index/scan_guard.h"
#include "util/random.h"

namespace csr {
namespace {

/// Property suite: skip-based intersection must agree with a reference
/// std::set_intersection for arbitrary list shapes, densities, and segment
/// sizes.
class IntersectionProperty
    : public ::testing::TestWithParam<std::tuple<int, double, uint32_t>> {};

std::vector<DocId> RandomDocs(SplitMix64& rng, uint32_t universe,
                              double density) {
  std::vector<DocId> docs;
  for (DocId d = 0; d < universe; ++d) {
    if (rng.NextBool(density)) docs.push_back(d);
  }
  return docs;
}

PostingList BuildList(const std::vector<DocId>& docs, uint32_t segment) {
  PostingList l(segment);
  for (DocId d : docs) l.Append(d, (d % 5) + 1);
  l.FinishBuild();
  return l;
}

/// ∩ lists by the conjunction engine; checks every list's tf of every
/// survivor on the way (BuildList's tf is d % 5 + 1).
std::vector<DocId> IntersectAll(std::span<const PostingRef> lists) {
  Conjunction conj(lists);
  std::vector<DocId> out;
  std::vector<uint32_t> tfs;
  for (size_t from = 0; conj.Next(out); from = out.size()) {
    std::span<const DocId> window(out.data() + from, out.size() - from);
    tfs.resize(window.size());
    for (size_t i = 0; i < lists.size(); ++i) {
      conj.Tfs(i, window, tfs.data());
      for (size_t j = 0; j < window.size(); ++j) {
        EXPECT_EQ(tfs[j], window[j] % 5 + 1) << "list " << i;
      }
    }
  }
  return out;
}

std::vector<DocId> IntersectAll(std::span<const PostingList* const> lists) {
  std::vector<PostingRef> refs;
  for (const PostingList* l : lists) refs.push_back({l, nullptr, nullptr});
  return IntersectAll(refs);
}

TEST_P(IntersectionProperty, MatchesReference) {
  auto [seed, density_b, segment] = GetParam();
  SplitMix64 rng(static_cast<uint64_t>(seed));
  const uint32_t kUniverse = 5000;

  std::vector<DocId> da = RandomDocs(rng, kUniverse, 0.2);
  std::vector<DocId> db = RandomDocs(rng, kUniverse, density_b);
  std::vector<DocId> dc = RandomDocs(rng, kUniverse, 0.5);

  std::vector<DocId> expected_ab;
  std::set_intersection(da.begin(), da.end(), db.begin(), db.end(),
                        std::back_inserter(expected_ab));
  std::vector<DocId> expected_abc;
  std::set_intersection(expected_ab.begin(), expected_ab.end(), dc.begin(),
                        dc.end(), std::back_inserter(expected_abc));

  PostingList a = BuildList(da, segment);
  PostingList b = BuildList(db, segment);
  PostingList c = BuildList(dc, segment);

  std::vector<const PostingList*> two = {&a, &b};
  EXPECT_EQ(IntersectAll(two), expected_ab);
  EXPECT_EQ(CountIntersection(two), expected_ab.size());

  std::vector<const PostingList*> three = {&a, &b, &c};
  EXPECT_EQ(IntersectAll(three), expected_abc);

  // Order of the input lists must not change the result.
  std::vector<const PostingList*> reordered = {&c, &a, &b};
  EXPECT_EQ(IntersectAll(reordered), expected_abc);

  // Nor must the representation: compressed lists, alone or mixed with
  // plain ones, run the same chain on the block kernels.
  const auto ca = CompressedPostingList::FromPostingList(a, segment);
  const auto cb = CompressedPostingList::FromPostingList(b, segment);
  const auto cc = CompressedPostingList::FromPostingList(c, segment);
  const std::vector<PostingRef> packed = {{nullptr, &ca, nullptr},
                                          {nullptr, &cb, nullptr},
                                          {nullptr, &cc, nullptr}};
  EXPECT_EQ(IntersectAll(packed), expected_abc);
  const std::vector<PostingRef> mixed = {
      {&a, nullptr, nullptr}, {nullptr, &cb, nullptr}, {&c, nullptr, nullptr}};
  EXPECT_EQ(IntersectAll(mixed), expected_abc);
  const std::vector<PostingRef> mixed2 = {{nullptr, &ca, nullptr},
                                          {&b, nullptr, nullptr}};
  EXPECT_EQ(IntersectAll(mixed2), expected_ab);
}

TEST_P(IntersectionProperty, AggregationMatchesReference) {
  auto [seed, density_b, segment] = GetParam();
  SplitMix64 rng(static_cast<uint64_t>(seed) ^ 0xABCD);
  const uint32_t kUniverse = 3000;

  std::vector<DocId> da = RandomDocs(rng, kUniverse, 0.3);
  std::vector<DocId> db = RandomDocs(rng, kUniverse, density_b);
  std::vector<uint32_t> lengths(kUniverse);
  for (uint32_t i = 0; i < kUniverse; ++i) {
    lengths[i] = static_cast<uint32_t>(rng.NextBounded(200));
  }

  std::vector<DocId> expected;
  std::set_intersection(da.begin(), da.end(), db.begin(), db.end(),
                        std::back_inserter(expected));
  uint64_t expected_sum = 0;
  for (DocId d : expected) expected_sum += lengths[d];

  PostingList a = BuildList(da, segment);
  PostingList b = BuildList(db, segment);
  const std::vector<PostingRef> lists = {{&a, nullptr, nullptr},
                                         {&b, nullptr, nullptr}};
  Conjunction conj(lists);
  uint64_t count = 0;
  uint64_t sum_len = 0;
  for (std::vector<DocId> docs; conj.Next(docs); docs.clear()) {
    count += docs.size();
    for (DocId d : docs) sum_len += lengths[d];
  }
  EXPECT_EQ(count, expected.size());
  EXPECT_EQ(sum_len, expected_sum);
}

TEST_P(IntersectionProperty, SkipToFromEveryPosition) {
  auto [seed, density_b, segment] = GetParam();
  SplitMix64 rng(static_cast<uint64_t>(seed) ^ 0x1111);
  std::vector<DocId> docs = RandomDocs(rng, 2000, density_b);
  if (docs.empty()) return;
  PostingList l = BuildList(docs, segment);

  // Probing arbitrary targets must land on lower_bound(target).
  for (int probe = 0; probe < 100; ++probe) {
    DocId target = static_cast<DocId>(rng.NextBounded(2200));
    auto it = l.MakeIterator();
    it.SkipTo(target);
    auto ref = std::lower_bound(docs.begin(), docs.end(), target);
    if (ref == docs.end()) {
      EXPECT_TRUE(it.AtEnd());
    } else {
      ASSERT_FALSE(it.AtEnd());
      EXPECT_EQ(it.doc(), *ref);
    }
  }

  // Monotone probe sequence on a single iterator.
  auto it = l.MakeIterator();
  DocId target = 0;
  while (true) {
    target += static_cast<DocId>(1 + rng.NextBounded(50));
    it.SkipTo(target);
    auto ref = std::lower_bound(docs.begin(), docs.end(), target);
    if (ref == docs.end()) {
      EXPECT_TRUE(it.AtEnd());
      break;
    }
    ASSERT_FALSE(it.AtEnd());
    EXPECT_EQ(it.doc(), *ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntersectionProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0.005, 0.05, 0.5),
                       ::testing::Values(4u, 32u, 128u)));

// The chain runs in windows of the shortest list, each list resuming where
// the last window left it. Ticks pay for the shortest list's docids, so
// every representation ticks the same; a budget stops the chain on the
// same docid prefix of the answer over every representation.
TEST(ConjunctionWindowsTest, ResumesAcrossWindowsAndTripsToAPrefix) {
  SplitMix64 rng(77);
  const uint32_t kUniverse = 120000;
  const std::vector<DocId> da = RandomDocs(rng, kUniverse, 0.05);
  const std::vector<DocId> db = RandomDocs(rng, kUniverse, 0.3);
  const std::vector<DocId> dc = RandomDocs(rng, kUniverse, 0.6);
  std::vector<DocId> ab, want;
  std::set_intersection(da.begin(), da.end(), db.begin(), db.end(),
                        std::back_inserter(ab));
  std::set_intersection(ab.begin(), ab.end(), dc.begin(), dc.end(),
                        std::back_inserter(want));
  ASSERT_GT(da.size(), 3 * Conjunction::kWindow);
  const PostingList a = BuildList(da, 128), b = BuildList(db, 128),
                    c = BuildList(dc, 128);
  std::vector<CompressedPostingList> packed, bitmaps;
  for (const PostingList* l : {&a, &b, &c}) {
    packed.push_back(CompressedPostingList::FromPostingList(*l));
    bitmaps.push_back(CompressedPostingList::FromPostingList(
        *l, 128, CodecPolicy::kBitmapPreferred));
  }
  const std::vector<std::vector<PostingRef>> reps = {
      {{&c}, {&a}, {&b}},
      {{nullptr, &packed[2]}, {nullptr, &packed[0]}, {nullptr, &packed[1]}},
      {{nullptr, &bitmaps[2]}, {nullptr, &bitmaps[0]}, {nullptr, &bitmaps[1]}},
      {{&c}, {nullptr, &packed[0]}, {nullptr, &bitmaps[1]}},
      {{nullptr, &packed[2]}, {&a}, {nullptr, &bitmaps[1]}}};
  uint64_t ticks = 0;
  for (size_t r = 0; r < reps.size(); ++r) {
    ScanGuard guard(0, 0);
    Conjunction conj(reps[r], &guard);
    std::vector<DocId> got;
    size_t windows = 0;
    while (conj.Next(got)) ++windows;
    EXPECT_EQ(got, want) << "rep " << r;
    EXPECT_GT(windows, 3u) << "rep " << r;
    EXPECT_FALSE(conj.aborted());
    if (r == 0) ticks = guard.ticks();
    EXPECT_EQ(guard.ticks(), ticks) << "rep " << r;
    EXPECT_EQ(IntersectAll(reps[r]), want) << "rep " << r;
  }
  for (uint64_t budget : {ticks / 3, ticks / 2 + 1}) {
    size_t prefix = 0;
    for (size_t r = 0; r < reps.size(); ++r) {
      ScanGuard guard(0, budget);
      Conjunction conj(reps[r], &guard);
      std::vector<DocId> got;
      while (conj.Next(got)) {
      }
      EXPECT_TRUE(conj.aborted());
      EXPECT_EQ(guard.ticks(), budget + 1);
      ASSERT_LT(got.size(), want.size());
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "rep " << r << ": not a prefix of the answer";
      if (r == 0) prefix = got.size();
      EXPECT_EQ(got.size(), prefix) << "rep " << r;
    }
    EXPECT_GT(prefix, 0u);
  }
}

TEST(IntersectionCostTest, SelectiveDriverSkipsSegments) {
  // |L_a| = 10, |L_b| = 100000: the skip-based join must touch far fewer
  // entries of b than a full merge (Section 3.2.2).
  PostingList a(128), b(128);
  for (int i = 0; i < 10; ++i) a.Append(static_cast<DocId>(i * 9000), 1);
  for (DocId d = 0; d < 100000; ++d) b.Append(d, 1);
  a.FinishBuild();
  b.FinishBuild();

  CostCounters cost;
  std::vector<const PostingList*> lists = {&b, &a};  // order irrelevant
  uint64_t n = CountIntersection(lists, &cost);
  EXPECT_EQ(n, 10u);
  EXPECT_LT(cost.entries_scanned, 5000u);  // ≪ 100010
  EXPECT_LT(cost.segments_touched, 100u);
}

TEST(IntersectionCostTest, DenseJoinScansEverything) {
  // Both lists dense: skips cannot help; cost approaches |a| + |b|.
  PostingList a(128), b(128);
  for (DocId d = 0; d < 20000; ++d) {
    if (d % 2 == 0) a.Append(d, 1);
    if (d % 3 == 0) b.Append(d, 1);
  }
  a.FinishBuild();
  b.FinishBuild();
  CostCounters cost;
  std::vector<const PostingList*> lists = {&a, &b};
  CountIntersection(lists, &cost);
  EXPECT_GT(cost.entries_scanned, 10000u);
}

}  // namespace
}  // namespace csr
