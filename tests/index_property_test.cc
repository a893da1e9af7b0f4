#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "index/codec.h"
#include "index/intersection.h"
#include "index/posting_list.h"
#include "index/scan_guard.h"
#include "index/simd_unpack.h"
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

// -- The run⋈block walk against brute force ---------------------------------
//
// JoinRunWithList, SemiJoinRunWithList and Conjunctions over a docid run
// (a materialized context set) meet each window of run docids with the one
// list block it falls in. WalkCharges below is the reference for what that
// walk charges; it reads only the list's block directory and block bytes,
// never the kernel that intersects the window with the block.

/// `n` distinct docids drawn from [0, universe), ascending; when `from` is
/// non-empty, about half of them are drawn from it.
std::vector<DocId> SampleDocs(SplitMix64& rng, size_t n, uint32_t universe,
                              const std::vector<DocId>& from = {}) {
  std::vector<bool> taken(universe, false);
  size_t got = 0;
  while (got < n) {
    const DocId d = !from.empty() && rng.NextBool(0.5)
                        ? from[rng.NextBounded(from.size())]
                        : static_cast<DocId>(rng.NextBounded(universe));
    if (!taken[d]) {
      taken[d] = true;
      ++got;
    }
  }
  std::vector<DocId> docs;
  for (DocId d = 0; d < universe; ++d) {
    if (taken[d]) docs.push_back(d);
  }
  return docs;
}

uint32_t TfOf(DocId d) { return d % 7 + 1; }

CompressedPostingList Packed(const std::vector<DocId>& docs,
                             CodecPolicy policy) {
  std::vector<Posting> postings;
  for (DocId d : docs) postings.push_back(Posting{d, TfOf(d)});
  return CompressedPostingList::FromPostings(postings, 128, policy);
}

/// The charges of the run⋈block walk over one compressed list, resumable
/// across calls as a Conjunction's list side is. Per window — the run
/// docids that fall in one list block — one entries_scanned per window
/// docid; a bitmap block meeting a window at most twice its size (when no
/// tfs are needed) is probed by bit tests and charged its view, any other
/// block is decoded and charged its docid section plus one
/// entries_scanned per posting; a block holding a match charges its tf
/// section when tfs are needed. Seeking past blocks counts skips_taken and
/// blocks_skipped.
class WalkCharges {
 public:
  explicit WalkCharges(const CompressedPostingList& list) : list_(list) {}

  const CostCounters& cost() const { return cost_; }

  void Walk(std::span<const DocId> run, bool with_tf) {
    if (run.empty() || list_.empty()) return;
    const auto blocks = list_.blocks();
    const bool run_drives = run.size() <= list_.size();
    size_t i = 0;
    while (i < run.size()) {
      if (!Seek(run[i])) break;
      const auto& meta = blocks[cur_];
      const size_t end = static_cast<size_t>(
          std::upper_bound(run.begin() + i, run.end(), meta.max_doc) -
          run.begin());
      const std::span<const DocId> window = run.subspan(i, end - i);
      i = end;
      // A shorter list counts its ticks in a block reaching past the run.
      if (!run_drives && meta.max_doc > run.back()) ChargeDocs();
      cost_.entries_scanned += window.size();
      if (!with_tf && list_.BlockCodecTag(cur_) == BlockCodec::kBitmap &&
          window.size() <= 2 * meta.count) {
        std::string_view raw = list_.BlockBytes(cur_);
        auto view = BitmapBlockCodec::MakeView(raw.substr(1), meta.base);
        ASSERT_TRUE(view.ok());
        Charge(1 + 5 + (static_cast<size_t>(view->range) + 7) / 8);
        continue;
      }
      std::span<const DocId> docs = ChargeDocs();
      cost_.entries_scanned += docs.size();
      const bool hit = std::find_first_of(window.begin(), window.end(),
                                          docs.begin(), docs.end()) !=
                       window.end();
      if (with_tf && hit && !tfs_charged_) {
        tfs_charged_ = true;
        cost_.bytes_touched += list_.BlockBytes(cur_).size() - (1 + tf_offset_);
      }
    }
  }

 private:
  bool Seek(DocId d) {
    const auto blocks = list_.blocks();
    if (cur_ >= blocks.size()) return false;
    if (blocks[cur_].max_doc >= d) return true;
    size_t next = cur_;
    while (next < blocks.size() && blocks[next].max_doc < d) ++next;
    cost_.skips_taken++;
    if (next > cur_ + 1) cost_.blocks_skipped += next - cur_ - 1;
    cur_ = next;
    charged_ = false;
    tfs_charged_ = false;
    return cur_ < blocks.size();
  }

  void Charge(size_t bytes) {
    if (charged_) return;
    charged_ = true;
    cost_.segments_touched++;
    cost_.bytes_touched += bytes;
  }

  std::span<const DocId> ChargeDocs() {
    std::span<const DocId> docs = list_.LoadDocs(cur_, own_, &tf_offset_);
    Charge(1 + tf_offset_);
    return docs;
  }

  const CompressedPostingList& list_;
  CostCounters cost_;
  size_t cur_ = 0;
  bool charged_ = false;
  bool tfs_charged_ = false;
  size_t tf_offset_ = 0;
  std::vector<DocId> own_;
};

void ExpectSameCost(const CostCounters& got, const CostCounters& want) {
  EXPECT_EQ(got.entries_scanned, want.entries_scanned);
  EXPECT_EQ(got.segments_touched, want.segments_touched);
  EXPECT_EQ(got.bytes_touched, want.bytes_touched);
  EXPECT_EQ(got.skips_taken, want.skips_taken);
  EXPECT_EQ(got.blocks_skipped, want.blocks_skipped);
}

std::vector<DocId> Intersect(const std::vector<DocId>& a,
                             const std::vector<DocId>& b) {
  std::vector<DocId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// The docids of `s` whose ticks are paid, by the join tick rule, before a
/// budget of `budget` ticks trips: the first `budget` of them no greater
/// than `other`'s last docid.
std::vector<DocId> PaidPrefix(const std::vector<DocId>& s,
                              const std::vector<DocId>& other,
                              uint64_t budget) {
  std::vector<DocId> paid;
  for (DocId d : s) {
    if (d > other.back() || paid.size() == budget) break;
    paid.push_back(d);
  }
  return paid;
}

std::vector<UnpackLevel> SupportedLevels() {
  std::vector<UnpackLevel> levels;
  for (UnpackLevel l :
       {UnpackLevel::kScalar, UnpackLevel::kSse2, UnpackLevel::kAvx2}) {
    if (UnpackLevelSupported(l)) levels.push_back(l);
  }
  return levels;
}

constexpr CodecPolicy kPolicies[] = {CodecPolicy::kAuto,
                                     CodecPolicy::kVarintOnly,
                                     CodecPolicy::kForOnly,
                                     CodecPolicy::kBitmapPreferred};

/// (run size, list size) pairs at run/list ratios 1, 4, 8, 64 and 1024 in
/// both directions: around the walk's old 8x merge/gallop switch and
/// SimdIntersect's wide-probe and gallop thresholds.
std::vector<std::pair<size_t, size_t>> RatioShapes() {
  std::vector<std::pair<size_t, size_t>> shapes = {{3000, 3000}};
  for (size_t ratio : {4, 8, 64, 1024}) {
    const size_t small = std::max<size_t>(40, 24000 / ratio);
    shapes.push_back({small, small * ratio});
    shapes.push_back({small * ratio, small});
  }
  return shapes;
}

struct LevelOverride {
  explicit LevelOverride(UnpackLevel l) { SetUnpackLevelForTest(l); }
  ~LevelOverride() { ClearUnpackLevelOverride(); }
};

TEST(RunJoinDifferentialTest, JoinAndSemiJoinMatchBruteForce) {
  SplitMix64 rng(2024);
  for (auto [nrun, nlist] : RatioShapes()) {
    const uint32_t universe = static_cast<uint32_t>(2 * std::max(nrun, nlist));
    const std::vector<DocId> ldocs = SampleDocs(rng, nlist, universe);
    const std::vector<DocId> run = SampleDocs(rng, nrun, universe, ldocs);
    const std::vector<DocId> want = Intersect(run, ldocs);
    uint64_t want_tf = 0;
    for (DocId d : want) want_tf += TfOf(d);
    const bool run_drives = nrun <= nlist;
    const std::vector<DocId>& s = run_drives ? run : ldocs;
    const std::vector<DocId>& l = run_drives ? ldocs : run;
    const uint64_t ticks = PaidPrefix(s, l, s.size()).size();
    ASSERT_GT(want.size(), 0u);
    for (CodecPolicy policy : kPolicies) {
      const CompressedPostingList list = Packed(ldocs, policy);
      for (UnpackLevel level : SupportedLevels()) {
        LevelOverride pin(level);
        for (bool with_tf : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << nrun << " run x " << nlist << " list, policy "
                       << static_cast<int>(policy) << ", level "
                       << static_cast<int>(level) << ", tf " << with_tf);
          WalkCharges charges(list);
          charges.Walk(run, with_tf);
          CostCounters cost;
          ScanGuard guard(0, 0);
          const RunJoinResult r =
              JoinRunWithList(run, list, with_tf, &cost, &guard);
          EXPECT_EQ(r.matches, want.size());
          EXPECT_EQ(r.tf_sum, with_tf ? want_tf : 0);
          EXPECT_FALSE(r.aborted);
          EXPECT_EQ(guard.ticks(), ticks);
          ExpectSameCost(cost, charges.cost());

          // A budget trips on the same tick and the matches are those of
          // the paid docid prefix of the shorter side.
          const uint64_t budget = ticks / 2;
          const std::vector<DocId> paid = PaidPrefix(s, l, budget);
          const std::vector<DocId> prefix = Intersect(paid, l);
          uint64_t prefix_tf = 0;
          for (DocId d : prefix) prefix_tf += TfOf(d);
          ScanGuard bounded(0, budget);
          const RunJoinResult b =
              JoinRunWithList(run, list, with_tf, nullptr, &bounded);
          EXPECT_TRUE(b.aborted);
          EXPECT_EQ(bounded.ticks(), budget + 1);
          EXPECT_EQ(b.matches, prefix.size());
          if (with_tf) {
            EXPECT_EQ(b.tf_sum, prefix_tf);
            continue;
          }

          // The semijoin hands over the matches themselves, same charges.
          CostCounters semi_cost;
          ScanGuard semi_guard(0, 0);
          std::vector<DocId> got;
          const RunJoinResult sr = SemiJoinRunWithList(
              run, list, &semi_cost, &semi_guard,
              [&](std::span<const DocId> docs) {
                EXPECT_LE(docs.size(), kPairwiseBatch);
                got.insert(got.end(), docs.begin(), docs.end());
              });
          EXPECT_EQ(got, want);
          EXPECT_EQ(sr.matches, want.size());
          EXPECT_EQ(semi_guard.ticks(), ticks);
          ExpectSameCost(semi_cost, charges.cost());
          got.clear();
          ScanGuard semi_bounded(0, budget);
          SemiJoinRunWithList(run, list, nullptr, &semi_bounded,
                              [&](std::span<const DocId> docs) {
                                got.insert(got.end(), docs.begin(),
                                           docs.end());
                              });
          EXPECT_EQ(got, prefix);
        }
      }
    }
  }
}

TEST(RunJoinDifferentialTest, ConjunctionsOverARunMatchBruteForce) {
  SplitMix64 rng(4048);
  for (auto [nrun, nlist] : RatioShapes()) {
    const uint32_t universe = static_cast<uint32_t>(2 * std::max(nrun, nlist));
    std::vector<std::vector<DocId>> ldocs;
    for (int k = 0; k < 3; ++k) {
      ldocs.push_back(SampleDocs(rng, nlist + 16 * k, universe,
                                 k == 0 ? std::vector<DocId>{} : ldocs[0]));
    }
    const std::vector<DocId> run = SampleDocs(rng, nrun, universe, ldocs[0]);
    for (size_t num_lists : {3, 4}) {
      // The run first, then the lists: ascending size when the run is
      // shortest (the ratio-1 tie keeps the run first).
      std::vector<DocId> want = run;
      for (size_t k = 0; k + 1 < num_lists; ++k) {
        want = Intersect(want, ldocs[k]);
      }
      // Ticks pay for the shortest list's docids up to the second's last.
      std::vector<const std::vector<DocId>*> by_size = {&run};
      for (size_t k = 0; k + 1 < num_lists; ++k) by_size.push_back(&ldocs[k]);
      std::stable_sort(by_size.begin(), by_size.end(),
                       [](auto* a, auto* b) { return a->size() < b->size(); });
      const uint64_t ticks =
          PaidPrefix(*by_size[0], *by_size[1], by_size[0]->size()).size();
      for (CodecPolicy policy : kPolicies) {
        std::vector<CompressedPostingList> lists;
        for (size_t k = 0; k + 1 < num_lists; ++k) {
          lists.push_back(Packed(ldocs[k], policy));
        }
        std::vector<CostCounters> costs(num_lists);
        std::vector<PostingRef> refs = {{nullptr, nullptr, &costs[0], run}};
        for (size_t k = 0; k < lists.size(); ++k) {
          refs.push_back({nullptr, &lists[k], &costs[k + 1]});
        }
        std::vector<CostCounters> level0;
        for (UnpackLevel level : SupportedLevels()) {
          LevelOverride pin(level);
          SCOPED_TRACE(::testing::Message()
                       << nrun << " run x " << nlist << " lists, " << num_lists
                       << " lists, policy " << static_cast<int>(policy)
                       << ", level " << static_cast<int>(level));
          std::fill(costs.begin(), costs.end(), CostCounters{});
          ScanGuard guard(0, 0);
          Conjunction conj(refs, &guard);
          std::vector<DocId> got;
          while (conj.Next(got)) {
          }
          EXPECT_EQ(got, want);
          EXPECT_EQ(guard.ticks(), ticks);
          EXPECT_FALSE(conj.aborted());
          if (nrun <= nlist) {
            // The run drives: each window of it walks the second list,
            // and its survivors each further list, every side resuming.
            std::vector<WalkCharges> charges;
            for (const CompressedPostingList& l : lists) {
              charges.emplace_back(l);
            }
            for (size_t from = 0; from < run.size();) {
              const size_t to =
                  std::min(run.size(), from + Conjunction::kWindow);
              std::vector<DocId> survivors(run.begin() + from,
                                           run.begin() + to);
              for (size_t k = 0; k < lists.size() && !survivors.empty();
                   ++k) {
                charges[k].Walk(survivors, false);
                survivors = Intersect(survivors, ldocs[k]);
              }
              from = to;
              if (from < run.size() && run[from] > ldocs[0].back()) break;
            }
            for (size_t k = 0; k < lists.size(); ++k) {
              ExpectSameCost(costs[k + 1], charges[k].cost());
            }
          }
          // Costs come from window and block sizes alone: the same at
          // every dispatch level.
          if (level0.empty()) level0 = costs;
          for (size_t k = 0; k < costs.size(); ++k) {
            ExpectSameCost(costs[k], level0[k]);
          }

          // A budget stops the chain on a docid prefix of the answer: the
          // answer's docids up to the last paid candidate.
          const uint64_t budget = ticks / 2;
          const std::vector<DocId> paid =
              PaidPrefix(*by_size[0], *by_size[1], budget);
          std::vector<DocId> prefix;
          for (DocId d : want) {
            if (!paid.empty() && d <= paid.back()) prefix.push_back(d);
          }
          ScanGuard bounded(0, budget);
          Conjunction limited(refs, &bounded);
          std::vector<DocId> part;
          while (limited.Next(part)) {
          }
          EXPECT_TRUE(limited.aborted());
          EXPECT_EQ(bounded.ticks(), budget + 1);
          EXPECT_EQ(part, prefix);
          EXPECT_EQ(Conjunction(refs).Count(), want.size());

          // The run's tfs read 1; the lists' are their own.
          Conjunction with_tfs(refs);
          std::vector<DocId> window;
          std::vector<uint32_t> tfs;
          for (; with_tfs.Next(window); window.clear()) {
            tfs.resize(window.size());
            for (size_t i = 0; i < refs.size(); ++i) {
              with_tfs.Tfs(i, window, tfs.data());
              for (size_t j = 0; j < window.size(); ++j) {
                EXPECT_EQ(tfs[j], i == 0 ? 1 : TfOf(window[j]));
              }
            }
          }
        }
      }
    }
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
