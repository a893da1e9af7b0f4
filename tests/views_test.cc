#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "index/inverted_index.h"
#include "stats/collector.h"
#include "storage/serializer.h"
#include "storage/snapshot.h"
#include "util/random.h"
#include "views/materialized_view.h"
#include "views/signature.h"
#include "views/size_estimator.h"
#include "views/view_builder.h"
#include "views/view_catalog.h"
#include "views/view_def.h"
#include "views/wide_table.h"

namespace csr {

/// Reaches a view's column store, and the hash-form merge that MergeFrom's
/// linear merge replaced: upsert the other view's rows into the build
/// form, then Compact.
struct MaterializedViewTestPeer {
  static void HashFormMerge(MaterializedView& view,
                            const MaterializedView& other) {
    view.Uncompact();
    other.ForEachRow(
        [&](MaterializedView::TupleKey key, MaterializedView::Row row) {
          auto [it, inserted] =
              view.rows_.try_emplace(std::move(key), std::move(row));
          if (inserted) return;
          MaterializedView::Row& mine = it->second;
          mine.count += row.count;
          mine.sum_len += row.sum_len;
          for (size_t s = 0; s < row.df.size(); ++s) mine.df[s] += row.df[s];
          for (size_t s = 0; s < row.tc.size(); ++s) mine.tc[s] += row.tc[s];
        });
    view.Compact();
  }

  static void ExpectSameStore(const MaterializedView& got,
                              const MaterializedView& want,
                              const std::string& what) {
    ASSERT_TRUE(got.compacted()) << what;
    ASSERT_TRUE(want.compacted()) << what;
    const MaterializedView::ColumnStore& g = got.store_;
    const MaterializedView::ColumnStore& w = want.store_;
    EXPECT_EQ(g.rows, w.rows) << what;
    EXPECT_EQ(g.words, w.words) << what;
    EXPECT_EQ(g.bitmaps, w.bitmaps) << what;
    EXPECT_EQ(g.buckets, w.buckets) << what;
    EXPECT_EQ(g.counts, w.counts) << what;
    EXPECT_EQ(g.sum_lens, w.sum_lens) << what;
    EXPECT_EQ(g.df, w.df) << what;
    EXPECT_EQ(g.tc, w.tc) << what;
    EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes()) << what;
  }
};

namespace {

TEST(BitSignatureTest, SetTestAndPopCount) {
  BitSignature s(130);
  EXPECT_FALSE(s.Any());
  s.Set(0);
  s.Set(64);
  s.Set(129);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(64));
  EXPECT_TRUE(s.Test(129));
  EXPECT_FALSE(s.Test(1));
  EXPECT_EQ(s.PopCount(), 3u);
  EXPECT_TRUE(s.Any());
  EXPECT_EQ(s.num_words(), 3u);
}

TEST(BitSignatureTest, ContainsAll) {
  BitSignature s(128), mask(128);
  s.Set(3);
  s.Set(70);
  s.Set(100);
  mask.Set(3);
  mask.Set(100);
  EXPECT_TRUE(s.ContainsAll(mask));
  mask.Set(5);
  EXPECT_FALSE(s.ContainsAll(mask));
}

TEST(BitSignatureTest, HashAndEquality) {
  BitSignature a(64), b(64), c(64);
  a.Set(7);
  b.Set(7);
  c.Set(8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(ViewDefinitionTest, CoversAndBitOf) {
  ViewDefinition def{TermIdSet{3, 7, 12, 20}};
  EXPECT_TRUE(def.Covers(TermIdSet{3, 12}));
  EXPECT_TRUE(def.Covers(TermIdSet{}));
  EXPECT_TRUE(def.Covers(TermIdSet{3, 7, 12, 20}));
  EXPECT_FALSE(def.Covers(TermIdSet{3, 8}));
  EXPECT_EQ(def.BitOf(3), 0);
  EXPECT_EQ(def.BitOf(20), 3);
  EXPECT_EQ(def.BitOf(8), -1);
}

/// Shared fixture: a small synthetic corpus with indexes and the view
/// plumbing.
class ViewsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusConfig cfg;
    cfg.num_docs = 3000;
    cfg.vocab_size = 1500;
    cfg.ontology_fanouts = {4, 3};
    cfg.seed = 17;
    auto r = CorpusGenerator(cfg).Generate();
    ASSERT_TRUE(r.ok());
    corpus_ = std::move(r).value();

    IndexBuilder cb, pb;
    for (const Document& d : corpus_.docs) {
      ASSERT_TRUE(cb.AddDocument(d.id, d.ContentTokens()).ok());
      ASSERT_TRUE(pb.AddDocument(d.id, d.annotations).ok());
    }
    content_ = cb.Build();
    predicates_ = pb.Build();
    tracked_ = TrackedKeywords::Select(content_, /*min_df=*/30, /*cap=*/256);
    table_ = std::make_unique<DocParamTable>(
        DocParamTable::Build(content_, tracked_));
  }

  MaterializedView BuildView(const TermIdSet& k, bool track_tc = true) {
    ViewParamOptions params;
    params.track_df = true;
    params.track_tc = track_tc;
    ViewBuilder builder(&corpus_, table_.get(), params,
                        static_cast<uint32_t>(tracked_.size()));
    std::vector<ViewDefinition> defs = {ViewDefinition{k}};
    auto views = builder.BuildAll(defs);
    return std::move(views[0]);
  }

  Corpus corpus_;
  InvertedIndex content_;
  InvertedIndex predicates_;
  TrackedKeywords tracked_;
  std::unique_ptr<DocParamTable> table_;
};

TEST_F(ViewsFixture, TrackedKeywordsRespectThresholdAndCap) {
  for (TermId t : tracked_.terms()) {
    EXPECT_GE(content_.df(t), 30u);
  }
  EXPECT_LE(tracked_.size(), 256u);
  // Slots round-trip.
  for (uint32_t slot = 0; slot < tracked_.size(); ++slot) {
    EXPECT_EQ(tracked_.SlotOf(tracked_.TermAt(slot)),
              static_cast<int32_t>(slot));
  }
  EXPECT_EQ(tracked_.SlotOf(kInvalidTermId - 1), -1);
}

TEST_F(ViewsFixture, DocParamTableMatchesIndex) {
  EXPECT_EQ(table_->num_docs(), content_.num_docs());
  // Spot-check: every tracked entry of a doc matches the index's tf.
  for (DocId d = 0; d < 200; ++d) {
    EXPECT_EQ(table_->doc_length(d), content_.doc_length(d));
    for (const auto& [slot, tf] : table_->TrackedOf(d)) {
      TermId w = tracked_.TermAt(slot);
      const PostingList* l = content_.list(w);
      ASSERT_NE(l, nullptr);
      auto it = l->MakeIterator();
      it.SkipTo(d);
      ASSERT_FALSE(it.AtEnd());
      ASSERT_EQ(it.doc(), d);
      EXPECT_EQ(it.tf(), tf);
    }
  }
}

TEST_F(ViewsFixture, ViewStatsMatchStraightforward) {
  // THE core correctness property (Theorem 4.1): statistics computed from
  // a usable materialized view must equal the straightforward plan's.
  TermIdSet roots = {0, 1, 2, 3};  // the 4 top-level concepts
  MaterializedView view = BuildView(roots);

  std::vector<TermId> keywords;
  // A mix of tracked and untracked keywords.
  keywords.push_back(tracked_.TermAt(0));
  keywords.push_back(tracked_.TermAt(tracked_.size() / 2));

  std::vector<TermIdSet> contexts = {{0}, {1}, {0, 2}, {1, 2, 3}, {0, 1, 2, 3}};
  for (const TermIdSet& ctx : contexts) {
    SCOPED_TRACE("context size " + std::to_string(ctx.size()));
    ASSERT_TRUE(view.def().Covers(ctx));
    auto vr = view.ComputeStats(ctx, keywords, tracked_);
    CollectionStats exact = StraightforwardCollectionStats(
        content_, predicates_, ctx, keywords, /*compute_tc=*/true);
    EXPECT_EQ(vr.cardinality, exact.cardinality);
    EXPECT_EQ(vr.total_length, exact.total_length);
    for (size_t i = 0; i < keywords.size(); ++i) {
      ASSERT_TRUE(vr.covered[i]);
      EXPECT_EQ(vr.df[i], exact.df[i]) << "df keyword " << i;
      EXPECT_EQ(vr.tc[i], exact.tc[i]) << "tc keyword " << i;
    }
  }
}

TEST_F(ViewsFixture, UntrackedKeywordNotCovered) {
  TermIdSet roots = {0, 1};
  MaterializedView view = BuildView(roots);
  // Find a keyword that exists but is untracked.
  TermId untracked = kInvalidTermId;
  for (TermId w = 0; w < content_.num_terms(); ++w) {
    if (content_.df(w) > 0 && !tracked_.IsTracked(w)) {
      untracked = w;
      break;
    }
  }
  ASSERT_NE(untracked, kInvalidTermId);
  std::vector<TermId> keywords = {untracked};
  auto vr = view.ComputeStats(TermIdSet{0}, keywords, tracked_);
  EXPECT_FALSE(vr.covered[0]);
  // Cardinality is still exact.
  CollectionStats exact = StraightforwardCollectionStats(
      content_, predicates_, TermIdSet{0}, keywords);
  EXPECT_EQ(vr.cardinality, exact.cardinality);
}

TEST_F(ViewsFixture, NonCoveredContextReturnsZeroed) {
  MaterializedView view = BuildView(TermIdSet{0, 1});
  std::vector<TermId> keywords = {tracked_.TermAt(0)};
  auto vr = view.ComputeStats(TermIdSet{0, 2}, keywords, tracked_);
  EXPECT_EQ(vr.cardinality, 0u);
  EXPECT_FALSE(vr.covered[0]);
}

TEST_F(ViewsFixture, ViewSizeBoundedByPartitions) {
  TermIdSet roots = {0, 1, 2, 3};
  MaterializedView view = BuildView(roots);
  EXPECT_GT(view.NumTuples(), 0u);
  EXPECT_LE(view.NumTuples(), 15u);  // 2^4 - 1 non-zero signatures
  EXPECT_GT(view.StorageBytes(), 0u);
  EXPECT_EQ(view.NumParameterColumns(),
            2u + 2u * static_cast<uint32_t>(tracked_.size()));
}

TEST_F(ViewsFixture, CostCountersChargeTupleScans) {
  TermIdSet roots = {0, 1, 2, 3};
  MaterializedView view = BuildView(roots);
  std::vector<TermId> keywords = {tracked_.TermAt(0)};
  CostCounters cost;
  view.ComputeStats(TermIdSet{0}, keywords, tracked_, &cost);
  EXPECT_EQ(cost.view_tuples_scanned, view.NumTuples());
}

TEST_F(ViewsFixture, SizeEstimatorExactMatchesView) {
  TermIdSet roots = {0, 1, 2, 3};
  MaterializedView view = BuildView(roots);
  ViewSizeEstimator full(&corpus_, 1, /*sample_size=*/1u << 30);
  EXPECT_EQ(full.Exact(view.def()), view.NumTuples());
  EXPECT_EQ(full.Estimate(view.def()), view.NumTuples());
}

TEST_F(ViewsFixture, SizeEstimatorSampleIsLowerBoundAndClose) {
  ViewDefinition def{TermIdSet{0, 1, 2, 3, 4, 5, 6}};
  ViewSizeEstimator sampler(&corpus_, 2, /*sample_size=*/800);
  ViewSizeEstimator full(&corpus_, 3, /*sample_size=*/1u << 30);
  uint64_t est = sampler.Estimate(def);
  uint64_t exact = full.Exact(def);
  EXPECT_LE(est, exact);
  EXPECT_GE(est * 4, exact) << "sample estimate implausibly low";
}

TEST_F(ViewsFixture, CatalogFindsSmallestUsableView) {
  ViewParamOptions params;
  ViewBuilder builder(&corpus_, table_.get(), params,
                      static_cast<uint32_t>(tracked_.size()));
  std::vector<ViewDefinition> defs = {
      ViewDefinition{TermIdSet{0, 1, 2, 3}},
      ViewDefinition{TermIdSet{0, 1}},
      ViewDefinition{TermIdSet{2, 3}},
  };
  auto views = builder.BuildAll(defs);
  ViewCatalog catalog;
  for (auto& v : views) catalog.Add(std::move(v));

  const MaterializedView* best = catalog.FindBest(TermIdSet{0, 1});
  ASSERT_NE(best, nullptr);
  // Both {0,1,2,3} and {0,1} cover; {0,1} has fewer tuples.
  EXPECT_EQ(best->def().keyword_columns, (TermIdSet{0, 1}));

  const MaterializedView* broad = catalog.FindBest(TermIdSet{0, 2});
  ASSERT_NE(broad, nullptr);
  EXPECT_EQ(broad->def().keyword_columns, (TermIdSet{0, 1, 2, 3}));

  EXPECT_EQ(catalog.FindBest(TermIdSet{0, 999}), nullptr);
  EXPECT_EQ(catalog.size(), 3u);
  EXPECT_GT(catalog.TotalStorageBytes(), 0u);
  EXPECT_GT(catalog.TotalTuples(), 0u);
}

// -- The compacted column store against a naive oracle ----------------------
//
// Views here are built document by document (AddDocument, then Compact),
// and every statistic is checked against a sum over the documents written
// in this file, not against another engine path.

/// One synthetic document as the oracle sees it.
struct OracleDoc {
  std::vector<uint32_t> bits;  // keyword-column positions, ascending
  uint16_t year = 0;
  uint32_t length = 0;
  std::vector<std::pair<uint32_t, uint32_t>> tracked;  // (slot, tf)
};

constexpr TermId kColumnTerm = 1000;  // keyword column c is term 1000 + c
constexpr TermId kSlotTerm = 50000;   // tracked slot s is term 50000 + s
constexpr uint32_t kSlots = 24;

TrackedKeywords OracleTracked() {
  std::vector<TermId> terms;
  for (uint32_t s = 0; s < kSlots; ++s) terms.push_back(kSlotTerm + s);
  return TrackedKeywords::FromTerms(std::move(terms));
}

ViewDefinition OracleDef(uint32_t columns) {
  TermIdSet k;
  for (uint32_t c = 0; c < columns; ++c) k.push_back(kColumnTerm + c);
  return ViewDefinition{k};
}

/// Columns 0-3 are common, the rest rare, and (with two or more columns)
/// the last column is never set, so contexts holding it match no row.
std::vector<OracleDoc> RandomDocs(uint32_t columns, size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<OracleDoc> docs(n);
  for (OracleDoc& d : docs) {
    uint32_t live = columns >= 2 ? columns - 1 : columns;
    for (uint32_t c = 0; c < live; ++c) {
      if (rng.NextBounded(100) < (c < 4 ? 50u : 8u)) d.bits.push_back(c);
    }
    d.year = static_cast<uint16_t>(1980 + rng.NextBounded(31));
    d.length = 1 + static_cast<uint32_t>(rng.NextBounded(200));
    for (uint32_t s = 0; s < kSlots; ++s) {
      if (rng.NextBounded(10) < 3) {
        d.tracked.emplace_back(s, 1 + static_cast<uint32_t>(rng.NextBounded(5)));
      }
    }
  }
  return docs;
}

void AddDocs(MaterializedView& view, uint32_t columns,
             std::span<const OracleDoc> docs) {
  for (const OracleDoc& d : docs) {
    BitSignature sig(columns);
    for (uint32_t b : d.bits) sig.Set(b);
    view.AddDocument(sig, d.length, d.tracked, d.year);
  }
}

MaterializedView OracleView(uint32_t columns, ViewParamOptions options,
                            std::span<const OracleDoc> docs) {
  MaterializedView view(OracleDef(columns), options, kSlots);
  AddDocs(view, columns, docs);
  view.Compact();
  return view;
}

struct NaiveStats {
  uint64_t cardinality = 0;
  uint64_t total_length = 0;
  std::vector<uint64_t> df;
  std::vector<uint64_t> tc;
};

/// S_c(D_P) summed document by document.
NaiveStats Naive(std::span<const OracleDoc> docs,
                 const std::vector<uint32_t>& context_bits,
                 const std::vector<TermId>& keywords, YearRange range) {
  NaiveStats out;
  out.df.assign(keywords.size(), 0);
  out.tc.assign(keywords.size(), 0);
  for (const OracleDoc& d : docs) {
    if (range.active() && !range.Contains(d.year)) continue;
    bool all = true;
    for (uint32_t b : context_bits) {
      all = all && std::find(d.bits.begin(), d.bits.end(), b) != d.bits.end();
    }
    if (!all) continue;
    out.cardinality++;
    out.total_length += d.length;
    for (size_t i = 0; i < keywords.size(); ++i) {
      for (const auto& [slot, tf] : d.tracked) {
        if (kSlotTerm + slot != keywords[i]) continue;
        out.df[i]++;
        out.tc[i] += tf;
      }
    }
  }
  return out;
}

/// Contexts of 1-4 predicates over `columns` columns, as column positions.
std::vector<std::vector<uint32_t>> OracleContexts(uint32_t columns,
                                                  uint64_t seed) {
  std::vector<std::vector<uint32_t>> out = {{0}, {columns - 1}};
  if (columns >= 4) {
    out.push_back({0, 1});
    out.push_back({0, 1, 2, 3});
    out.push_back({1, columns - 1});  // holds the never-set column
  }
  SplitMix64 rng(seed);
  for (int i = 0; i < 8; ++i) {
    std::vector<uint32_t> ctx;
    uint32_t size = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    for (uint32_t j = 0; j < size; ++j) {
      ctx.push_back(static_cast<uint32_t>(rng.NextBounded(columns)));
    }
    std::sort(ctx.begin(), ctx.end());
    ctx.erase(std::unique(ctx.begin(), ctx.end()), ctx.end());
    out.push_back(std::move(ctx));
  }
  return out;
}

/// Checks every context of OracleContexts under `range` against Naive.
void ExpectMatchesOracle(const MaterializedView& view, uint32_t columns,
                         std::span<const OracleDoc> docs, YearRange range,
                         const std::string& what) {
  ASSERT_TRUE(view.compacted()) << what;
  const TrackedKeywords tracked = OracleTracked();
  // Three tracked keywords, one untracked, one that is a view column.
  const std::vector<TermId> keywords = {kSlotTerm, kSlotTerm + 5,
                                        kSlotTerm + kSlots - 1,
                                        kSlotTerm + kSlots + 7, kColumnTerm};
  const bool track_tc = view.options().track_tc;
  uint64_t matched = 0;
  for (const std::vector<uint32_t>& bits : OracleContexts(columns, columns)) {
    TermIdSet context;
    for (uint32_t b : bits) context.push_back(kColumnTerm + b);
    const std::string where = what + " context of " +
                              std::to_string(bits.size()) + " from column " +
                              std::to_string(bits[0]);
    CostCounters cost;
    auto got = view.ComputeStats(context, keywords, tracked, &cost, range);
    NaiveStats want = Naive(docs, bits, keywords, range);
    ASSERT_TRUE(got.range_answerable) << where;
    EXPECT_EQ(cost.view_tuples_scanned, view.NumTuples()) << where;
    EXPECT_EQ(got.cardinality, want.cardinality) << where;
    EXPECT_EQ(got.total_length, want.total_length) << where;
    for (size_t i = 0; i < keywords.size(); ++i) {
      const bool is_tracked = i < 3;
      EXPECT_EQ(got.covered[i], is_tracked) << where << " keyword " << i;
      if (!is_tracked) continue;
      EXPECT_EQ(got.df[i], want.df[i]) << where << " keyword " << i;
      EXPECT_EQ(got.tc[i], track_tc ? want.tc[i] : 0u)
          << where << " keyword " << i;
    }
    matched += want.cardinality;
  }
  // Non-vacuous unless no document can match.
  if (!docs.empty() && (!range.active() || range.min_year <= 2010)) {
    EXPECT_GT(matched, 0u) << what;
  }
}

TEST(ViewColumnStoreTest, MatchesANaiveSumOverDocuments) {
  for (uint32_t columns : {1u, 9u, 53u, 64u, 65u, 130u}) {
    for (bool track_tc : {false, true}) {
      for (uint16_t bucket : {uint16_t{0}, uint16_t{5}}) {
        const std::string what = std::to_string(columns) + " columns, tc " +
                                 std::to_string(track_tc) + ", bucket " +
                                 std::to_string(bucket);
        ViewParamOptions options;
        options.track_tc = track_tc;
        options.year_bucket_size = bucket;
        const std::vector<OracleDoc> docs =
            RandomDocs(columns, 700, columns * 4 + track_tc * 2 + bucket);
        const MaterializedView view = OracleView(columns, options, docs);
        ASSERT_GT(view.NumTuples(), 0u) << what;

        ExpectMatchesOracle(view, columns, docs, {}, what);
        if (bucket == 0) {
          // No time dimension: any active range is unanswerable.
          auto r = view.ComputeStats(TermIdSet{kColumnTerm}, {}, {}, nullptr,
                                     YearRange{1990, 1994});
          EXPECT_FALSE(r.range_answerable) << what;
          continue;
        }
        // Aligned ranges: the first bucket, a middle run, the last bucket
        // (a partial one), and one past every document.
        for (YearRange range :
             {YearRange{1980, 1984}, YearRange{1990, 2004},
              YearRange{2010, 2014}, YearRange{2020, 2029}}) {
          ExpectMatchesOracle(view, columns, docs, range,
                              what + " years " +
                                  std::to_string(range.min_year));
        }
        // Unaligned ranges are refused, never approximated.
        for (YearRange range : {YearRange{1991, 1999}, YearRange{1990, 1998}}) {
          auto r = view.ComputeStats(TermIdSet{kColumnTerm}, {}, {}, nullptr,
                                     range);
          EXPECT_FALSE(r.range_answerable) << what;
          EXPECT_EQ(r.cardinality, 0u) << what;
        }
      }
    }
  }
}

TEST(ViewColumnStoreTest, EmptyViewAnswersZero) {
  for (uint32_t columns : {1u, 65u}) {
    ViewParamOptions options;
    options.track_tc = true;
    options.year_bucket_size = 10;
    MaterializedView view(OracleDef(columns), options, kSlots);
    ASSERT_TRUE(view.compacted());
    view.Compact();
    EXPECT_EQ(view.NumTuples(), 0u);
    EXPECT_EQ(view.MemoryBytes(), 0u);
    ExpectMatchesOracle(view, columns, {}, {}, "empty");
    ExpectMatchesOracle(view, columns, {}, YearRange{1990, 1999}, "empty");
  }
}

TEST(ViewColumnStoreTest, MergeCloneAndRebuildKeepTheAnswers) {
  for (uint32_t columns : {9u, 65u, 130u}) {
    const std::string what = std::to_string(columns) + " columns";
    ViewParamOptions options;
    options.track_tc = true;
    options.year_bucket_size = 5;
    const std::vector<OracleDoc> docs = RandomDocs(columns, 900, columns);
    const std::span<const OracleDoc> all(docs);
    const MaterializedView scratch = OracleView(columns, options, all);

    // MergeFrom of two halves, then Compact (MergeFrom compacts itself).
    MaterializedView merged = OracleView(columns, options, all.first(400));
    merged.MergeFrom(OracleView(columns, options, all.subspan(400)));
    merged.Compact();
    ExpectMatchesOracle(merged, columns, docs, {}, what + " merged");
    ExpectMatchesOracle(merged, columns, docs, YearRange{1995, 2004},
                        what + " merged, years");
    EXPECT_EQ(merged.NumTuples(), scratch.NumTuples()) << what;
    EXPECT_EQ(merged.MemoryBytes(), scratch.MemoryBytes()) << what;

    // A clone answers alike and is independent of its source.
    MaterializedView clone = merged.Clone();
    ExpectMatchesOracle(clone, columns, docs, {}, what + " clone");
    merged.MergeFrom(OracleView(columns, options, all.first(100)));
    ExpectMatchesOracle(clone, columns, docs, {}, what + " clone after merge");

    // Documents added to a compacted view go through the build form.
    MaterializedView grown = OracleView(columns, options, all.first(300));
    AddDocs(grown, columns, all.subspan(300));
    EXPECT_FALSE(grown.compacted());
    grown.Compact();
    ExpectMatchesOracle(grown, columns, docs, YearRange{1980, 1989},
                        what + " grown");
    EXPECT_EQ(grown.MemoryBytes(), scratch.MemoryBytes()) << what;
  }
}

// MergeFrom merges the two sorted column stores in one pass; the store it
// writes is the one the hash-form merge compacted to, field by field.
TEST(ViewColumnStoreTest, LinearMergeWritesTheHashFormMergesStore) {
  for (uint32_t columns : {9u, 65u, 130u}) {
    for (bool track_tc : {false, true}) {
      for (uint16_t bucket : {uint16_t{0}, uint16_t{5}}) {
        ViewParamOptions options;
        options.track_tc = track_tc;
        options.year_bucket_size = bucket;
        const std::string what = std::to_string(columns) + " columns, tc " +
                                 std::to_string(track_tc) + ", bucket " +
                                 std::to_string(bucket);
        const std::vector<OracleDoc> docs = RandomDocs(columns, 900, columns);
        const std::span<const OracleDoc> all(docs);
        // Disjoint halves, an overlapping part, and an empty side.
        const std::pair<std::span<const OracleDoc>, std::span<const OracleDoc>>
            cases[] = {{all.first(400), all.subspan(400)},
                       {all.first(600), all.first(150)},
                       {all.first(300), {}},
                       {{}, all.subspan(700)}};
        for (const auto& [base, delta] : cases) {
          MaterializedView merged = OracleView(columns, options, base);
          merged.MergeFrom(OracleView(columns, options, delta));
          MaterializedView hashed = OracleView(columns, options, base);
          MaterializedViewTestPeer::HashFormMerge(
              hashed, OracleView(columns, options, delta));
          MaterializedViewTestPeer::ExpectSameStore(
              merged, hashed,
              what + ", " + std::to_string(base.size()) + " + " +
                  std::to_string(delta.size()));
        }
      }
    }
  }
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// A view's views-v3 frame, encoded row by row from the documents: rows
/// keyed and ordered by (bucket, signature words).
std::string RowByRowFrame(uint32_t columns, ViewParamOptions options,
                          std::span<const OracleDoc> docs) {
  struct Agg {
    uint64_t count = 0;
    uint64_t sum_len = 0;
    std::vector<uint32_t> df = std::vector<uint32_t>(kSlots, 0);
    std::vector<uint32_t> tc = std::vector<uint32_t>(kSlots, 0);
  };
  std::map<std::pair<uint16_t, std::vector<uint64_t>>, Agg> rows;
  for (const OracleDoc& d : docs) {
    std::vector<uint64_t> words((columns + 63) / 64, 0);
    for (uint32_t b : d.bits) words[b / 64] |= 1ULL << (b % 64);
    uint16_t bucket = options.year_bucket_size == 0
                          ? 0
                          : d.year / options.year_bucket_size;
    Agg& agg = rows[{bucket, words}];
    agg.count++;
    agg.sum_len += d.length;
    for (const auto& [slot, tf] : d.tracked) {
      agg.df[slot]++;
      agg.tc[slot] += tf;
    }
  }
  BinaryWriter w;
  w.PutVarintVector(OracleDef(columns).keyword_columns);
  w.PutU8(options.track_df);
  w.PutU8(options.track_tc);
  w.PutVarint(options.year_bucket_size);
  w.PutU32(kSlots);
  w.PutVarint(rows.size());
  for (const auto& [key, agg] : rows) {
    w.PutVarint(key.first);
    w.PutVarintVector(key.second);
    w.PutVarint(agg.count);
    w.PutVarint(agg.sum_len);
    w.PutVarintVector(options.track_df ? agg.df : std::vector<uint32_t>{});
    w.PutVarintVector(options.track_tc ? agg.tc : std::vector<uint32_t>{});
  }
  return w.buffer();
}

TEST(ViewColumnStoreTest, SnapshotFramesKeepTheRowFormat) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("csr_views_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  struct Case {
    uint32_t columns;
    bool track_tc;
    uint16_t bucket;
  };
  const std::vector<Case> cases = {{1, false, 0}, {9, true, 0},
                                   {64, false, 5}, {130, true, 5}};
  std::vector<std::vector<OracleDoc>> docs;
  ViewCatalog catalog;
  for (const Case& c : cases) {
    ViewParamOptions options;
    options.track_tc = c.track_tc;
    options.year_bucket_size = c.bucket;
    docs.push_back(RandomDocs(c.columns, 500, c.columns + 7));
    catalog.Add(OracleView(c.columns, options, docs.back()));
  }
  const std::string first = (dir / "views1.csr").string();
  const std::string second = (dir / "views2.csr").string();
  const TrackedKeywords tracked = OracleTracked();
  ASSERT_TRUE(SaveViews(catalog, tracked, first, 500).ok());
  auto loaded = LoadViews(first);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->catalog.size(), cases.size());
  ASSERT_TRUE(SaveViews(loaded->catalog, tracked, second, 500).ok());
  const std::string bytes = ReadBytes(first);
  EXPECT_EQ(bytes, ReadBytes(second)) << "Save -> Load -> Save must be stable";

  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string what = std::to_string(cases[i].columns) + " columns";
    const MaterializedView& view = loaded->catalog.view(i);
    ExpectMatchesOracle(view, cases[i].columns, docs[i], {}, what);
    EXPECT_EQ(view.MemoryBytes(), catalog.view(i).MemoryBytes()) << what;
    const std::string frame =
        RowByRowFrame(cases[i].columns, view.options(), docs[i]);
    EXPECT_NE(bytes.find(frame), std::string::npos)
        << what << ": the frame differs from its row-by-row encoding";
  }
  std::filesystem::remove_all(dir);
}

/// A views-v3 frame of one row over a 9-column view tracking df.
std::string OneRowFrame(uint64_t signature, size_t df_cells) {
  BinaryWriter w;
  w.PutVarintVector(OracleDef(9).keyword_columns);
  w.PutU8(1);  // track_df
  w.PutU8(0);  // track_tc
  w.PutVarint(0);
  w.PutU32(kSlots);
  w.PutVarint(1);
  w.PutVarint(0);
  w.PutVarintVector(std::vector<uint64_t>{signature});
  w.PutVarint(3);
  w.PutVarint(30);
  w.PutVarintVector(std::vector<uint32_t>(df_cells, 1));
  w.PutVarintVector(std::vector<uint32_t>{});
  return w.buffer();
}

TEST(ViewColumnStoreTest, MalformedRowsAreQuarantinedNotCompacted) {
  // Frames whose checksums hold but whose rows do not fit the view: a
  // signature bit past the last column, and a df column one slot short.
  // Compacting either would write or read outside the store.
  const std::vector<std::string> frames = {
      OneRowFrame(0b101, kSlots), OneRowFrame((1ULL << 9) | 1, kSlots),
      OneRowFrame(0b1, kSlots - 1)};
  BinaryWriter header;
  header.PutU32(3);      // views format version
  header.PutVarint(10);  // base docs
  header.PutVarintVector(OracleTracked().terms());
  header.PutVarint(frames.size());
  for (const std::string& frame : frames) {
    header.PutVarint(frame.size());
    header.PutU64(Fnv1a(frame));
    header.PutVarintVector(OracleDef(9).keyword_columns);
  }
  BinaryWriter w;
  w.PutVarint(header.size());
  w.PutU64(Fnv1a(header.buffer()));
  w.PutRaw(header.buffer());
  for (const std::string& frame : frames) w.PutRaw(frame);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("csr_views_malformed_" + std::to_string(::getpid()) + ".csr");
  ASSERT_TRUE(w.WriteFile(path.string(), 0x43535256).ok());  // "CSRV"

  auto loaded = LoadViews(path.string());
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->catalog.size(), 1u);
  EXPECT_EQ(loaded->catalog.view(0).NumTuples(), 1u);
  ASSERT_EQ(loaded->catalog.quarantined().size(), 2u);
  EXPECT_NE(loaded->catalog.quarantined()[0].reason.find("signature"),
            std::string::npos);
  EXPECT_NE(loaded->catalog.quarantined()[1].reason.find("parameter"),
            std::string::npos);
}

}  // namespace
}  // namespace csr
