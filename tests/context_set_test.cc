// ContextSet and the straightforward collector against a brute-force scan
// of the Corpus documents. The oracle never touches an index: it walks
// every document's annotations, year, and content tokens directly, so a
// bug shared by the set build, the 2-way df join, and the predicate-list
// join would still show.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "index/codec.h"
#include "index/intersection.h"
#include "index/inverted_index.h"
#include "stats/collector.h"
#include "stats/context_set.h"
#include "util/fault.h"
#include "util/random.h"

namespace csr {
namespace {

Corpus TestCorpus() {
  CorpusConfig cfg;
  cfg.num_docs = 1800;
  cfg.vocab_size = 1200;
  cfg.ontology_fanouts = {4, 3};
  cfg.seed = 4242;
  return CorpusGenerator(cfg).Generate().value();
}

/// One index part over the docid range [base, base + n): content and
/// predicate indexes with part-local docids, plus the per-document years.
struct Part {
  DocId base = 0;
  InvertedIndex content;
  InvertedIndex predicate;
  std::vector<uint16_t> years;
};

std::vector<std::unique_ptr<Part>> BuildParts(const Corpus& corpus,
                                              std::vector<DocId> cuts,
                                              bool compressed) {
  std::vector<std::unique_ptr<Part>> parts;
  cuts.push_back(static_cast<DocId>(corpus.docs.size()));
  DocId begin = 0;
  for (DocId end : cuts) {
    auto part = std::make_unique<Part>();
    part->base = begin;
    IndexBuilder cb, pb;
    for (DocId d = begin; d < end; ++d) {
      const Document& doc = corpus.docs[d];
      std::vector<TermId> tokens = doc.ContentTokens();
      EXPECT_TRUE(cb.AddDocument(d - begin, tokens).ok());
      EXPECT_TRUE(pb.AddDocument(d - begin, doc.annotations).ok());
      part->years.push_back(doc.year);
    }
    part->content = cb.Build();
    part->predicate = pb.Build();
    if (compressed) {
      part->content.Compact();
      part->predicate.Compact();
    }
    parts.push_back(std::move(part));
    begin = end;
  }
  return parts;
}

/// The oracle: D_P, |D_P|, len(D_P), df and tc by scanning documents.
struct Expected {
  std::vector<DocId> docs;  // global docids
  uint64_t total_length = 0;
  std::vector<uint64_t> df, tc;
};

Expected BruteForce(const Corpus& corpus, const std::vector<TermId>& context,
                    const std::vector<TermId>& keywords, YearRange range) {
  Expected e;
  e.df.assign(keywords.size(), 0);
  e.tc.assign(keywords.size(), 0);
  for (DocId d = 0; d < corpus.docs.size(); ++d) {
    const Document& doc = corpus.docs[d];
    bool in = !context.empty() && range.Contains(doc.year);
    for (TermId m : context) {
      in = in && std::binary_search(doc.annotations.begin(),
                                    doc.annotations.end(), m);
    }
    if (!in) continue;
    e.docs.push_back(d);
    e.total_length += doc.Length();
    std::vector<TermId> tokens = doc.ContentTokens();
    for (size_t i = 0; i < keywords.size(); ++i) {
      uint64_t tf = std::count(tokens.begin(), tokens.end(), keywords[i]);
      e.df[i] += tf > 0 ? 1 : 0;
      e.tc[i] += tf;
    }
  }
  return e;
}

/// A random query: 1-4 predicates taken from one random document's
/// annotations (so most contexts are non-empty), sometimes plus an unknown
/// predicate; 1-4 keywords from another random document's tokens,
/// sometimes plus an unknown keyword; a year range half the time.
struct RandomQuery {
  std::vector<TermId> context;
  std::vector<TermId> keywords;
  YearRange range;
};

RandomQuery DrawQuery(SplitMix64& rng, const Corpus& corpus) {
  const CorpusConfig& cc = corpus.config;
  auto pick_doc = [&]() -> const Document& {
    return corpus.docs[rng.NextBounded(corpus.docs.size())];
  };
  RandomQuery q;
  const TermIdSet& annotations = pick_doc().annotations;
  const uint64_t npred = 1 + rng.NextBounded(4);
  for (uint64_t i = 0; i < npred && !annotations.empty(); ++i) {
    q.context.push_back(annotations[rng.NextBounded(annotations.size())]);
  }
  if (rng.NextBounded(8) == 0) q.context.push_back(900000);
  std::sort(q.context.begin(), q.context.end());
  q.context.erase(std::unique(q.context.begin(), q.context.end()),
                  q.context.end());
  std::vector<TermId> tokens = pick_doc().ContentTokens();
  const uint64_t nkw = 1 + rng.NextBounded(4);
  for (uint64_t i = 0; i < nkw && !tokens.empty(); ++i) {
    q.keywords.push_back(tokens[rng.NextBounded(tokens.size())]);
  }
  if (rng.NextBounded(6) == 0) q.keywords.push_back(cc.vocab_size + 17);
  std::sort(q.keywords.begin(), q.keywords.end());
  q.keywords.erase(std::unique(q.keywords.begin(), q.keywords.end()),
                   q.keywords.end());
  if (rng.NextBounded(2) == 0) {
    const uint64_t span = cc.year_max - cc.year_min + 1;
    const uint16_t lo =
        static_cast<uint16_t>(cc.year_min + rng.NextBounded(span));
    const uint16_t hi = static_cast<uint16_t>(
        lo + rng.NextBounded(cc.year_max - lo + 1));
    q.range = YearRange{lo, hi};
  }
  return q;
}

struct Layout {
  const char* name;
  std::vector<DocId> cuts;
  bool compressed;
};

class ContextSetDifferentialTest : public ::testing::TestWithParam<Layout> {};

TEST_P(ContextSetDifferentialTest, MatchesDocumentScan) {
  const Corpus corpus = TestCorpus();
  const Layout& layout = GetParam();
  auto parts = BuildParts(corpus, layout.cuts, layout.compressed);
  SplitMix64 rng(0xC0FFEEULL + layout.cuts.size() * 2 + layout.compressed);

  size_t nonempty = 0;
  for (int round = 0; round < 60; ++round) {
    RandomQuery q = DrawQuery(rng, corpus);
    SCOPED_TRACE("round " + std::to_string(round));
    Expected want = BruteForce(corpus, q.context, q.keywords, q.range);
    if (!want.docs.empty()) ++nonempty;

    std::vector<DocId> got_docs;
    uint64_t got_size = 0, got_len = 0;
    std::vector<uint64_t> collector_df(q.keywords.size(), 0);
    std::vector<uint64_t> collector_tc(q.keywords.size(), 0);
    std::vector<uint64_t> set_df(q.keywords.size(), 0);
    std::vector<uint64_t> set_tc(q.keywords.size(), 0);
    std::vector<uint64_t> lists_df(q.keywords.size(), 0);
    std::vector<uint64_t> lists_tc(q.keywords.size(), 0);
    for (const auto& part : parts) {
      CostCounters cost;
      ContextSet set = ContextSet::Build(part->content, part->predicate,
                                         q.context, &cost, part->years,
                                         q.range);
      ASSERT_TRUE(set.complete());
      EXPECT_EQ(cost.aggregation_entries, set.Size());
      got_size += set.Size();
      got_len += set.total_length();
      for (DocId d : set.docs()) got_docs.push_back(part->base + d);
      if (set.Size() > 0) {
        // The members join as a docid run whose tfs read 1.
        const PostingRef lists[] = {set.ref(nullptr)};
        Conjunction conj(lists);
        std::vector<DocId> members;
        while (conj.Next(members)) {
        }
        EXPECT_EQ(members, set.docs());
        std::vector<uint32_t> tfs(members.size());
        conj.Tfs(0, members, tfs.data());
        for (uint32_t tf : tfs) EXPECT_EQ(tf, 1u);
      }
      for (DocId d = 0; d < part->years.size(); ++d) {
        EXPECT_EQ(set.Contains(d), std::binary_search(want.docs.begin(),
                                                      want.docs.end(),
                                                      part->base + d));
      }

      ContextSet kept;
      CollectionStats s = StraightforwardCollectionStats(
          part->content, part->predicate, q.context, q.keywords,
          /*compute_tc=*/true, nullptr, part->years, q.range, nullptr, {},
          &kept);
      EXPECT_EQ(s.cardinality, set.Size());
      EXPECT_EQ(s.total_length, set.total_length());
      EXPECT_EQ(kept.Size(), set.Size());
      for (size_t i = 0; i < q.keywords.size(); ++i) {
        collector_df[i] += s.df[i];
        collector_tc[i] += s.tc[i];
        KeywordCounts with_set = set.IntersectWith(
            part->content.ref(q.keywords[i], nullptr), true);
        set_df[i] += with_set.df;
        set_tc[i] += with_set.tc;
        KeywordCounts with_lists = CountKeywordInContext(
            part->content, part->predicate, q.context, q.keywords[i], true,
            nullptr, part->years, q.range, nullptr);
        lists_df[i] += with_lists.df;
        lists_tc[i] += with_lists.tc;
      }
    }
    EXPECT_EQ(got_docs, want.docs);
    EXPECT_EQ(got_size, want.docs.size());
    EXPECT_EQ(got_len, want.total_length);
    EXPECT_EQ(collector_df, want.df);
    EXPECT_EQ(collector_tc, want.tc);
    EXPECT_EQ(set_df, want.df);
    EXPECT_EQ(set_tc, want.tc);
    EXPECT_EQ(lists_df, want.df);
    EXPECT_EQ(lists_tc, want.tc);
  }
  // The draw must exercise real contexts, not only empty ones.
  EXPECT_GT(nonempty, 20u);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ContextSetDifferentialTest,
    ::testing::Values(Layout{"plain_single", {}, false},
                      Layout{"compressed_single", {}, true},
                      Layout{"plain_segments", {500, 1100, 1500}, false},
                      Layout{"compressed_segments", {700, 1300}, true}),
    [](const ::testing::TestParamInfo<Layout>& info) {
      return std::string(info.param.name);
    });

TEST(ContextSetTest, EmptyAndUnknownContextsAreEmptyAndComplete) {
  const Corpus corpus = TestCorpus();
  auto parts = BuildParts(corpus, {}, false);
  const Part& p = *parts[0];
  ContextSet none = ContextSet::Build(p.content, p.predicate, {});
  EXPECT_EQ(none.Size(), 0u);
  EXPECT_TRUE(none.complete());
  EXPECT_TRUE(none.docs().empty());
  std::vector<TermId> unknown = {0, 900000};
  ContextSet empty = ContextSet::Build(p.content, p.predicate, unknown);
  EXPECT_EQ(empty.Size(), 0u);
  EXPECT_EQ(empty.total_length(), 0u);
  EXPECT_TRUE(empty.complete());
  EXPECT_FALSE(empty.Contains(0));
  KeywordCounts c = empty.IntersectWith(p.content.ref(1), true);
  EXPECT_EQ(c.df, 0u);
  EXPECT_EQ(c.tc, 0u);
}

TEST(ContextSetTest, TrippedGuardLeavesAnIncompleteSet) {
  const Corpus corpus = TestCorpus();
  auto parts = BuildParts(corpus, {}, true);
  const Part& p = *parts[0];
  std::vector<TermId> context = {0};
  ContextSet full = ContextSet::Build(p.content, p.predicate, context);
  ASSERT_GT(full.Size(), 10u);
  ScanGuard guard(/*deadline_ms=*/0, /*posting_budget=*/5);
  ContextSet partial =
      ContextSet::Build(p.content, p.predicate, context, nullptr, {}, {},
                        &guard);
  EXPECT_TRUE(guard.tripped());
  EXPECT_FALSE(partial.complete());
  EXPECT_LT(partial.Size(), full.Size());
}

// The 2-way join ticks the guard once per docid of the shorter side up to
// the longer side's last docid, whichever representation backs L_w: the
// block walk over a compressed list (bitmap blocks probed unexpanded) and
// the gallop over a plain list must agree on df, tc, and the tick count,
// so a posting budget trips at the same point in both.
TEST(ContextSetTest, JoinTicksAndCountsMatchAcrossRepresentations) {
  const Corpus corpus = TestCorpus();
  auto plain = BuildParts(corpus, {}, false);
  const Part& p = *plain[0];
  auto packed_parts = BuildParts(corpus, {}, true);
  const InvertedIndex& packed = packed_parts[0]->content;
  auto bitmap_parts = BuildParts(corpus, {}, false);
  bitmap_parts[0]->content.Compact(0, CodecPolicy::kBitmapPreferred);
  const InvertedIndex& bitmap = bitmap_parts[0]->content;
  SplitMix64 rng(99);
  size_t keyword_drives = 0;
  size_t set_drives = 0;
  for (int round = 0; round < 150; ++round) {
    RandomQuery q = DrawQuery(rng, corpus);
    // Frequent keywords too, so the keyword list is often the longer side
    // and dense enough for bitmap blocks.
    q.keywords.push_back(static_cast<TermId>(rng.NextBounded(8)));
    ContextSet set = ContextSet::Build(p.content, p.predicate, q.context,
                                       nullptr, p.years, q.range);
    if (set.Size() == 0) continue;
    for (TermId w : q.keywords) {
      if (p.content.df(w) == 0) continue;
      (set.Size() <= p.content.df(w) ? set_drives : keyword_drives)++;
      for (bool with_tc : {false, true}) {
        ScanGuard g_plain(0, 0);
        KeywordCounts want =
            set.IntersectWith(p.content.ref(w), with_tc, &g_plain);
        for (const InvertedIndex* index : {&packed, &bitmap}) {
          ScanGuard g(0, 0);
          KeywordCounts got = set.IntersectWith(index->ref(w), with_tc, &g);
          EXPECT_EQ(got.df, want.df) << "keyword " << w;
          if (with_tc) {
            EXPECT_EQ(got.tc, want.tc) << "keyword " << w;
          }
          EXPECT_EQ(g.ticks(), g_plain.ticks()) << "keyword " << w;
        }
        // A budget below the join's ticks trips both representations.
        if (g_plain.ticks() > 1) {
          const uint64_t budget = g_plain.ticks() / 2;
          ScanGuard t_plain(0, budget);
          ScanGuard t_packed(0, budget);
          set.IntersectWith(p.content.ref(w), with_tc, &t_plain);
          set.IntersectWith(bitmap.ref(w), with_tc, &t_packed);
          EXPECT_TRUE(t_plain.tripped());
          EXPECT_TRUE(t_packed.tripped());
          EXPECT_EQ(t_plain.ticks(), t_packed.ticks());
        }
      }
    }
  }
  EXPECT_GT(set_drives, 20u);
  EXPECT_GT(keyword_drives, 20u);
}

// D_P builds tick by one rule whatever represents the predicate lists:
// a walk ticks once per posting, and m >= 2 lists tick by the join tick
// rule (index/codec.h) — the block-pairwise kernel and block-walk
// semijoins over compressed lists, the gallop joins over plain ones. So
// plain, kAuto and kBitmapPreferred lists must agree on |D_P|, len(D_P)
// and ticks(), and a budget or a one-shot fault must stop every build on
// the same tick.
// The df join takes the keyword's list as a PostingRef, which decodes
// nothing by itself (a PostingCursor decodes its list's first block when
// it is made). Over a set that drives in one window, with FOR blocks only,
// the join decodes exactly the blocks a two-list Conjunction over the same
// refs decodes: the blocks the members fall in, and never block 0, which
// no member reaches.
TEST(ContextSetTest, JoinDecodesNoBlockBeyondTheConjunction) {
  IndexBuilder content_builder, predicate_builder;
  for (DocId d = 0; d < 30000; ++d) {
    std::vector<TermId> tokens;
    if (d % 3 == 0) tokens.push_back(1);
    std::vector<TermId> annotations;
    if (d >= 20000 && (d - 20000) % 7 == 0 && d < 20000 + 7 * 500) {
      annotations.push_back(0);
    }
    ASSERT_TRUE(content_builder.AddDocument(d, tokens).ok());
    ASSERT_TRUE(predicate_builder.AddDocument(d, annotations).ok());
  }
  InvertedIndex content = content_builder.Build();
  content.Compact(0, CodecPolicy::kForOnly);
  const InvertedIndex predicate = predicate_builder.Build();
  const TermId context[] = {0};
  const ContextSet set = ContextSet::Build(content, predicate, context);
  ASSERT_EQ(set.Size(), 500u);
  const PostingRef keyword = content.ref(1);
  ASSERT_NE(keyword.packed, nullptr);
  ASSERT_LE(set.Size(), Conjunction::kWindow);

  auto decoded = [] { return SnapshotDecodeTallies().blocks_decoded; };
  uint64_t before = decoded();
  const KeywordCounts got = set.IntersectWith(keyword, /*with_tc=*/false);
  const uint64_t join_blocks = decoded() - before;

  before = decoded();
  const PostingRef lists[] = {set.ref(nullptr), keyword};
  const uint64_t want = Conjunction(lists).Count();
  const uint64_t conj_blocks = decoded() - before;

  // The members 20000 + 7k with k ≡ 1 (mod 3) are multiples of 3.
  EXPECT_EQ(got.df, want);
  EXPECT_EQ(got.df, 167u);
  EXPECT_GT(join_blocks, 0u);
  EXPECT_EQ(join_blocks, conj_blocks);

  // What a cursor would have added: its first block, decoded on creation.
  before = decoded();
  const PostingCursor cursor = content.cursor(1);
  EXPECT_EQ(decoded() - before, 1u);
}

TEST(ContextSetTest, BuildTicksMatchAcrossRepresentations) {
  const Corpus corpus = TestCorpus();
  const CorpusConfig& cc = corpus.config;
  auto plain = BuildParts(corpus, {}, false);
  auto packed = BuildParts(corpus, {}, true);
  auto bitmap = BuildParts(corpus, {}, false);
  bitmap[0]->predicate.Compact(0, CodecPolicy::kBitmapPreferred);
  const std::vector<const Part*> reps = {plain[0].get(), packed[0].get(),
                                         bitmap[0].get()};
  const char* names[] = {"plain", "auto", "bitmap"};
  FaultInjector& fi = FaultInjector::Instance();
  fi.DisarmAll();
  SplitMix64 rng(2024);
  size_t checked = 0;
  for (size_t m = 1; m <= 4; ++m) {
    for (int round = 0; round < 25; ++round) {
      // m distinct predicates from one document, so D_P is non-empty.
      const Document* doc = nullptr;
      while (doc == nullptr || doc->annotations.size() < m) {
        doc = &corpus.docs[rng.NextBounded(corpus.docs.size())];
      }
      std::vector<TermId> context(doc->annotations.begin(),
                                  doc->annotations.end());
      for (size_t i = 0; i < m; ++i) {
        std::swap(context[i],
                  context[i + rng.NextBounded(context.size() - i)]);
      }
      context.resize(m);
      std::sort(context.begin(), context.end());
      const uint16_t lo = static_cast<uint16_t>(
          cc.year_min + rng.NextBounded(cc.year_max - cc.year_min + 1));
      const uint16_t hi = static_cast<uint16_t>(
          lo + rng.NextBounded(cc.year_max - lo + 1));
      for (YearRange range : {YearRange{}, YearRange{lo, hi}}) {
        SCOPED_TRACE("m " + std::to_string(m) + " round " +
                     std::to_string(round) +
                     (range.active() ? " ranged" : ""));
        auto build = [&](const Part& p, ScanGuard* guard) {
          return ContextSet::Build(p.content, p.predicate, context, nullptr,
                                   p.years, range, guard);
        };
        ScanGuard want_guard(0, 0);
        const ContextSet want = build(*reps[0], &want_guard);
        ASSERT_TRUE(want.complete());
        const uint64_t ticks = want_guard.ticks();
        for (size_t r = 1; r < reps.size(); ++r) {
          ScanGuard g(0, 0);
          const ContextSet got = build(*reps[r], &g);
          EXPECT_TRUE(got.complete()) << names[r];
          EXPECT_EQ(got.Size(), want.Size()) << names[r];
          EXPECT_EQ(got.total_length(), want.total_length()) << names[r];
          EXPECT_EQ(g.ticks(), ticks) << names[r];
        }
        if (ticks < 2) continue;
        ++checked;
        const uint64_t budget = ticks / 2;
        const uint64_t nth = 1 + rng.NextBounded(ticks);
        for (size_t r = 0; r < reps.size(); ++r) {
          ScanGuard budgeted(0, budget);
          EXPECT_FALSE(build(*reps[r], &budgeted).complete()) << names[r];
          EXPECT_EQ(budgeted.trip(), ScanGuard::Trip::kBudget) << names[r];
          EXPECT_EQ(budgeted.ticks(), budget + 1) << names[r];

          fi.Arm(FaultPoint::kPostingAdvance, nth);
          const uint64_t trips = fi.trips(FaultPoint::kPostingAdvance);
          ScanGuard faulted(0, 0);
          EXPECT_FALSE(build(*reps[r], &faulted).complete()) << names[r];
          fi.Disarm(FaultPoint::kPostingAdvance);
          EXPECT_EQ(faulted.trip(), ScanGuard::Trip::kFault) << names[r];
          EXPECT_EQ(faulted.ticks(), nth) << names[r];
          EXPECT_EQ(fi.hits(FaultPoint::kPostingAdvance), nth) << names[r];
          EXPECT_EQ(fi.trips(FaultPoint::kPostingAdvance), trips + 1)
              << names[r];
        }
      }
    }
  }
  EXPECT_GT(checked, 120u);
}

}  // namespace
}  // namespace csr
