// Context-set cache suite (ctest -L concurrency; also the ThreadSanitizer
// lane). The cache unit (byte budget, LRU order, the complete-only rule,
// keys) and its engine wiring: a view-served part builds D_P on its
// context's first miss unless a bound limits the query, FlattenSegments
// and merges retire keys instead of reusing them, the write segment is
// never cached, kContextStraightforward never touches the cache, and
// concurrent searches return the answers of a cache-off engine bit for
// bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "engine/context_set_cache.h"
#include "engine/engine.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "stats/context_set.h"

namespace csr {
namespace {

// -- The cache unit ----------------------------------------------------------

/// A predicate index over `docs` documents where term t annotates every
/// (t + 1)-th document, so context {t} has docs / (t + 1) members.
InvertedIndex Multiples(uint32_t docs, TermId terms) {
  IndexBuilder builder;
  for (DocId d = 0; d < docs; ++d) {
    std::vector<TermId> ann;
    for (TermId t = 0; t < terms; ++t) {
      if (d % (t + 1) == 0) ann.push_back(t);
    }
    EXPECT_TRUE(builder.AddDocument(d, ann).ok());
  }
  return builder.Build();
}

std::shared_ptr<const ContextSet> SetOf(const InvertedIndex& index, TermId t,
                                        ScanGuard* guard = nullptr) {
  const TermId context[] = {t};
  return std::make_shared<const ContextSet>(
      ContextSet::Build(index, index, context, nullptr, {}, {}, guard));
}

TermIdSet KeyOf(TermId t) {
  SearchPart part;  // the base
  const TermId context[] = {t};
  return *ContextSetCache::Key(part, context, {});
}

uint64_t EntryBytes(const TermIdSet& key, const ContextSet& set) {
  return ContextSetCache::kEntryOverheadBytes + key.size() * sizeof(TermId) +
         set.MemoryBytes();
}

TEST(ContextSetCacheTest, ByteBudgetHoldsAndEvictsLeastRecentlyUsed) {
  const InvertedIndex index = Multiples(4000, 8);
  // Contexts {3}, {4}, {5}: sets of 1000, 800 and 667 members.
  auto a = SetOf(index, 3);
  auto b = SetOf(index, 4);
  auto c = SetOf(index, 5);
  const uint64_t wa = EntryBytes(KeyOf(3), *a);
  const uint64_t wb = EntryBytes(KeyOf(4), *b);
  const uint64_t wc = EntryBytes(KeyOf(5), *c);
  ASSERT_LT(wc, wb);
  // Room for any two, never three.
  const uint64_t budget = wa + wb + wc / 2;
  MetricsRegistry registry;
  ContextSetCache cache(budget, registry, /*num_shards=*/1);

  cache.Put(KeyOf(3), a);
  cache.Put(KeyOf(4), b);
  EXPECT_EQ(cache.bytes(), wa + wb);
  EXPECT_EQ(cache.Get(KeyOf(3)), a);  // {3} is now the most recent
  cache.Put(KeyOf(5), c);                 // evicts {4}, the coldest
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.bytes(), wa + wc);
  EXPECT_LE(cache.bytes(), budget);
  EXPECT_EQ(cache.Get(KeyOf(4)), nullptr);
  EXPECT_EQ(cache.Get(KeyOf(3)), a);
  EXPECT_EQ(cache.Get(KeyOf(5)), c);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);

  // A set heavier than the whole budget is never stored.
  auto all = SetOf(index, 0);
  cache.Put(KeyOf(0), all);
  EXPECT_EQ(cache.Get(KeyOf(0)), nullptr);
  EXPECT_LE(cache.bytes(), budget);

  // An evicted set stays alive for whoever still holds it.
  std::shared_ptr<const ContextSet> held = cache.Get(KeyOf(3));
  for (TermId t : {4u, 6u, 7u}) cache.Put(KeyOf(t), SetOf(index, t));
  EXPECT_EQ(cache.Get(KeyOf(3)), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->Size(), 1000u);
  EXPECT_LE(cache.bytes(), budget);

  // The counters and the gauge are the registry's instruments.
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("engine.context_set_cache.hits"), cache.hits());
  EXPECT_EQ(snap.counters.at("engine.context_set_cache.misses"),
            cache.misses());
  EXPECT_EQ(snap.counters.at("engine.context_set_cache.evictions"),
            cache.evictions());
  EXPECT_EQ(snap.gauges.at("engine.context_set_cache.bytes"),
            static_cast<double>(cache.bytes()));
}

TEST(ContextSetCacheTest, PartialSetIsNeverInserted) {
  const InvertedIndex index = Multiples(4000, 4);
  ScanGuard guard(0.0, /*budget=*/10);
  auto partial = SetOf(index, 1, &guard);
  ASSERT_TRUE(guard.tripped());
  ASSERT_FALSE(partial->complete());
  MetricsRegistry registry;
  ContextSetCache cache(1 << 20, registry);
  cache.Put(KeyOf(1), partial);
  cache.Put(KeyOf(2), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Get(KeyOf(1)), nullptr);
}

TEST(ContextSetCacheTest, ClearDropsEverySetAndItsBytes) {
  const InvertedIndex index = Multiples(1000, 4);
  MetricsRegistry registry;
  ContextSetCache cache(1 << 20, registry);
  for (TermId t : {1u, 2u, 3u}) cache.Put(KeyOf(t), SetOf(index, t));
  ASSERT_EQ(cache.size(), 3u);
  ASSERT_GT(cache.bytes(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(registry.Snapshot().gauges.at("engine.context_set_cache.bytes"),
            0.0);
  EXPECT_EQ(cache.Get(KeyOf(1)), nullptr);
}

TEST(ContextSetCacheTest, ChargesWhatAYearRestrictedMultiPredicateSetHolds) {
  // Context {1, 2} (every 6th document) restricted to one year in 11:
  // Build reserves the shortest list's 1334 members and keeps 61, and
  // the cache charges at least what the set holds.
  const InvertedIndex index = Multiples(4000, 3);
  std::vector<uint16_t> years(4000);
  for (DocId d = 0; d < years.size(); ++d) {
    years[d] = static_cast<uint16_t>(1990 + d % 11);
  }
  const TermId context[] = {1, 2};
  const YearRange y1990{1990, 1990};
  auto set = std::make_shared<const ContextSet>(
      ContextSet::Build(index, index, context, nullptr, years, y1990));
  ASSERT_EQ(set->Size(), 61u);
  const std::vector<DocId>& members = set->docs();
  EXPECT_EQ(members.capacity(), members.size())
      << "the set keeps its reservation";

  const TermIdSet key = *ContextSetCache::Key(SearchPart{}, context, y1990);
  MetricsRegistry registry;
  ContextSetCache cache(1 << 20, registry);
  cache.Put(key, set);
  EXPECT_EQ(cache.bytes(), EntryBytes(key, *set));
  EXPECT_GE(cache.bytes(), ContextSetCache::kEntryOverheadBytes +
                               key.size() * sizeof(TermId) +
                               sizeof(ContextSet) +
                               members.capacity() * sizeof(DocId));
}

TEST(ContextSetCacheTest, ABudgetHoldsTwiceTheSetsOfAPostingForm) {
  // A set charges 4 bytes per member. Stored as (doc, tf) postings it
  // would charge 8, so a budget with room for 4.5 such entries held 4
  // sets of 8000 members; it now holds 8.
  const InvertedIndex index = Multiples(8000, 1);
  auto set = SetOf(index, 0);
  ASSERT_EQ(set->Size(), 8000u);
  const uint64_t posting_entry = ContextSetCache::kEntryOverheadBytes +
                                 sizeof(TermId) + sizeof(ContextSet) +
                                 set->Size() * sizeof(Posting);
  const uint64_t budget = 4 * posting_entry + posting_entry / 2;
  ASSERT_EQ(budget / posting_entry, 4u);
  MetricsRegistry registry;
  ContextSetCache cache(budget, registry, /*num_shards=*/1);
  for (TermId t = 0; t < 8; ++t) cache.Put(KeyOf(t), set);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_LE(cache.bytes(), budget);
  for (TermId t = 0; t < 8; ++t) EXPECT_EQ(cache.Get(KeyOf(t)), set);
}

TEST(ContextSetCacheTest, KeysNameOneDocumentSet) {
  const TermId context[] = {3, 7};
  const TermId wider[] = {3, 7, 9};
  SearchPart base;
  SearchPart sealed;
  sealed.segment_id = 4;
  sealed.base = 1000;
  SearchPart merged = sealed;
  merged.segment_id = 9;
  SearchPart write = sealed;
  write.segment_id = 5;
  write.sealed = false;
  const YearRange years{1990, 1999};

  EXPECT_FALSE(ContextSetCache::Key(write, context, {}).has_value());
  std::vector<TermIdSet> keys = {
      *ContextSetCache::Key(base, context, {}),
      *ContextSetCache::Key(sealed, context, {}),
      *ContextSetCache::Key(merged, context, {}),
      *ContextSetCache::Key(base, context, years),
      *ContextSetCache::Key(base, wider, {}),
  };
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_EQ(*ContextSetCache::Key(base, context, years),
            *ContextSetCache::Key(base, context, years));
}

// -- The engine wiring -------------------------------------------------------

Corpus TestCorpus(uint32_t docs = 2000) {
  CorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 1500;
  cfg.ontology_fanouts = {4, 3};
  cfg.seed = 91;
  return CorpusGenerator(cfg).Generate().value();
}

std::unique_ptr<ContextSearchEngine> MakeEngine(Corpus corpus,
                                                uint64_t cache_bytes,
                                                EngineConfig cfg = {}) {
  cfg.context_set_cache_bytes = cache_bytes;
  auto engine = ContextSearchEngine::Build(std::move(corpus), cfg).value();
  EXPECT_TRUE(engine->MaterializeViews({ViewDefinition{{0, 1, 2, 3}}}).ok());
  return engine;
}

/// A keyword with no view column that occurs in context {c}'s documents.
TermId UntrackedKeyword(const ContextSearchEngine& engine, TermId c) {
  for (const Document& d : engine.corpus().docs) {
    if (!std::binary_search(d.annotations.begin(), d.annotations.end(), c)) {
      continue;
    }
    for (TermId w : d.ContentTokens()) {
      if (!engine.tracked().IsTracked(w)) return w;
    }
  }
  ADD_FAILURE() << "no untracked keyword in context " << c;
  return 0;
}

ContextQuery QueryFor(const ContextSearchEngine& engine, TermIdSet context,
                      YearRange years = {}) {
  const CorpusConfig& cc = engine.corpus().config;
  ContextQuery q;
  q.context = std::move(context);
  q.keywords = {CorpusGenerator::ConceptTopicalTerm(q.context[0], 0,
                                                    cc.vocab_size,
                                                    cc.topical_window),
                UntrackedKeyword(engine, q.context[0])};
  q.years = years;
  return q;
}

void ExpectSameAnswer(const SearchResult& got, const SearchResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.result_count, want.result_count) << what;
  EXPECT_EQ(got.stats.cardinality, want.stats.cardinality) << what;
  EXPECT_EQ(got.stats.total_length, want.stats.total_length) << what;
  EXPECT_EQ(got.stats.df, want.stats.df) << what;
  EXPECT_EQ(got.stats.tc, want.stats.tc) << what;
  ASSERT_EQ(got.top_docs.size(), want.top_docs.size()) << what;
  for (size_t i = 0; i < want.top_docs.size(); ++i) {
    EXPECT_EQ(got.top_docs[i].doc, want.top_docs[i].doc) << what << " " << i;
    EXPECT_EQ(got.top_docs[i].score, want.top_docs[i].score)
        << what << " " << i;
  }
}

std::string_view ContextSetChoice(const SearchResult& r) {
  const TraceSpan* plan = r.trace->root().Find("plan:view");
  if (plan == nullptr) plan = r.trace->root().Find("plan:straightforward");
  return plan == nullptr ? "" : plan->AttrValue("context_set");
}

TEST(ContextSetCacheEngineTest, ViewServedPartBuildsOnItsFirstMiss) {
  EngineConfig cfg;
  cfg.trace_sample_rate = 1.0;
  auto engine = MakeEngine(TestCorpus(), 8u << 20, cfg);
  auto plain = MakeEngine(TestCorpus(), 0);
  const ContextQuery q = QueryFor(*engine, {1});
  const auto want = plain->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want->metrics.used_view);
  ASSERT_GE(want->metrics.keywords_uncovered_by_view, 1u);
  const ContextSetCache* cache = engine->context_set_cache();
  ASSERT_NE(cache, nullptr);

  // First miss: D_P is built once and inserted. It serves the untracked
  // df only: retrieval on a view-served part keeps its predicate lists.
  auto r1 = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(r1.ok());
  ExpectSameAnswer(*r1, *want, "miss");
  EXPECT_EQ(ContextSetChoice(*r1), "built");
  EXPECT_EQ(r1->metrics.context_set_hits, 0u);
  EXPECT_EQ(r1->trace->root().CountByName("intersect:context"), 1u);
  EXPECT_EQ(r1->trace->root().Find("intersect:retrieval")->AttrValue(
                "context_set"),
            "0");
  EXPECT_EQ(cache->size(), 1u);

  // Then every query hits: a recorded plan choice, no build.
  for (int run = 0; run < 2; ++run) {
    auto r = engine->Search(q, EvaluationMode::kContextWithViews);
    ASSERT_TRUE(r.ok());
    ExpectSameAnswer(*r, *want, "hit");
    EXPECT_EQ(ContextSetChoice(*r), "cached");
    EXPECT_EQ(r->metrics.context_set_hits, 1u);
    EXPECT_EQ(r->trace->root().CountByName("intersect:context"), 0u);
    const TraceSpan* df = r->trace->root().Find("intersect:df");
    ASSERT_NE(df, nullptr);
    EXPECT_EQ(df->AttrValue("lists"), "2");
  }
  EXPECT_EQ(cache->hits(), 2u);
  EXPECT_EQ(cache->misses(), 1u);
  const MetricsSnapshot snap = engine->MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("engine.context_set_cache.hits"), 2u);
  EXPECT_EQ(snap.counters.at("engine.context_set_cache.misses"), 1u);
}

TEST(ContextSetCacheEngineTest, CachedSetsAreChargedTheirAllocation) {
  // A year range the view cannot answer sends the part down the
  // straightforward plan, whose D_P the cache keeps.
  auto engine = MakeEngine(TestCorpus(), 8u << 20);
  const ContextQuery q = QueryFor(*engine, {0, 1}, YearRange{1995, 2002});
  auto r = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->metrics.used_view);
  ASSERT_GT(r->stats.cardinality, 0u);
  const ContextSetCache* cache = engine->context_set_cache();
  ASSERT_EQ(cache->size(), 1u);

  // The same build outside the engine holds exactly its members, and the
  // cache charges that allocation.
  std::vector<uint16_t> years;
  for (const Document& d : engine->corpus().docs) years.push_back(d.year);
  const ContextSet set =
      ContextSet::Build(engine->content_index(), engine->predicate_index(),
                        q.context, nullptr, years, q.years);
  ASSERT_EQ(set.Size(), r->stats.cardinality);
  const std::vector<DocId>& members = set.docs();
  EXPECT_EQ(members.capacity(), members.size());
  const TermIdSet key = *ContextSetCache::Key(SearchPart{}, q.context, q.years);
  EXPECT_EQ(cache->bytes(), EntryBytes(key, set));
}

TEST(ContextSetCacheEngineTest, BoundedQueryBuildsOnlyWhatItsPlanNeeds) {
  // The budget is far above what the queries need: only its presence
  // counts.
  EngineConfig cfg;
  cfg.trace_sample_rate = 1.0;
  cfg.posting_scan_budget = 1u << 30;
  auto engine = MakeEngine(TestCorpus(), 8u << 20, cfg);
  auto plain = MakeEngine(TestCorpus(), 0);
  const ContextSetCache* cache = engine->context_set_cache();

  // A view-served part never builds for the cache under a bound.
  const ContextQuery viewed = QueryFor(*engine, {1});
  const auto want = plain->Search(viewed, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(want.ok());
  for (int run = 0; run < 3; ++run) {
    auto r = engine->Search(viewed, EvaluationMode::kContextWithViews);
    ASSERT_TRUE(r.ok());
    ExpectSameAnswer(*r, *want, "view-served");
    EXPECT_EQ(ContextSetChoice(*r), "chain");
    EXPECT_EQ(r->trace->root().CountByName("intersect:context"), 0u);
  }
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->misses(), 3u);

  // A straightforward-served part builds D_P for its own plan anyway, so
  // it still fills the cache and then hits.
  const ContextQuery direct = QueryFor(*engine, {5});
  const auto want_direct =
      plain->Search(direct, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(want_direct.ok());
  ASSERT_FALSE(want_direct->metrics.used_view);
  for (int run = 0; run < 2; ++run) {
    auto r = engine->Search(direct, EvaluationMode::kContextWithViews);
    ASSERT_TRUE(r.ok());
    ExpectSameAnswer(*r, *want_direct, "straightforward-served");
    EXPECT_EQ(r->metrics.context_set_hits, run == 0 ? 0u : 1u);
  }
  EXPECT_EQ(cache->size(), 1u);
}

TEST(ContextSetCacheEngineTest, StraightforwardModeNeverTouchesTheCache) {
  const Corpus corpus = TestCorpus();
  auto engine = MakeEngine(corpus, 8u << 20);
  auto plain = MakeEngine(corpus, 0);
  std::vector<ContextQuery> queries;
  for (TermId c : {0u, 1u, 5u, 9u}) queries.push_back(QueryFor(*engine, {c}));
  queries.push_back(QueryFor(*engine, {6}, YearRange{1995, 2005}));
  // Fill the cache with every context first.
  for (int pass = 0; pass < 3; ++pass) {
    for (const ContextQuery& q : queries) {
      ASSERT_TRUE(engine->Search(q, EvaluationMode::kContextWithViews).ok());
    }
  }
  const ContextSetCache* cache = engine->context_set_cache();
  const uint64_t hits = cache->hits();
  const uint64_t misses = cache->misses();
  ASSERT_GT(hits, 0u);

  for (const ContextQuery& q : queries) {
    std::vector<uint64_t> ticks;
    std::vector<SearchResult> results;
    for (const ContextSearchEngine* e : {engine.get(), plain.get()}) {
      auto ps = e->BeginSearch(q, EvaluationMode::kContextStraightforward);
      ASSERT_TRUE(ps.ok());
      ASSERT_TRUE(e->SearchStats(**ps).ok());
      ASSERT_TRUE(e->SearchIntersect(**ps).ok());
      ticks.push_back((*ps)->guard.ticks());
      auto r = e->FinishSearch(**ps);
      ASSERT_TRUE(r.ok());
      results.push_back(std::move(*r));
    }
    ExpectSameAnswer(results[0], results[1], "straightforward");
    EXPECT_EQ(ticks[0], ticks[1]);
    const CostCounters& a = results[0].metrics.cost;
    const CostCounters& b = results[1].metrics.cost;
    EXPECT_EQ(a.entries_scanned, b.entries_scanned);
    EXPECT_EQ(a.segments_touched, b.segments_touched);
    EXPECT_EQ(a.skips_taken, b.skips_taken);
    EXPECT_EQ(a.aggregation_entries, b.aggregation_entries);
    EXPECT_EQ(a.blocks_skipped, b.blocks_skipped);
    EXPECT_EQ(a.bytes_touched, b.bytes_touched);
    EXPECT_EQ(results[0].metrics.context_set_hits, 0u);
    EXPECT_EQ(results[0].metrics.plan, results[1].metrics.plan);
  }
  EXPECT_EQ(cache->hits(), hits);
  EXPECT_EQ(cache->misses(), misses);
}

/// One grown engine and its cache-off twin, driven through the same
/// appends, merges and flattens.
struct Twins {
  std::unique_ptr<ContextSearchEngine> cached, plain;

  void Append(const Corpus& full, DocId first, DocId end) {
    std::vector<Document> docs(full.docs.begin() + first,
                               full.docs.begin() + end);
    ASSERT_TRUE(cached->AppendDocuments(docs).ok());
    ASSERT_TRUE(plain->AppendDocuments(std::move(docs)).ok());
  }

  /// Runs `q` with views on both and checks the answers agree; returns the
  /// cached engine's context-set hits.
  uint32_t Hits(const ContextQuery& q, const std::string& what) {
    auto got = cached->Search(q, EvaluationMode::kContextWithViews);
    auto want = plain->Search(q, EvaluationMode::kContextWithViews);
    EXPECT_TRUE(got.ok() && want.ok()) << what;
    if (!got.ok() || !want.ok()) return 0;
    ExpectSameAnswer(*got, *want, what);
    return got->metrics.context_set_hits;
  }
};

Twins GrowTwins(const Corpus& full, DocId prefix) {
  Corpus head = full;
  head.docs.resize(prefix);
  head.config.num_docs = prefix;
  EngineConfig cfg;
  cfg.mem_segment_max_docs = 200;
  cfg.merge_trigger_segments = 2;
  return Twins{MakeEngine(head, 8u << 20, cfg), MakeEngine(head, 0, cfg)};
}

TEST(ContextSetCacheEngineTest, FlattenAndMergeRetireKeys) {
  const Corpus full = TestCorpus(2400);
  Twins twins = GrowTwins(full, 1600);
  for (DocId pos = 1600; pos < 2400; pos += 200) {
    twins.Append(full, pos, pos + 200);  // each batch seals a segment
  }
  ASSERT_EQ(twins.cached->LiveSnapshot()->extras.size(), 4u);
  // No view covers {5}: every part is straightforward-served, so each
  // part's set is cached on its first miss.
  const ContextQuery q = QueryFor(*twins.cached, {5});
  EXPECT_EQ(twins.Hits(q, "cold"), 0u);
  EXPECT_EQ(twins.Hits(q, "warm"), 5u);  // base + 4 sealed segments

  // The merged segment gets a new id: its part misses, the others hit.
  ASSERT_TRUE(twins.cached->MergeOnce());
  ASSERT_TRUE(twins.plain->MergeOnce());
  ASSERT_EQ(twins.cached->LiveSnapshot()->extras.size(), 3u);
  EXPECT_EQ(twins.Hits(q, "after merge"), 3u);
  EXPECT_EQ(twins.Hits(q, "after merge, warm"), 4u);

  // Flattening rebuilds the base under segment id 0 with every document
  // and clears the cache: nothing the old base cached is served.
  ASSERT_TRUE(twins.cached->FlattenSegments().ok());
  ASSERT_TRUE(twins.plain->FlattenSegments().ok());
  EXPECT_EQ(twins.Hits(q, "after flatten"), 0u);
  EXPECT_EQ(twins.Hits(q, "after flatten, warm"), 1u);
}

TEST(ContextSetCacheEngineTest, WriteSegmentIsNeverCached) {
  const Corpus full = TestCorpus(2400);
  Twins twins = GrowTwins(full, 2000);
  twins.Append(full, 2000, 2250);  // one sealed segment + a 50-doc buffer
  std::shared_ptr<const LiveSet> live = twins.cached->LiveSnapshot();
  ASSERT_EQ(live->extras.size(), 2u);
  ASSERT_FALSE(live->extras.back()->index.sealed);
  for (TermId c : {1u, 5u}) {  // view-served and straightforward-served
    const ContextQuery q = QueryFor(*twins.cached, {c});
    for (int pass = 0; pass < 4; ++pass) {
      const uint32_t hits = twins.Hits(q, "pass " + std::to_string(pass));
      EXPECT_LE(hits, 2u);  // base + sealed, never the write segment
      if (pass == 3) {
        EXPECT_EQ(hits, 2u);
      }
    }
  }
}

TEST(ContextSetCacheEngineTest, ConcurrentSearchesMatchACacheOffEngine) {
  const Corpus corpus = TestCorpus();
  auto plain = MakeEngine(corpus, 0);
  // Same and different contexts, view-served and not, with year ranges.
  std::vector<ContextQuery> queries;
  for (TermId c : {0u, 1u, 2u, 5u, 6u, 9u}) {
    queries.push_back(QueryFor(*plain, {c}));
  }
  queries.push_back(QueryFor(*plain, {1}, YearRange{1990, 2010}));
  queries.push_back(QueryFor(*plain, {7}, YearRange{1980, 2000}));
  std::vector<SearchResult> want;
  for (const ContextQuery& q : queries) {
    auto r = plain->Search(q, EvaluationMode::kContextWithViews);
    ASSERT_TRUE(r.ok());
    want.push_back(std::move(*r));
  }
  // A roomy budget, and one that holds only a few sets (evictions race
  // the lookups).
  for (uint64_t budget : {uint64_t{8} << 20, uint64_t{16} << 10}) {
    auto engine = MakeEngine(corpus, budget);
    constexpr size_t kThreads = 6;
    constexpr size_t kRounds = 24;
    std::vector<std::vector<bool>> same(kThreads,
                                        std::vector<bool>(kRounds, false));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < kRounds; ++i) {
          const size_t qi = (i + t) % queries.size();
          auto r = engine->Search(queries[qi],
                                  EvaluationMode::kContextWithViews);
          bool ok = r.ok() && r->result_count == want[qi].result_count &&
                    r->stats.df == want[qi].stats.df &&
                    r->stats.cardinality == want[qi].stats.cardinality &&
                    r->top_docs.size() == want[qi].top_docs.size();
          for (size_t k = 0; ok && k < want[qi].top_docs.size(); ++k) {
            ok = r->top_docs[k].doc == want[qi].top_docs[k].doc &&
                 r->top_docs[k].score == want[qi].top_docs[k].score;
          }
          same[t][i] = ok;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (size_t t = 0; t < kThreads; ++t) {
      for (size_t i = 0; i < kRounds; ++i) {
        EXPECT_TRUE(same[t][i]) << "budget " << budget << " thread " << t
                                << " round " << i;
      }
    }
    const ContextSetCache* cache = engine->context_set_cache();
    if (budget > (1u << 20)) {
      EXPECT_GT(cache->hits(), 0u);
    }
    EXPECT_LE(cache->bytes(), budget);
  }
}

}  // namespace
}  // namespace csr
