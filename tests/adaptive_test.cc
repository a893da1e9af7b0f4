#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "engine/engine.h"
#include "selection/adaptive.h"
#include "views/size_estimator.h"
#include "views/view_builder.h"

namespace csr {
namespace {

// The online adaptive view-selection lane (DESIGN.md §17): the controller's
// policy mechanics against synthetic hooks, the engine integration's
// correctness guarantee (adaptive-served statistics bit-identical to the
// straightforward plan, under installs, evictions, staleness, and merges
// racing the builder), and the size-estimator byte model that feeds the
// admission gate.

// ---------------------------------------------------------------------------
// Controller policy, engine-free (synthetic hooks).

std::shared_ptr<const AdaptiveView> SyntheticView(const ViewDefinition& def,
                                                  uint64_t bytes,
                                                  uint64_t epoch) {
  auto av = std::make_shared<AdaptiveView>();
  av->def = def;
  av->base_docs = 100;
  av->bytes = bytes;
  av->built_epoch = epoch;
  return av;
}

struct SyntheticHarness {
  AdaptiveSelectionConfig config;
  uint64_t view_bytes = 1000;
  uint64_t epoch = 1;
  int builds = 0;
  std::unique_ptr<AdaptiveViewController> controller;

  explicit SyntheticHarness(uint64_t budget) {
    config.budget_bytes = budget;
    config.min_score = 1.0;
    config.cooldown_steps = 2;
    AdaptiveViewController::Hooks hooks;
    hooks.materialize = [this](const ViewDefinition& def,
                               std::shared_ptr<const AdaptiveView> prior) {
      (void)prior;
      ++builds;
      return SyntheticView(def, view_bytes, epoch);
    };
    hooks.estimate_bytes = [this](const ViewDefinition&) {
      return view_bytes;
    };
    hooks.live_epoch = [this] { return epoch; };
    controller =
        std::make_unique<AdaptiveViewController>(config, std::move(hooks));
  }
};

TEST(AdaptiveControllerTest, ScoresAccumulateAndDecayByObservationClock) {
  SyntheticHarness h(1 << 20);
  TermIdSet ctx{1, 2};
  h.controller->RecordMiss(ctx, 4.0);
  EXPECT_DOUBLE_EQ(h.controller->ScoreOf(ctx), 4.0);
  h.controller->RecordMiss(ctx, 4.0);
  EXPECT_GT(h.controller->ScoreOf(ctx), 4.0);

  // One half-life of OTHER contexts' observations halves the score.
  double before = h.controller->ScoreOf(ctx);
  for (uint64_t i = 0; i < static_cast<uint64_t>(h.config.half_life); ++i) {
    h.controller->RecordMiss(TermIdSet{100 + static_cast<TermId>(i)}, 0.001);
  }
  double after = h.controller->ScoreOf(ctx);
  EXPECT_NEAR(after, before / 2.0, before * 0.02);
}

TEST(AdaptiveControllerTest, InstallsWinnerAndPublishesNewVersion) {
  SyntheticHarness h(1 << 20);
  TermIdSet ctx{3, 7};
  uint64_t v0 = h.controller->Snapshot()->version;
  h.controller->RecordMiss(ctx, 5.0);
  EXPECT_TRUE(h.controller->Step());
  auto version = h.controller->Snapshot();
  EXPECT_GT(version->version, v0);
  EXPECT_EQ(version->views.size(), 1u);
  EXPECT_EQ(version->resident_bytes, h.view_bytes);
  EXPECT_EQ(h.controller->telemetry().installs, 1u);

  // The published view covers its context and any subset of it.
  EXPECT_NE(version->FindBest(std::vector<TermId>{3, 7}), nullptr);
  EXPECT_NE(version->FindBest(std::vector<TermId>{7}), nullptr);
  EXPECT_EQ(version->FindBest(std::vector<TermId>{3, 8}), nullptr);
}

TEST(AdaptiveControllerTest, IgnoresContextsWiderThanTheCap) {
  SyntheticHarness h(1 << 20);
  TermIdSet wide;
  for (TermId m = 0; m < 12; ++m) wide.push_back(m);
  h.controller->RecordMiss(wide, 50.0);
  EXPECT_EQ(h.controller->CandidateCount(), 0u);
  EXPECT_FALSE(h.controller->Step());
}

TEST(AdaptiveControllerTest, BudgetIsAHardCeilingWithColdestEviction) {
  SyntheticHarness h(/*budget=*/1500);  // room for one 1000-byte view
  TermIdSet a{1};
  TermIdSet b{2};
  h.controller->RecordMiss(a, 3.0);
  EXPECT_TRUE(h.controller->Step());
  EXPECT_EQ(h.controller->Snapshot()->resident_bytes, 1000u);

  // b must beat a by the hysteresis factor before a is evicted for it:
  // the step "works" (builds, then rejects over budget) but installs
  // nothing and puts b on cooldown.
  h.controller->RecordMiss(b, 3.0);
  EXPECT_TRUE(h.controller->Step());  // 3.0 !> 3.0-ish * 1.25: rejected
  EXPECT_EQ(h.controller->telemetry().rejected_budget, 1u);
  EXPECT_EQ(h.controller->telemetry().installs, 1u);

  // Cooldown holds b out even once hot; the next step after it expires
  // evicts a and installs b.
  h.controller->RecordMiss(b, 50.0);
  EXPECT_FALSE(h.controller->Step());  // still cooling: nothing to do
  EXPECT_TRUE(h.controller->Step());   // cooldown expired: evict a, install b
  auto version = h.controller->Snapshot();
  EXPECT_EQ(version->views.size(), 1u);
  EXPECT_LE(version->resident_bytes, h.config.budget_bytes);
  EXPECT_NE(version->FindBest(std::vector<TermId>{2}), nullptr);
  EXPECT_EQ(version->FindBest(std::vector<TermId>{1}), nullptr);
  EXPECT_EQ(h.controller->telemetry().evictions, 1u);
}

TEST(AdaptiveControllerTest, PreGateRejectsViewsThatCannotFit) {
  SyntheticHarness h(/*budget=*/100);
  h.view_bytes = 1000;  // estimate > budget: never even built
  TermIdSet ctx{5};
  h.controller->RecordMiss(ctx, 50.0);
  EXPECT_TRUE(h.controller->Step());  // the rejection consumed the step
  EXPECT_EQ(h.builds, 0);
  EXPECT_EQ(h.controller->telemetry().rejected_budget, 1u);
}

TEST(AdaptiveControllerTest, RefreshTopsUpStaleResidents) {
  SyntheticHarness h(1 << 20);
  TermIdSet ctx{4};
  h.controller->RecordMiss(ctx, 5.0);
  EXPECT_TRUE(h.controller->Step());
  EXPECT_EQ(h.builds, 1);
  EXPECT_FALSE(h.controller->Step());  // nothing stale, nothing hot

  h.epoch = 9;  // the collection moved on
  EXPECT_TRUE(h.controller->Step());
  EXPECT_EQ(h.builds, 2);
  EXPECT_EQ(h.controller->telemetry().refreshes, 1u);
  EXPECT_EQ(h.controller->Snapshot()->views[0]->built_epoch, 9u);
}

TEST(AdaptiveControllerTest, ResetDropsEverythingAndPublishesEmpty) {
  SyntheticHarness h(1 << 20);
  h.controller->RecordMiss(TermIdSet{6}, 5.0);
  EXPECT_TRUE(h.controller->Step());
  h.controller->Reset();
  auto version = h.controller->Snapshot();
  EXPECT_TRUE(version->views.empty());
  EXPECT_EQ(version->resident_bytes, 0u);
  EXPECT_EQ(h.controller->CandidateCount(), 0u);
}

// ---------------------------------------------------------------------------
// Size-estimator byte model (satellite: budget arithmetic).

Corpus SmallCorpus(uint32_t docs = 1200, uint64_t seed = 42) {
  CorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 900;
  cfg.ontology_fanouts = {4, 3};
  cfg.seed = seed;
  return CorpusGenerator(cfg).Generate().value();
}

TEST(SizeEstimatorTest, StoreBytesMatchesActualCompactBytes) {
  Corpus corpus = SmallCorpus();
  EngineConfig cfg;
  cfg.estimator_sample = 400;
  auto engine = ContextSearchEngine::Build(corpus, cfg).value();

  const uint32_t num_tracked =
      static_cast<uint32_t>(engine->tracked().size());
  std::vector<uint16_t> years;
  for (const Document& d : engine->corpus().docs) years.push_back(d.year);
  for (bool track_tc : {false, true}) {
    for (uint16_t year_bucket : {uint16_t{0}, uint16_t{5}}) {
      ViewParamOptions options;
      options.track_df = true;
      options.track_tc = track_tc;
      options.year_bucket_size = year_bucket;
      for (ViewDefinition def :
           {ViewDefinition{{0, 1}}, ViewDefinition{{0, 1, 2, 3}}}) {
        MaterializedView view = BuildViewFromIndexes(
            def, options, engine->tracked(), engine->content_index(),
            engine->predicate_index(), years);
        ASSERT_TRUE(view.compacted());
        ASSERT_GT(view.NumTuples(), 0u);
        // The model must reproduce the compacted store exactly — a stale
        // constant here silently corrupts the admission gate.
        EXPECT_EQ(view.MemoryBytes(),
                  ViewSizeEstimator::StoreBytes(view.NumTuples(),
                                                def.num_columns(), options,
                                                num_tracked))
            << "columns=" << def.num_columns() << " tc=" << track_tc
            << " bucket=" << year_bucket;
      }
    }
  }
}

TEST(SizeEstimatorTest, ByteArithmeticIs64Bit) {
  ViewParamOptions options;
  options.track_df = true;
  options.track_tc = true;
  // A (hypothetical) view tracking 2^30 slots: per-tuple bytes alone must
  // exceed 32 bits of product headroom instead of silently truncating.
  uint64_t one_tuple =
      ViewSizeEstimator::StoreBytes(1, 64, options, 1u << 30);
  EXPECT_GT(one_tuple, (1ull << 33));
  EXPECT_EQ(one_tuple % 4, 0u);
  // 2^28 tuples of a 64-column view with no slots: 2^32 bytes of
  // aggregates plus 2^31 of bitmaps.
  EXPECT_EQ(ViewSizeEstimator::StoreBytes(1ull << 28, 64, {}, 0),
            (1ull << 32) + (1ull << 31));
}

TEST(SizeEstimatorTest, EstimateBytesIsALowerBoundOnActual) {
  Corpus corpus = SmallCorpus();
  ViewSizeEstimator estimator(&corpus, /*seed=*/7, /*sample_size=*/300);
  EngineConfig cfg;
  auto engine = ContextSearchEngine::Build(corpus, cfg).value();
  ViewParamOptions options;
  options.track_df = true;
  const uint32_t num_tracked =
      static_cast<uint32_t>(engine->tracked().size());
  ViewDefinition def{{0, 1, 2}};
  MaterializedView view = BuildViewFromIndexes(
      def, options, engine->tracked(), engine->content_index(),
      engine->predicate_index(), {});
  uint64_t estimate = estimator.EstimateBytes(def, options, num_tracked);
  EXPECT_GT(estimate, 0u);
  EXPECT_LE(estimate, view.MemoryBytes());
}

// ---------------------------------------------------------------------------
// Index-side builder: foundation for background materialization.

TEST(BuildViewFromIndexesTest, MatchesCorpusBasedBuilderExactly) {
  Corpus corpus = SmallCorpus();
  EngineConfig cfg;
  auto engine = ContextSearchEngine::Build(corpus, cfg).value();
  ViewParamOptions options;
  options.track_df = true;
  options.track_tc = true;
  const uint32_t num_tracked =
      static_cast<uint32_t>(engine->tracked().size());
  DocParamTable table =
      DocParamTable::Build(engine->content_index(), engine->tracked());
  ViewBuilder builder(&engine->corpus(), &table, options, num_tracked);
  ViewDefinition def{{0, 1, 4, 5}};
  std::vector<MaterializedView> reference =
      builder.BuildAll(std::vector<ViewDefinition>{def});
  MaterializedView from_indexes = BuildViewFromIndexes(
      def, options, engine->tracked(), engine->content_index(),
      engine->predicate_index(), {});
  ASSERT_EQ(from_indexes.NumTuples(), reference[0].NumTuples());

  std::vector<TermId> keywords{40, 41, 42};
  for (std::vector<TermId> context :
       {std::vector<TermId>{0}, std::vector<TermId>{0, 1},
        std::vector<TermId>{4, 5}, std::vector<TermId>{0, 1, 4, 5}}) {
    auto a = reference[0].ComputeStats(context, keywords, engine->tracked());
    auto b = from_indexes.ComputeStats(context, keywords, engine->tracked());
    EXPECT_EQ(a.cardinality, b.cardinality);
    EXPECT_EQ(a.total_length, b.total_length);
    EXPECT_EQ(a.df, b.df);
    EXPECT_EQ(a.tc, b.tc);
    EXPECT_EQ(a.covered, b.covered);
  }
}

// ---------------------------------------------------------------------------
// Engine integration: differential correctness (satellite: test coverage).

constexpr uint32_t kDocs = 2000;
constexpr uint32_t kPrefix = 1400;

std::vector<ContextQuery> Queries(const Corpus& corpus) {
  std::vector<ContextQuery> qs;
  const CorpusConfig& cc = corpus.config;
  for (TermId root = 0; root < 4; ++root) {
    TermId w = CorpusGenerator::ConceptTopicalTerm(root, 0, cc.vocab_size,
                                                   cc.topical_window);
    qs.push_back(ContextQuery{{w}, {root}});
    qs.push_back(ContextQuery{{w, w + 1}, {root}});
  }
  qs.push_back(ContextQuery{{40, 41}, {0, 4}});
  return qs;
}

constexpr EvaluationMode kModes[] = {EvaluationMode::kConventional,
                                     EvaluationMode::kContextStraightforward,
                                     EvaluationMode::kContextWithViews};

void ExpectIdentical(const SearchResult& adaptive,
                     const SearchResult& reference,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(adaptive.result_count, reference.result_count);
  EXPECT_EQ(adaptive.stats.cardinality, reference.stats.cardinality);
  EXPECT_EQ(adaptive.stats.total_length, reference.stats.total_length);
  EXPECT_EQ(adaptive.stats.df, reference.stats.df);
  EXPECT_EQ(adaptive.stats.tc, reference.stats.tc);
  ASSERT_EQ(adaptive.top_docs.size(), reference.top_docs.size());
  for (size_t i = 0; i < adaptive.top_docs.size(); ++i) {
    EXPECT_EQ(adaptive.top_docs[i].doc, reference.top_docs[i].doc)
        << "rank " << i;
    EXPECT_EQ(adaptive.top_docs[i].score, reference.top_docs[i].score)
        << "rank " << i;
  }
}

void CompareEngines(const ContextSearchEngine& adaptive,
                    const ContextSearchEngine& reference,
                    const std::vector<ContextQuery>& queries,
                    const std::string& label) {
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (EvaluationMode mode : kModes) {
      auto a = adaptive.Search(queries[qi], mode);
      auto r = reference.Search(queries[qi], mode);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectIdentical(*a, *r,
                      label + " query=" + std::to_string(qi) + " mode=" +
                          std::string(EvaluationModeName(mode)));
    }
  }
}

EngineConfig AdaptiveConfig() {
  EngineConfig cfg;
  cfg.top_k = 10;
  cfg.estimator_sample = 1000;
  cfg.mem_segment_max_docs = 256;
  cfg.merge_trigger_segments = 3;
  cfg.adaptive_view_budget_bytes = 8ull << 20;
  cfg.adaptive_min_score_ms = 0.00001;  // one miss suffices (deterministic)
  cfg.adaptive_cooldown_steps = 1;
  return cfg;
}

Corpus MakeCorpus(uint64_t seed = 777) {
  CorpusConfig cfg;
  cfg.num_docs = kDocs;
  cfg.vocab_size = 1500;
  cfg.ontology_fanouts = {4, 3};
  cfg.seed = seed;
  return CorpusGenerator(cfg).Generate().value();
}

void WarmAdaptive(ContextSearchEngine& engine,
                  const std::vector<ContextQuery>& queries, int rounds = 2) {
  for (int r = 0; r < rounds; ++r) {
    for (const ContextQuery& q : queries) {
      ASSERT_TRUE(engine.Search(q, EvaluationMode::kContextWithViews).ok());
    }
    for (int s = 0; s < 8; ++s) {
      if (!engine.AdaptiveStep()) break;
    }
  }
}

TEST(AdaptiveEngineTest, ServesFromCacheAfterWarmupWithIdenticalResults) {
  Corpus corpus = MakeCorpus();
  EngineConfig cfg = AdaptiveConfig();
  auto engine = ContextSearchEngine::Build(corpus, cfg).value();
  // No offline catalog: every view-eligible query funds the estimator.
  ContextQuery q{{40, 41}, {0}};
  auto cold = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->metrics.used_adaptive_view);
  EXPECT_TRUE(engine->AdaptiveStep());
  ASSERT_NE(engine->adaptive(), nullptr);
  EXPECT_EQ(engine->adaptive()->telemetry().installs, 1u);

  auto warm = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->metrics.used_view);
  EXPECT_TRUE(warm->metrics.used_adaptive_view);
  auto reference = engine->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(reference.ok());
  ExpectIdentical(*warm, *reference, "warm-vs-straightforward");
  EXPECT_GE(engine->adaptive()->telemetry().hits, 1u);
}

TEST(AdaptiveEngineTest, DifferentialAcrossRankingsCodecsAndModes) {
  Corpus full = MakeCorpus();
  struct CodecCase {
    const char* name;
    bool compressed;
    CodecPolicy policy;
  };
  const CodecCase codecs[] = {
      {"uncompressed", false, CodecPolicy::kAuto},
      {"auto", true, CodecPolicy::kAuto},
      {"bitmap-preferred", true, CodecPolicy::kBitmapPreferred},
  };
  std::vector<ContextQuery> qs = Queries(full);
  for (const CodecCase& codec : codecs) {
    for (const char* ranking : {"pivoted", "dirichlet"}) {
      EngineConfig cfg = AdaptiveConfig();
      cfg.compressed_postings = codec.compressed;
      cfg.codec_policy = codec.policy;
      cfg.ranking = ranking;
      cfg.track_tc = std::string(ranking) == "dirichlet";

      // The adaptive engine grows from a prefix (stale deltas + refresh in
      // play); the reference is a scratch build with adaptive disabled.
      EngineConfig ref_cfg = cfg;
      ref_cfg.adaptive_view_budget_bytes = 0;
      auto reference = ContextSearchEngine::Build(full, ref_cfg).value();

      Corpus prefix = full;
      prefix.docs.resize(kPrefix);
      prefix.config.num_docs = kPrefix;
      auto adaptive = ContextSearchEngine::Build(prefix, cfg).value();
      WarmAdaptive(*adaptive, qs);
      uint32_t pos = kPrefix;
      int batch = 0;
      while (pos < kDocs) {
        uint32_t end = std::min(pos + 200u, kDocs);
        ASSERT_TRUE(adaptive
                        ->AppendDocuments(std::vector<Document>(
                            full.docs.begin() + pos, full.docs.begin() + end))
                        .ok());
        pos = end;
        if (++batch % 2 == 0) adaptive->MergeOnce();
        // Queries between appends serve over stale residents (per-part
        // straightforward fallback); steps top residents up.
        WarmAdaptive(*adaptive, qs, /*rounds=*/1);
      }
      ASSERT_EQ(adaptive->total_docs(), kDocs);
      CompareEngines(*adaptive, *reference, qs,
                     std::string(codec.name) + "/" + ranking);
      ASSERT_NE(adaptive->adaptive(), nullptr);
      EXPECT_GT(adaptive->adaptive()->telemetry().installs, 0u);
    }
  }
}

// A budget that fits either of qa's / qb's views alone but never both:
// measured from a throwaway engine (installs both under a loose budget,
// reads actual resident bytes) so the crunch is real whatever the corpus
// shape does to view sizes.
uint64_t TightBudget(const Corpus& corpus, const ContextQuery& qa,
                     const ContextQuery& qb) {
  EngineConfig cfg = AdaptiveConfig();
  auto engine = ContextSearchEngine::Build(corpus, cfg).value();
  for (const ContextQuery* q : {&qa, &qb}) {
    EXPECT_TRUE(engine->Search(*q, EvaluationMode::kContextWithViews).ok());
    EXPECT_TRUE(engine->AdaptiveStep());
  }
  auto version = engine->adaptive()->Snapshot();
  EXPECT_EQ(version->views.size(), 2u);
  return version->resident_bytes - 1;
}

TEST(AdaptiveEngineTest, MidEvictionQueriesStayIdentical) {
  Corpus corpus = MakeCorpus();
  ContextQuery qa{{40, 41}, {0}};
  ContextQuery qb{{60, 61}, {1}};
  EngineConfig cfg = AdaptiveConfig();
  cfg.adaptive_view_budget_bytes = TightBudget(corpus, qa, qb);
  // b's score grows by the measured cost of its straightforward misses; a
  // context-set cache hit would shrink that cost after b's first query
  // and stretch the flip past the loop below on a slow (sanitized) build.
  cfg.context_set_cache_bytes = 0;
  auto engine = ContextSearchEngine::Build(corpus, cfg).value();
  auto ref_a = engine->Search(qa, EvaluationMode::kContextStraightforward);
  auto ref_b = engine->Search(qb, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(ref_a.ok());
  ASSERT_TRUE(ref_b.ok());

  // Install a's view; the budget has no room for b's beside it.
  ASSERT_TRUE(engine->Search(qa, EvaluationMode::kContextWithViews).ok());
  ASSERT_TRUE(engine->AdaptiveStep());
  const AdaptiveViewController* ctl = engine->adaptive();
  ASSERT_NE(ctl, nullptr);
  ASSERT_EQ(ctl->telemetry().installs, 1u);

  // Hammer b (several misses per round, so its score outruns a's hit
  // credits past the hysteresis factor) until the flip happens; a's
  // queries interleave with the eviction and must stay identical
  // whichever side of the republish they land on.
  for (int i = 0; i < 40 && ctl->telemetry().evictions == 0; ++i) {
    for (int j = 0; j < 4; ++j) {
      ASSERT_TRUE(engine->Search(qb, EvaluationMode::kContextWithViews).ok());
    }
    engine->AdaptiveStep();
    auto mid = engine->Search(qa, EvaluationMode::kContextWithViews);
    ASSERT_TRUE(mid.ok());
    ExpectIdentical(*mid, *ref_a, "mid-flip a, iter " + std::to_string(i));
  }
  ASSERT_GT(ctl->telemetry().evictions, 0u);
  auto after_b = engine->Search(qb, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(after_b.ok());
  EXPECT_TRUE(after_b->metrics.used_adaptive_view);
  ExpectIdentical(*after_b, *ref_b, "b after install");
  EXPECT_LE(engine->adaptive()->Snapshot()->resident_bytes,
            cfg.adaptive_view_budget_bytes);
}

// Satellite (StatsCache audit): an adaptively materialized view flipping
// out of and back into the cache must never change what the stats cache
// serves. Cached entries are EXACT statistics keyed by collection epoch —
// plan-independent — so install/evict needs no epoch bump; this test is
// the regression proof.
TEST(AdaptiveEngineTest, StatsCacheServesExactStatsAcrossViewFlips) {
  Corpus corpus = MakeCorpus();
  ContextQuery qa{{40, 41}, {0}};
  ContextQuery qb{{60, 61}, {1}};
  EngineConfig cfg = AdaptiveConfig();
  cfg.adaptive_view_budget_bytes = TightBudget(corpus, qa, qb);
  cfg.stats_cache_capacity = 256;
  cfg.context_set_cache_bytes = 0;  // misses fund the flips, as above
  auto engine = ContextSearchEngine::Build(corpus, cfg).value();
  // The reference comes from a separate engine: the stats cache is shared
  // across evaluation modes, so a straightforward query here would
  // pre-fill qa's cache entry and hide the adaptive path entirely.
  EngineConfig ref_cfg = AdaptiveConfig();
  ref_cfg.adaptive_view_budget_bytes = 0;
  auto ref_engine = ContextSearchEngine::Build(corpus, ref_cfg).value();
  auto reference =
      ref_engine->Search(qa, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(reference.ok());

  auto check = [&](const std::string& label) {
    auto r = engine->Search(qa, EvaluationMode::kContextWithViews);
    ASSERT_TRUE(r.ok());
    ExpectIdentical(*r, *reference, label);
  };
  check("cold (fills cache)");
  ASSERT_TRUE(engine->AdaptiveStep());  // a's view installs
  check("view resident");

  // Force a out via competition for the tight budget. A repeated query is
  // a stats-cache hit and never reaches the estimator, so the pressure
  // stream varies the keywords (fresh cache keys) while keeping the
  // context fixed — exactly a hot context with diverse queries.
  const AdaptiveViewController* ctl = engine->adaptive();
  ASSERT_NE(ctl, nullptr);
  for (int i = 0; i < 60 && ctl->telemetry().evictions == 0; ++i) {
    ContextQuery q{{static_cast<TermId>(60 + i), 61}, {1}};
    ASSERT_TRUE(engine->Search(q, EvaluationMode::kContextWithViews).ok());
    engine->AdaptiveStep();
  }
  ASSERT_GT(ctl->telemetry().evictions, 0u);
  check("after a's view was evicted");

  // And back in: pressure from a's context until its view is resident
  // again. The cached entry for qa must stay exact across the whole
  // out-and-back-in flip — this is the regression proof that adaptive
  // install/evict needs no stats-cache epoch bump (entries are exact
  // statistics keyed by collection epoch, not by plan).
  for (int i = 0;
       i < 60 && ctl->Snapshot()->FindBest(qa.context) == nullptr; ++i) {
    ContextQuery q{{static_cast<TermId>(40 + i), 41}, {0}};
    ASSERT_TRUE(engine->Search(q, EvaluationMode::kContextWithViews).ok());
    engine->AdaptiveStep();
  }
  ASSERT_NE(ctl->Snapshot()->FindBest(qa.context), nullptr);
  check("rematerialized");
}

// Satellite (merge race): a build over a pinned LiveSet snapshot races a
// SegmentMerger merge that retires segments mid-build. The installed view
// must be exact for the snapshot it pinned (stale parts answered
// per-part), never installed with a mismatched base extent — and the
// refresh path must converge it back to the live layout.
TEST(AdaptiveEngineTest, BuildRacingMergeStaysCorrectAndConverges) {
  Corpus full = MakeCorpus();
  EngineConfig cfg = AdaptiveConfig();
  cfg.mem_segment_max_docs = 128;
  cfg.merge_trigger_segments = 2;
  Corpus prefix = full;
  prefix.docs.resize(kPrefix);
  prefix.config.num_docs = kPrefix;
  auto engine = ContextSearchEngine::Build(prefix, cfg).value();
  ASSERT_TRUE(engine
                  ->AppendDocuments(std::vector<Document>(
                      full.docs.begin() + kPrefix, full.docs.end()))
                  .ok());
  ASSERT_GT(engine->SegmentInfos().size(), 2u);

  ContextQuery q{{40, 41}, {0}};
  auto reference = engine->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(engine->Search(q, EvaluationMode::kContextWithViews).ok());

  // Mid-build, merge away segments of the snapshot the builder pinned.
  int merges_fired = 0;
  engine->SetAdaptiveBuildInterceptForTest([&] {
    if (merges_fired == 0) {
      while (engine->MergeOnce()) ++merges_fired;
    }
  });
  ASSERT_TRUE(engine->AdaptiveStep());
  ASSERT_GT(merges_fired, 0) << "merge must actually race the build";
  engine->SetAdaptiveBuildInterceptForTest(nullptr);

  const AdaptiveViewController* ctl = engine->adaptive();
  ASSERT_NE(ctl, nullptr);
  ASSERT_EQ(ctl->telemetry().installs, 1u);
  // The view's base extent matches the engine's (never torn)...
  EXPECT_EQ(ctl->Snapshot()->views[0]->base_docs, engine->base_docs());

  // ...and queries over the merged layout stay exact: the merged segments
  // miss their deltas, so those parts fall back straightforwardly.
  auto stale = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->metrics.used_adaptive_view);
  ExpectIdentical(*stale, *reference, "stale resident after racing merge");
  EXPECT_GT(ctl->telemetry().stale_part_fallbacks, 0u);

  // Refresh converges the resident to the live epoch; afterwards a query
  // folds views for every part again (no new stale fallbacks).
  for (int i = 0; i < 4 && engine->AdaptiveStep(); ++i) {
  }
  uint64_t stale_before = ctl->telemetry().stale_part_fallbacks;
  auto fresh = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(fresh.ok());
  ExpectIdentical(*fresh, *reference, "refreshed resident");
  EXPECT_EQ(ctl->telemetry().stale_part_fallbacks, stale_before);
  EXPECT_GT(ctl->telemetry().refreshes, 0u);
}

TEST(AdaptiveEngineTest, ExclusiveMutatorsResetTheCache) {
  Corpus corpus = MakeCorpus();
  EngineConfig cfg = AdaptiveConfig();
  auto engine = ContextSearchEngine::Build(corpus, cfg).value();
  ContextQuery q{{40, 41}, {0}};
  ASSERT_TRUE(engine->Search(q, EvaluationMode::kContextWithViews).ok());
  ASSERT_TRUE(engine->AdaptiveStep());
  ASSERT_EQ(engine->adaptive()->Snapshot()->views.size(), 1u);

  // FlattenSegments invalidates the base extent residents were built
  // against; the guard drops them (queries revert to straightforward, so
  // results stay exact — just cold again).
  ASSERT_TRUE(engine->FlattenSegments().ok());
  EXPECT_TRUE(engine->adaptive()->Snapshot()->views.empty());
  auto r = engine->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->metrics.used_adaptive_view);
}

TEST(AdaptiveEngineTest, MetricsExportCacheTelemetry) {
  Corpus corpus = MakeCorpus();
  EngineConfig cfg = AdaptiveConfig();
  auto engine = ContextSearchEngine::Build(corpus, cfg).value();
  ContextQuery q{{40, 41}, {0}};
  ASSERT_TRUE(engine->Search(q, EvaluationMode::kContextWithViews).ok());
  ASSERT_TRUE(engine->AdaptiveStep());
  ASSERT_TRUE(engine->Search(q, EvaluationMode::kContextWithViews).ok());

  auto snap = engine->MetricsSnapshot();
  EXPECT_EQ(snap.counters["view.cache.installs"], 1u);
  EXPECT_GE(snap.counters["view.cache.hits"], 1u);
  EXPECT_GE(snap.counters["view.cache.misses"], 1u);
  EXPECT_GT(snap.gauges["view.cache.resident_bytes"], 0.0);
  EXPECT_GT(snap.gauges["view.cache.hit_rate"], 0.0);
  EXPECT_EQ(snap.gauges["view.cache.budget_bytes"],
            static_cast<double>(cfg.adaptive_view_budget_bytes));
  EXPECT_EQ(snap.counters["engine.plan.adaptive_view_hits"], 1u);
}

}  // namespace
}  // namespace csr
