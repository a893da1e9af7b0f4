// The oracle lane: whole answers — result_count, collection statistics,
// top-k docids and bit-identical scores — against a brute-force scan of
// the Corpus documents (tests/oracle.h). Every other differential lane
// compares the engine with itself (views vs straightforward, grown vs
// scratch, compressed vs plain); this one compares it with a scan that
// shares no code with it, so a fault in the conjunction every lane runs
// on still shows. Randomized seeds cover segment layouts (mid-ingest,
// merged, flattened), the stats cache, the context-set cache and the
// adaptive view cache each on and off, every codec, all four rankings and
// all three modes, with year ranges and unknown or empty terms.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "engine/engine.h"
#include "oracle.h"
#include "util/random.h"

namespace csr {
namespace {

constexpr uint32_t kDocs = 1500;
constexpr uint32_t kPrefix = 1000;

constexpr const char* kRankings[] = {"pivoted", "bm25", "dirichlet", "jm"};
constexpr EvaluationMode kModes[] = {EvaluationMode::kConventional,
                                     EvaluationMode::kContextStraightforward,
                                     EvaluationMode::kContextWithViews};
enum class Layout { kMidIngest, kMerged, kFlattened };

Corpus MakeCorpus() {
  CorpusConfig cfg;
  cfg.num_docs = kDocs;
  cfg.vocab_size = 1200;
  cfg.ontology_fanouts = {4, 3};
  cfg.seed = 2024;
  return CorpusGenerator(cfg).Generate().value();
}

/// 0-3 predicates from one document's annotations, sometimes an unknown
/// one; 0-4 keywords (repeats allowed: they feed tq) from another
/// document's tokens, sometimes an unknown one; a year range half the
/// time. Empty lists exercise the engine's typed rejections.
ContextQuery DrawQuery(SplitMix64& rng, const Corpus& corpus) {
  auto pick = [&]() -> const Document& {
    return corpus.docs[rng.NextBounded(corpus.docs.size())];
  };
  ContextQuery q;
  const TermIdSet& ann = pick().annotations;
  for (uint64_t i = rng.NextBounded(4); i > 0 && !ann.empty(); --i) {
    q.context.push_back(ann[rng.NextBounded(ann.size())]);
  }
  if (rng.NextBounded(8) == 0) q.context.push_back(900000);
  std::sort(q.context.begin(), q.context.end());
  q.context.erase(std::unique(q.context.begin(), q.context.end()),
                  q.context.end());
  const std::vector<TermId> tokens = pick().ContentTokens();
  for (uint64_t i = rng.NextBounded(5); i > 0 && !tokens.empty(); --i) {
    q.keywords.push_back(tokens[rng.NextBounded(tokens.size())]);
  }
  if (rng.NextBounded(8) == 0) q.keywords.push_back(corpus.config.vocab_size);
  if (rng.NextBounded(2) == 0) {
    const CorpusConfig& cc = corpus.config;
    const auto lo = static_cast<uint16_t>(
        cc.year_min + rng.NextBounded(cc.year_max - cc.year_min + 1));
    q.years = YearRange{
        lo, static_cast<uint16_t>(lo + rng.NextBounded(cc.year_max - lo + 1))};
  }
  return q;
}

/// An engine over the corpus prefix, grown to the whole corpus by appends
/// in small batches, then left mid-ingest, merged, or flattened.
std::unique_ptr<ContextSearchEngine> Grow(const Corpus& full,
                                          const EngineConfig& cfg,
                                          Layout layout) {
  Corpus prefix = full;
  prefix.docs.resize(kPrefix);
  prefix.config.num_docs = kPrefix;
  auto built = ContextSearchEngine::Build(std::move(prefix), cfg);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  auto engine = std::move(built).value();
  EXPECT_TRUE(engine
                  ->MaterializeViews({ViewDefinition{{0, 1, 2, 3}},
                                      ViewDefinition{{0, 1}},
                                      ViewDefinition{{4, 5}}})
                  .ok());
  for (uint32_t pos = kPrefix; pos < kDocs; pos += 125) {
    EXPECT_TRUE(engine
                    ->AppendDocuments(std::vector<Document>(
                        full.docs.begin() + pos,
                        full.docs.begin() + std::min(pos + 125, kDocs)))
                    .ok());
  }
  if (layout == Layout::kMerged) {
    while (engine->MergeOnce()) {
    }
  }
  if (layout == Layout::kFlattened) {
    EXPECT_TRUE(engine->FlattenSegments().ok());
  }
  return engine;
}

/// Which plans the draws reached, so the lane cannot pass vacuously.
/// Context-set hits are split by how the query's statistics were served:
/// from a view (the cached set answered untracked df and retrieval), or
/// by the straightforward plan of a with-views query that fell back.
struct Coverage {
  size_t nonempty = 0, view_hits = 0, adaptive_hits = 0, cache_hits = 0;
  size_t set_hits_view = 0, set_hits_straightforward = 0;
};

void ExpectOracle(const ContextSearchEngine& engine, const Corpus& full,
                  const ContextQuery& q, EvaluationMode mode, Coverage& cov) {
  auto r = engine.Search(q, mode);
  if (q.keywords.empty() ||
      (mode != EvaluationMode::kConventional && q.context.empty())) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    return;
  }
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const OracleAnswer want = OracleSearch(full.docs, kDocs, q, mode,
                                         engine.ranking(),
                                         engine.config().top_k);
  EXPECT_EQ(r->result_count, want.result_count);
  EXPECT_EQ(r->stats.cardinality, want.stats.cardinality);
  EXPECT_EQ(r->stats.total_length, want.stats.total_length);
  EXPECT_EQ(r->stats.df, want.stats.df);
  if (engine.ranking().NeedsTermCounts()) {
    EXPECT_EQ(r->stats.tc, want.stats.tc);
  }
  ASSERT_EQ(r->top_docs.size(), want.top_docs.size());
  for (size_t i = 0; i < want.top_docs.size(); ++i) {
    EXPECT_EQ(r->top_docs[i].doc, want.top_docs[i].doc) << "rank " << i;
    EXPECT_EQ(r->top_docs[i].score, want.top_docs[i].score) << "rank " << i;
  }
  EXPECT_FALSE(r->metrics.degraded);
  cov.nonempty += r->result_count > 0;
  cov.view_hits += r->metrics.used_view;
  cov.adaptive_hits += r->metrics.used_adaptive_view;
  cov.cache_hits += r->metrics.stats_cache_hit;
  if (r->metrics.context_set_hits > 0) {
    ++(r->metrics.used_view ? cov.set_hits_view
                            : cov.set_hits_straightforward);
  }
}

TEST(OracleTest, WholeAnswersMatchABruteForceScan) {
  const Corpus full = MakeCorpus();
  Coverage cov;
  // Seeds walk every (ranking, layout, stats cache) combination, with the
  // adaptive cache and the context-set cache alternating across them and
  // the codec drawn.
  for (uint64_t seed = 0; seed < 24; ++seed) {
    SplitMix64 rng(0x0AC1E + seed);
    EngineConfig cfg;
    cfg.top_k = 10;
    cfg.estimator_sample = 1000;
    cfg.ranking = kRankings[seed % 4];
    // The language models read tc, so their views must carry it.
    cfg.track_tc = seed % 4 >= 2 || rng.NextBounded(2) == 0;
    cfg.mem_segment_max_docs = 200;
    cfg.merge_trigger_segments = 2;
    cfg.stats_cache_capacity = (seed / 12) % 2 == 0 ? 0 : 64;
    cfg.context_set_cache_bytes = (seed / 3) % 2 == 0 ? 0 : 8u << 20;
    const bool adaptive = (seed + seed / 4) % 2 == 1;
    cfg.adaptive_view_budget_bytes = adaptive ? 8u << 20 : 0;
    cfg.adaptive_min_score_ms = 1e-5;
    const uint64_t codec = rng.NextBounded(3);
    cfg.compressed_postings = codec != 0;
    cfg.codec_policy =
        codec == 2 ? CodecPolicy::kBitmapPreferred : CodecPolicy::kAuto;
    const auto layout = static_cast<Layout>((seed / 4) % 3);
    auto engine = Grow(full, cfg, layout);
    std::vector<ContextQuery> queries;
    for (int i = 0; i < 10; ++i) queries.push_back(DrawQuery(rng, full));
    // Three passes: the later ones are served by whatever the earlier left
    // in the stats cache and the context-set cache (a context builds its
    // set on its first miss, so the later passes hit), and by
    // adaptive views installed in between.
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        for (EvaluationMode mode : kModes) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " ranking " +
                       cfg.ranking + " layout " +
                       std::to_string(static_cast<int>(layout)) + " codec " +
                       std::to_string(codec) + " pass " +
                       std::to_string(pass) + " query " + std::to_string(qi) +
                       " mode " + std::string(EvaluationModeName(mode)));
          ExpectOracle(*engine, full, queries[qi], mode, cov);
        }
      }
      while (adaptive && engine->AdaptiveStep()) {
      }
    }
  }
  // The draws must reach real conjunctions and every statistics source.
  EXPECT_GT(cov.nonempty, 200u);
  EXPECT_GT(cov.view_hits, 0u);
  EXPECT_GT(cov.adaptive_hits, 0u);
  EXPECT_GT(cov.cache_hits, 0u);
  EXPECT_GT(cov.set_hits_view, 0u);
  EXPECT_GT(cov.set_hits_straightforward, 0u);
}

}  // namespace
}  // namespace csr
