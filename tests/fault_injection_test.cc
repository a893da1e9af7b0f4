// Fault-injection suite: armed storage/decode/posting faults, quarantine of
// corrupt view frames, and graceful query degradation. Run with
// `ctest -L fault` (optionally under -DCSR_SANITIZE=address).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "engine/engine.h"
#include "oracle.h"
#include "storage/serializer.h"
#include "storage/snapshot.h"
#include "util/fault.h"
#include "util/retry.h"

namespace csr {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("csr_fault_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string path(const std::string& name = "") const {
    return name.empty() ? path_.string() : (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

Corpus SmallCorpus() {
  CorpusConfig cfg;
  cfg.num_docs = 3000;
  cfg.vocab_size = 1500;
  cfg.ontology_fanouts = {4, 3};
  cfg.seed = 5;
  return CorpusGenerator(cfg).Generate().value();
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  if (f != nullptr) {
    char buf[1 << 14];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
    std::fclose(f);
  }
  return out;
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

// Every test leaves the process-wide injector clean for the next one.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().DisarmAll(); }
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }
};

// -- FaultInjector semantics ------------------------------------------------

using FaultInjectorTest = FaultTest;

TEST_F(FaultInjectorTest, OneShotNthHitSemantics) {
  auto& fi = FaultInjector::Instance();
  EXPECT_FALSE(FaultHit(FaultPoint::kStorageRead));
  const uint64_t trips_before = fi.trips(FaultPoint::kStorageRead);

  fi.Arm(FaultPoint::kStorageRead, 3);
  EXPECT_TRUE(fi.armed(FaultPoint::kStorageRead));
  EXPECT_FALSE(FaultHit(FaultPoint::kStorageRead));  // hit 1
  EXPECT_FALSE(FaultHit(FaultPoint::kStorageRead));  // hit 2
  EXPECT_TRUE(FaultHit(FaultPoint::kStorageRead));   // hit 3 fires

  // One-shot: fired exactly once, then self-disarmed.
  EXPECT_FALSE(fi.armed(FaultPoint::kStorageRead));
  EXPECT_FALSE(FaultHit(FaultPoint::kStorageRead));
  EXPECT_EQ(fi.trips(FaultPoint::kStorageRead), trips_before + 1);
}

TEST_F(FaultInjectorTest, ArmingIsPerPoint) {
  auto& fi = FaultInjector::Instance();
  fi.Arm(FaultPoint::kViewDecode, 1);
  EXPECT_FALSE(FaultHit(FaultPoint::kStorageRead));
  EXPECT_FALSE(FaultHit(FaultPoint::kStorageWrite));
  EXPECT_TRUE(FaultHit(FaultPoint::kViewDecode));
}

TEST_F(FaultInjectorTest, ScopedFaultDisarmsOnScopeExit) {
  auto& fi = FaultInjector::Instance();
  {
    ScopedFault f(FaultPoint::kViewDecode, 100);
    EXPECT_TRUE(fi.armed(FaultPoint::kViewDecode));
  }
  EXPECT_FALSE(fi.armed(FaultPoint::kViewDecode));
  EXPECT_FALSE(FaultHit(FaultPoint::kViewDecode));
}

TEST_F(FaultInjectorTest, RateTriggerIsDeterministicUnderFixedSeed) {
  auto& fi = FaultInjector::Instance();
  constexpr int kHits = 2000;
  constexpr double kRate = 0.1;
  constexpr uint64_t kSeed = 42;

  // Record the exact trip pattern of one run...
  fi.ArmRate(FaultPoint::kPostingAdvance, kRate, kSeed);
  EXPECT_TRUE(fi.armed(FaultPoint::kPostingAdvance));
  EXPECT_DOUBLE_EQ(fi.rate(FaultPoint::kPostingAdvance), kRate);
  std::vector<bool> pattern;
  for (int i = 0; i < kHits; ++i) {
    pattern.push_back(FaultHit(FaultPoint::kPostingAdvance));
  }
  int trips = static_cast<int>(
      std::count(pattern.begin(), pattern.end(), true));
  // ~10% of 2000 = 200; a wildly off count means the threshold math is
  // broken (e.g. rate scaled wrong), not bad luck.
  EXPECT_GT(trips, 120);
  EXPECT_LT(trips, 280);

  // ...then re-arm with the same (rate, seed) and require bit-identical
  // decisions, hit for hit.
  fi.ArmRate(FaultPoint::kPostingAdvance, kRate, kSeed);
  for (int i = 0; i < kHits; ++i) {
    EXPECT_EQ(FaultHit(FaultPoint::kPostingAdvance), pattern[i]) << i;
  }

  // A different seed yields a different pattern (astronomically likely).
  fi.ArmRate(FaultPoint::kPostingAdvance, kRate, kSeed + 1);
  std::vector<bool> other;
  for (int i = 0; i < kHits; ++i) {
    other.push_back(FaultHit(FaultPoint::kPostingAdvance));
  }
  EXPECT_NE(pattern, other);
}

TEST_F(FaultInjectorTest, RateOneFiresEveryHitRateZeroDisarms) {
  auto& fi = FaultInjector::Instance();
  fi.ArmRate(FaultPoint::kViewRead, 1.0);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(FaultHit(FaultPoint::kViewRead));
  fi.ArmRate(FaultPoint::kViewRead, 0.0);
  EXPECT_FALSE(fi.armed(FaultPoint::kViewRead));
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(FaultHit(FaultPoint::kViewRead));
}

TEST_F(FaultInjectorTest, DisarmClearsBothTriggers) {
  auto& fi = FaultInjector::Instance();
  fi.Arm(FaultPoint::kViewRead, 100);
  fi.ArmRate(FaultPoint::kViewRead, 1.0);
  EXPECT_TRUE(fi.armed(FaultPoint::kViewRead));
  fi.Disarm(FaultPoint::kViewRead);
  EXPECT_FALSE(fi.armed(FaultPoint::kViewRead));
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(FaultHit(FaultPoint::kViewRead));
  }
}

TEST_F(FaultInjectorTest, OneShotKeepsExactlyOnceAlongsideRateTrigger) {
  auto& fi = FaultInjector::Instance();
  const uint64_t trips_before = fi.trips(FaultPoint::kViewDecode);
  // Rate 0-probability stream + one-shot on the 3rd hit: only the
  // one-shot fires, exactly once, and the point self-disarms down to the
  // (still armed, never firing) rate trigger.
  fi.ArmRate(FaultPoint::kViewDecode, 1e-18, /*seed=*/7);
  fi.Arm(FaultPoint::kViewDecode, 3);
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    if (FaultHit(FaultPoint::kViewDecode)) fired++;
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fi.trips(FaultPoint::kViewDecode), trips_before + 1);
  EXPECT_TRUE(fi.armed(FaultPoint::kViewDecode));  // rate trigger remains
}

TEST_F(FaultInjectorTest, ScopedFaultRateDisarmsOnScopeExit) {
  auto& fi = FaultInjector::Instance();
  {
    ScopedFaultRate f(FaultPoint::kViewRead, 0.5, /*seed=*/9);
    EXPECT_TRUE(fi.armed(FaultPoint::kViewRead));
  }
  EXPECT_FALSE(fi.armed(FaultPoint::kViewRead));
}

TEST_F(FaultInjectorTest, PointNamesAreDistinct) {
  std::vector<std::string_view> names;
  for (size_t i = 0; i < kNumFaultPoints; ++i) {
    std::string_view n = FaultPointName(static_cast<FaultPoint>(i));
    EXPECT_FALSE(n.empty());
    EXPECT_NE(n, "unknown");
    for (std::string_view seen : names) EXPECT_NE(n, seen);
    names.push_back(n);
  }
}

// -- Storage faults ---------------------------------------------------------

using StorageFaultTest = FaultTest;

TEST_F(StorageFaultTest, WriteFaultLeavesPreviousFileIntact) {
  TempDir dir;
  BinaryWriter w1;
  w1.PutString("durable");
  ASSERT_TRUE(w1.WriteFile(dir.path("f.bin"), 0x2222).ok());

  {
    ScopedFault f(FaultPoint::kStorageWrite);
    BinaryWriter w2;
    w2.PutString("lost");
    Status s = w2.WriteFile(dir.path("f.bin"), 0x2222);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInternal);
  }

  // The fault fired before any byte moved: no temp debris, old content
  // still loadable.
  EXPECT_FALSE(std::filesystem::exists(dir.path("f.bin.tmp")));
  auto r = BinaryReader::OpenFile(dir.path("f.bin"), 0x2222);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string s;
  ASSERT_TRUE(r->GetString(&s).ok());
  EXPECT_EQ(s, "durable");
}

TEST_F(StorageFaultTest, ReadFaultIsTypedUnavailable) {
  TempDir dir;
  BinaryWriter w;
  w.PutString("payload");
  ASSERT_TRUE(w.WriteFile(dir.path("f.bin"), 0x3333).ok());

  // Injected read faults are transient (kUnavailable), distinct from real
  // corruption (kDataLoss): only the former is a legal retry target. The
  // default OpenOptions do not retry, so one fault = one failure here.
  ScopedFault f(FaultPoint::kStorageRead);
  auto r = BinaryReader::OpenFile(dir.path("f.bin"), 0x3333);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  // One-shot: the resubmission succeeds.
  auto retry = BinaryReader::OpenFile(dir.path("f.bin"), 0x3333);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(StorageFaultTest, OpenRetriesTransientFaultWithinBudget) {
  TempDir dir;
  BinaryWriter w;
  w.PutString("payload");
  ASSERT_TRUE(w.WriteFile(dir.path("f.bin"), 0x3333).ok());
  RetryBudget::Global().Reset();

  // One armed fault, retry-enabled open: the first attempt trips, the
  // in-call retry succeeds — the caller never sees the fault.
  ScopedFault f(FaultPoint::kStorageRead);
  OpenOptions o;
  o.retry.max_attempts = 3;
  auto r = BinaryReader::OpenFile(dir.path("f.bin"), 0x3333, o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(RetryBudget::Global().withdrawals(), 1u);
  EXPECT_EQ(RetryBudget::Global().deposits(), 1u);
}

TEST_F(StorageFaultTest, CorruptionIsNeverRetried) {
  TempDir dir;
  BinaryWriter w;
  w.PutString("a reasonably long payload");
  ASSERT_TRUE(w.WriteFile(dir.path("f.bin"), 0x3333).ok());
  std::FILE* fp = std::fopen(dir.path("f.bin").c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 14, SEEK_SET);
  std::fputc('X', fp);
  std::fclose(fp);

  RetryBudget::Global().Reset();
  OpenOptions o;
  o.retry.max_attempts = 3;
  auto r = BinaryReader::OpenFile(dir.path("f.bin"), 0x3333, o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  // Rereading corrupt bytes cannot help: no budget token was spent.
  EXPECT_EQ(RetryBudget::Global().withdrawals(), 0u);
}

TEST_F(StorageFaultTest, DrainedBudgetFailsFastInsteadOfRetrying) {
  TempDir dir;
  BinaryWriter w;
  w.PutString("payload");
  ASSERT_TRUE(w.WriteFile(dir.path("f.bin"), 0x3333).ok());

  RetryBudget drained(/*capacity=*/0.0);
  EXPECT_FALSE(drained.TryWithdraw());
  EXPECT_EQ(drained.denials(), 1u);

  // The global budget variant: arm a persistent fault, drain the bucket,
  // and verify the open gives up after the denial instead of sleeping
  // through max_attempts.
  RetryBudget::Global().Reset();
  while (RetryBudget::Global().TryWithdraw()) {
  }
  uint64_t denials_before = RetryBudget::Global().denials();
  ScopedFault f(FaultPoint::kStorageRead);
  OpenOptions o;
  o.retry.max_attempts = 5;
  auto r = BinaryReader::OpenFile(dir.path("f.bin"), 0x3333, o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(RetryBudget::Global().denials(), denials_before + 1);
  RetryBudget::Global().Reset();
}

// -- View decode faults and quarantine --------------------------------------

using ViewFaultTest = FaultTest;

TEST_F(ViewFaultTest, DecodeFaultQuarantinesExactlyTheArmedView) {
  TempDir dir;
  EngineConfig ecfg;
  ecfg.estimator_sample = 2000;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();
  std::vector<ViewDefinition> defs(3);
  defs[0].keyword_columns = {0};
  defs[1].keyword_columns = {1};
  defs[2].keyword_columns = {2};
  ASSERT_TRUE(engine->MaterializeViews(defs).ok());
  const TermIdSet second_def = engine->catalog().view(1).def().keyword_columns;
  ASSERT_TRUE(SaveViews(engine->catalog(), engine->tracked(),
                        dir.path("views.csr"))
                  .ok());

  ScopedFault f(FaultPoint::kViewDecode, 2);
  auto loaded = LoadViews(dir.path("views.csr"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->catalog.size(), 2u);
  ASSERT_EQ(loaded->catalog.quarantined().size(), 1u);
  EXPECT_EQ(loaded->catalog.quarantined()[0].keyword_columns, second_def);
  EXPECT_NE(loaded->catalog.quarantined()[0].reason.find("injected"),
            std::string::npos);
}

// -- End-to-end: corrupted snapshot view, degraded query --------------------

using SnapshotFaultTest = FaultTest;

TEST_F(SnapshotFaultTest, CorruptedViewQuarantinedAndQueriesDegrade) {
  TempDir dir;
  EngineConfig ecfg;
  ecfg.top_k = 10;
  ecfg.estimator_sample = 2000;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();
  std::vector<ViewDefinition> defs(2);
  defs[0].keyword_columns = {0};
  defs[1].keyword_columns = {1};
  ASSERT_TRUE(engine->MaterializeViews(defs).ok());
  ASSERT_TRUE(SaveEngineSnapshot(*engine, dir.path()).ok());

  // Flip one bit in the last payload byte of views.csr — the tail of the
  // last view's frame (the 8 bytes after it are the container checksum).
  std::string bytes = ReadFileBytes(dir.path("views.csr"));
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() - 9] = static_cast<char>(bytes[bytes.size() - 9] ^ 0x01);
  WriteFileBytes(dir.path("views.csr"), bytes);

  auto loaded_r = LoadEngineSnapshot(dir.path(), ecfg);
  ASSERT_TRUE(loaded_r.ok()) << loaded_r.status().ToString();
  auto loaded = std::move(loaded_r).value();

  // Exactly the corrupted view is gone; the rest of the catalog loaded.
  EXPECT_EQ(loaded->catalog().size(), 1u);
  ASSERT_EQ(loaded->catalog().quarantined().size(), 1u);
  EXPECT_EQ(loaded->catalog().quarantined()[0].reason,
            "view frame checksum mismatch");
  EXPECT_EQ(loaded->degradation().views_quarantined, 1u);

  ASSERT_EQ(loaded->catalog().quarantined()[0].keyword_columns.size(), 1u);
  const TermId bad_ctx = loaded->catalog().quarantined()[0].keyword_columns[0];
  const TermId good_ctx = loaded->catalog().view(0).def().keyword_columns[0];
  ASSERT_NE(bad_ctx, good_ctx);

  const CorpusConfig& cc = loaded->corpus().config;
  auto topical = [&](TermId c) {
    return CorpusGenerator::ConceptTopicalTerm(c, 0, cc.vocab_size,
                                               cc.topical_window);
  };

  // The affected context is answered by the straightforward plan, flagged
  // degraded with an attributable reason, and ranks identically to the
  // intact engine.
  ContextQuery affected{{topical(bad_ctx)}, {bad_ctx}};
  auto impaired = loaded->Search(affected, EvaluationMode::kContextWithViews);
  auto intact = engine->Search(affected, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(impaired.ok()) << impaired.status().ToString();
  ASSERT_TRUE(intact.ok());
  EXPECT_FALSE(impaired->metrics.used_view);
  EXPECT_TRUE(impaired->metrics.fell_back_to_straightforward);
  EXPECT_TRUE(impaired->metrics.degraded);
  EXPECT_NE(impaired->metrics.degraded_reason.find("quarantined"),
            std::string::npos);
  ASSERT_FALSE(impaired->top_docs.empty());
  ASSERT_EQ(impaired->top_docs.size(), intact->top_docs.size());
  for (size_t i = 0; i < intact->top_docs.size(); ++i) {
    EXPECT_EQ(impaired->top_docs[i].doc, intact->top_docs[i].doc);
    EXPECT_DOUBLE_EQ(impaired->top_docs[i].score, intact->top_docs[i].score);
  }
  EXPECT_EQ(loaded->degradation().quarantine_fallbacks, 1u);
  EXPECT_EQ(loaded->degradation().degraded_queries, 1u);

  // An unaffected context is still view-backed, undegraded, and identical.
  ContextQuery unaffected{{topical(good_ctx)}, {good_ctx}};
  auto healthy = loaded->Search(unaffected, EvaluationMode::kContextWithViews);
  auto baseline = engine->Search(unaffected, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(healthy->metrics.used_view);
  EXPECT_FALSE(healthy->metrics.degraded);
  ASSERT_EQ(healthy->top_docs.size(), baseline->top_docs.size());
  for (size_t i = 0; i < baseline->top_docs.size(); ++i) {
    EXPECT_EQ(healthy->top_docs[i].doc, baseline->top_docs[i].doc);
    EXPECT_DOUBLE_EQ(healthy->top_docs[i].score, baseline->top_docs[i].score);
  }
  EXPECT_EQ(loaded->degradation().degraded_queries, 1u);
}

// -- Query-time degradation ------------------------------------------------

using DegradationTest = FaultTest;

ContextQuery Concept0Query(const ContextSearchEngine& engine) {
  const CorpusConfig& cc = engine.corpus().config;
  TermId w = CorpusGenerator::ConceptTopicalTerm(0, 0, cc.vocab_size,
                                                 cc.topical_window);
  return ContextQuery{{w}, {0}};
}

TEST_F(DegradationTest, PostingFaultDegradesToPopulatedResult) {
  EngineConfig ecfg;
  ecfg.estimator_sample = 2000;  // degrade_gracefully defaults to true
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();

  // The one-shot fault fires early in the statistics phase; the reprieved
  // retrieval then runs to completion, so the result is populated and
  // degraded rather than an error or an empty success.
  ScopedFault f(FaultPoint::kPostingAdvance, 5);
  auto r = engine->Search(Concept0Query(*engine),
                          EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->metrics.degraded);
  EXPECT_NE(r->metrics.degraded_reason.find("fault"), std::string::npos);
  EXPECT_FALSE(r->top_docs.empty());
  EXPECT_GT(r->result_count, 0u);
  EXPECT_EQ(engine->degradation().fault_trips, 1u);
  EXPECT_EQ(engine->degradation().degraded_queries, 1u);
}

TEST_F(DegradationTest, BudgetExhaustionNeverEmptyOnSuccess) {
  EngineConfig ecfg;
  ecfg.estimator_sample = 2000;
  ecfg.posting_scan_budget = 40;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();

  auto r = engine->Search(Concept0Query(*engine),
                          EvaluationMode::kContextStraightforward);
  if (r.ok()) {
    // A degraded success must be populated: an empty "ok" would be
    // indistinguishable from a genuine empty result.
    EXPECT_TRUE(r->metrics.degraded);
    EXPECT_FALSE(r->top_docs.empty());
    EXPECT_GT(r->result_count, 0u);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_GT(engine->degradation().budget_hits, 0u);
}

TEST_F(DegradationTest, FailFastBudgetReturnsResourceExhausted) {
  EngineConfig ecfg;
  ecfg.estimator_sample = 2000;
  ecfg.posting_scan_budget = 1;
  ecfg.degrade_gracefully = false;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();

  auto r = engine->Search(Concept0Query(*engine),
                          EvaluationMode::kContextStraightforward);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(engine->degradation().budget_hits, 0u);
}

TEST_F(DegradationTest, FailFastDeadlineReturnsDeadlineExceeded) {
  EngineConfig ecfg;
  ecfg.estimator_sample = 2000;
  ecfg.deadline_ms = 1e-7;  // expires before the first poll
  ecfg.degrade_gracefully = false;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();

  auto r = engine->Search(Concept0Query(*engine),
                          EvaluationMode::kContextStraightforward);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(engine->degradation().deadline_hits, 0u);
}

TEST_F(DegradationTest, FailFastPostingFaultReturnsDataLoss) {
  EngineConfig ecfg;
  ecfg.estimator_sample = 2000;
  ecfg.degrade_gracefully = false;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();

  ScopedFault f(FaultPoint::kPostingAdvance, 1);
  auto r = engine->Search(Concept0Query(*engine),
                          EvaluationMode::kContextStraightforward);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(engine->degradation().fault_trips, 1u);
}

TEST_F(DegradationTest, UnguardedQueriesAreUnaffected) {
  EngineConfig ecfg;
  ecfg.estimator_sample = 2000;  // no deadline, no budget, nothing armed
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();

  auto r = engine->Search(Concept0Query(*engine),
                          EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->metrics.degraded);
  EXPECT_TRUE(r->metrics.degraded_reason.empty());
  EXPECT_FALSE(r->top_docs.empty());
  const DegradationStats& d = engine->degradation();
  EXPECT_EQ(d.deadline_hits + d.budget_hits + d.fault_trips +
                d.degraded_queries + d.quarantine_fallbacks,
            0u);
}

TEST_F(DegradationTest, StatsTripNeverLeaksAPartialContextSetIntoRetrieval) {
  EngineConfig ecfg;
  ecfg.estimator_sample = 2000;
  auto reference = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();
  const ContextQuery q = Concept0Query(*reference);

  // Ticks the context-set build takes, and ticks the degraded retrieval
  // takes: conventional mode runs the same keyword ⋈ predicate-list
  // conjunction and ticks nothing in its stats phase.
  ScanGuard build_guard(/*deadline_ms=*/0, /*posting_budget=*/0);
  ContextSet full = ContextSet::Build(reference->content_index(),
                                      reference->predicate_index(), q.context,
                                      nullptr, {}, {}, &build_guard);
  ASSERT_TRUE(full.complete());
  auto conv = reference->BeginSearch(q, EvaluationMode::kConventional);
  ASSERT_TRUE(conv.ok());
  ASSERT_TRUE(reference->SearchStats(**conv).ok());
  ASSERT_TRUE(reference->SearchIntersect(**conv).ok());
  const uint64_t retrieval_ticks = (*conv)->guard.ticks();
  auto global = reference->FinishSearch(**conv);
  ASSERT_TRUE(global.ok());
  // A budget of exactly the retrieval's ticks trips the stats phase while
  // it builds D_P, and lets the reprieved retrieval run to completion.
  ASSERT_GT(retrieval_ticks, 0u);
  ASSERT_LT(retrieval_ticks, build_guard.ticks());
  auto exact =
      reference->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(exact.ok());

  ecfg.posting_scan_budget = retrieval_ticks;
  auto budgeted = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();
  auto r = budgeted->Search(q, EvaluationMode::kContextStraightforward);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->metrics.degraded);
  EXPECT_NE(r->metrics.degraded_reason.find("context statistics abandoned"),
            std::string::npos)
      << r->metrics.degraded_reason;
  EXPECT_EQ(r->metrics.degraded_reason.find("retrieval stopped early"),
            std::string::npos)
      << r->metrics.degraded_reason;
  EXPECT_EQ(budgeted->degradation().budget_hits, 1u);
  // The partial set was dropped: retrieval ranked the FULL conjunction,
  // with the global statistics — exactly the conventional answer.
  EXPECT_EQ(r->result_count, exact->result_count);
  EXPECT_EQ(r->result_count, global->result_count);
  ASSERT_EQ(r->top_docs.size(), global->top_docs.size());
  for (size_t i = 0; i < r->top_docs.size(); ++i) {
    EXPECT_EQ(r->top_docs[i].doc, global->top_docs[i].doc) << "rank " << i;
    EXPECT_EQ(r->top_docs[i].score, global->top_docs[i].score)
        << "rank " << i;
  }
}

// The context-set cache never costs a bounded query its exact answer. A
// view-served part with an untracked keyword answers its df by the L_w-driven
// chain; building D_P for the cache instead is driven by the predicate lists
// and charges more ticks. Under a posting budget that covers the chain but
// not the build, every rerun of the query must stay exact and equal to a
// cache-off engine's answer: a bounded query never builds for the cache.
TEST_F(DegradationTest, BoundedViewQueryNeverPaysForAContextSetBuild) {
  const Corpus corpus = SmallCorpus();
  auto make = [&](uint64_t cache_bytes, uint64_t budget, double deadline_ms) {
    EngineConfig cfg;
    cfg.estimator_sample = 2000;
    cfg.context_set_cache_bytes = cache_bytes;
    cfg.posting_scan_budget = budget;
    cfg.deadline_ms = deadline_ms;
    auto engine = ContextSearchEngine::Build(corpus, cfg).value();
    EXPECT_TRUE(engine->MaterializeViews({ViewDefinition{{0, 1, 2, 3}}}).ok());
    return engine;
  };
  // Context {1} is view-served; its second keyword has no view column.
  const CorpusConfig& cc = corpus.config;
  ContextQuery q;
  q.context = {1};
  q.keywords = {CorpusGenerator::ConceptTopicalTerm(1, 0, cc.vocab_size,
                                                    cc.topical_window)};
  auto plain = make(0, 0, 0);
  for (const Document& d : corpus.docs) {
    if (q.keywords.size() == 2) break;
    if (!std::binary_search(d.annotations.begin(), d.annotations.end(), 1u)) {
      continue;
    }
    for (TermId w : d.ContentTokens()) {
      if (!plain->tracked().IsTracked(w)) {
        q.keywords.push_back(w);
        break;
      }
    }
  }
  ASSERT_EQ(q.keywords.size(), 2u);

  // Whole-query ticks of the chain (cache off) and of a build-and-insert
  // run (cache on, nothing bounding the query).
  auto ticks_of = [&](const ContextSearchEngine& e) {
    auto ps = e.BeginSearch(q, EvaluationMode::kContextWithViews);
    EXPECT_TRUE(ps.ok());
    EXPECT_TRUE(e.SearchStats(**ps).ok());
    EXPECT_TRUE(e.SearchIntersect(**ps).ok());
    return (*ps)->guard.ticks();
  };
  const uint64_t chain_ticks = ticks_of(*plain);
  auto unbounded = make(8u << 20, 0, 0);
  const uint64_t build_ticks = ticks_of(*unbounded);
  ASSERT_EQ(unbounded->context_set_cache()->size(), 1u);
  ASSERT_GT(build_ticks, chain_ticks);

  auto want = plain->Search(q, EvaluationMode::kContextWithViews);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want->metrics.used_view);
  ASSERT_GE(want->metrics.keywords_uncovered_by_view, 1u);
  ASSERT_FALSE(want->metrics.degraded);

  // A budget of exactly the chain's ticks, then a deadline far off: both
  // bound the query, so neither run ever builds.
  for (auto [budget, deadline_ms] :
       {std::pair<uint64_t, double>{chain_ticks, 0.0}, {0, 60000.0}}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    auto cached = make(8u << 20, budget, deadline_ms);
    auto off = make(0, budget, deadline_ms);
    for (int run = 0; run < 4; ++run) {
      SCOPED_TRACE("run " + std::to_string(run));
      auto got = cached->Search(q, EvaluationMode::kContextWithViews);
      auto ref = off->Search(q, EvaluationMode::kContextWithViews);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_FALSE(got->metrics.degraded) << got->metrics.degraded_reason;
      EXPECT_FALSE(ref->metrics.degraded) << ref->metrics.degraded_reason;
      EXPECT_EQ(got->stats.df, want->stats.df);
      EXPECT_EQ(got->stats.df, ref->stats.df);
      EXPECT_EQ(got->stats.cardinality, ref->stats.cardinality);
      EXPECT_EQ(got->result_count, ref->result_count);
      ASSERT_EQ(got->top_docs.size(), ref->top_docs.size());
      for (size_t i = 0; i < ref->top_docs.size(); ++i) {
        EXPECT_EQ(got->top_docs[i].doc, ref->top_docs[i].doc) << "rank " << i;
        EXPECT_EQ(got->top_docs[i].score, ref->top_docs[i].score)
            << "rank " << i;
      }
    }
    EXPECT_EQ(cached->context_set_cache()->size(), 0u);
    EXPECT_EQ(cached->degradation().budget_hits, 0u);
  }
}

// A one-shot posting fault fired inside a multi-predicate D_P build: the
// build runs on the block kernels (the pairwise kernel for two compressed
// lists, plus a block-walk semijoin for a third), and the fault reaches
// them through their batched guard charges. The stats phase must abandon
// the context statistics, keep the partial set out of retrieval, and rank
// the full predicate-list conjunction with global statistics — exactly
// the conventional answer.
TEST_F(DegradationTest, FaultInsideBlockKernelContextSetBuildDegrades) {
  EngineConfig ecfg;
  ecfg.estimator_sample = 2000;
  auto engine = ContextSearchEngine::Build(SmallCorpus(), ecfg).value();
  ASSERT_TRUE(engine->predicate_index().compressed());
  const Corpus& corpus = engine->corpus();
  // A document with three predicates and a content token: its contexts
  // are non-empty and the query matches.
  const Document* doc = nullptr;
  for (const Document& d : corpus.docs) {
    if (d.annotations.size() >= 3 && !d.ContentTokens().empty()) {
      doc = &d;
      break;
    }
  }
  ASSERT_NE(doc, nullptr);
  const TermId keyword = doc->ContentTokens()[0];
  uint64_t fault_trips = 0;
  for (size_t m : {2u, 3u}) {
    SCOPED_TRACE(std::to_string(m) + " predicates");
    ContextQuery q;
    q.keywords = {keyword};
    q.context.assign(doc->annotations.end() - m, doc->annotations.end());

    ScanGuard build_guard(0, 0);
    ContextSet full = ContextSet::Build(engine->content_index(),
                                        engine->predicate_index(), q.context,
                                        nullptr, {}, {}, &build_guard);
    ASSERT_TRUE(full.complete());
    ASSERT_GT(full.Size(), 0u);
    ASSERT_GE(build_guard.ticks(), 2u);
    auto global = engine->Search(q, EvaluationMode::kConventional);
    ASSERT_TRUE(global.ok()) << global.status().ToString();

    // Two predicates: a hit midway through the pairwise kernel. Three: the
    // build's last tick, which the semijoin charges (a non-empty D_P leaves
    // a run docid inside the third list).
    ScopedFault f(FaultPoint::kPostingAdvance,
                  m == 2 ? build_guard.ticks() / 2 : build_guard.ticks());
    auto ps = engine->BeginSearch(q, EvaluationMode::kContextStraightforward);
    ASSERT_TRUE(ps.ok()) << ps.status().ToString();
    ASSERT_TRUE(engine->SearchStats(**ps).ok());
    for (const auto& set : (*ps)->context_sets) EXPECT_EQ(set, nullptr);
    ASSERT_TRUE(engine->SearchIntersect(**ps).ok());
    EXPECT_EQ((*ps)->set_parts, 0u);
    auto r = engine->FinishSearch(**ps);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->metrics.degraded);
    EXPECT_NE(r->metrics.degraded_reason.find("context statistics abandoned"),
              std::string::npos)
        << r->metrics.degraded_reason;
    EXPECT_EQ(r->metrics.degraded_reason.find("retrieval stopped early"),
              std::string::npos)
        << r->metrics.degraded_reason;
    EXPECT_EQ(engine->degradation().fault_trips, ++fault_trips);
    EXPECT_EQ(r->result_count, global->result_count);
    ASSERT_EQ(r->top_docs.size(), global->top_docs.size());
    for (size_t i = 0; i < r->top_docs.size(); ++i) {
      EXPECT_EQ(r->top_docs[i].doc, global->top_docs[i].doc) << "rank " << i;
      EXPECT_EQ(r->top_docs[i].score, global->top_docs[i].score)
          << "rank " << i;
    }
  }
}

// Degradation rung 3 on the conjunction engine: a posting budget that
// trips mid-retrieval ranks a docid prefix of the full conjunction —
// result_count and top-k equal the oracle's answer over the first
// result_count matches in docid order. Ticks pay for the shortest list's
// docids and every paid candidate is joined through the whole chain, so
// the prefix depends on the docids alone: plain, kAuto and
// kBitmapPreferred lists, over one part or three, stop at the same one.
TEST_F(DegradationTest, RetrievalTripRanksADocidPrefixOfTheConjunction) {
  const Corpus corpus = SmallCorpus();
  struct Rep {
    const char* name;
    bool compressed;
    CodecPolicy policy;
  };
  const Rep reps[] = {{"plain", false, CodecPolicy::kAuto},
                      {"auto", true, CodecPolicy::kAuto},
                      {"bitmap", true, CodecPolicy::kBitmapPreferred}};
  auto build = [&](const Rep& rep, size_t parts, uint64_t budget) {
    EngineConfig cfg;
    cfg.estimator_sample = 2000;
    cfg.compressed_postings = rep.compressed;
    cfg.codec_policy = rep.policy;
    cfg.mem_segment_max_docs = 1000;
    cfg.posting_scan_budget = budget;
    Corpus base = corpus;
    if (parts > 1) base.docs.resize(1000);
    base.config.num_docs = static_cast<uint32_t>(base.docs.size());
    auto engine = ContextSearchEngine::Build(std::move(base), cfg).value();
    if (parts > 1) {
      EXPECT_TRUE(engine
                      ->AppendDocuments(std::vector<Document>(
                          corpus.docs.begin() + 1000, corpus.docs.end()))
                      .ok());
    }
    EXPECT_EQ(engine->SegmentInfos().size(), parts);
    return engine;
  };
  // The two most frequent of the first 64 terms, qualified by a root
  // concept: a broad three-list conjunction.
  auto probe = build(reps[0], 1, 0);
  std::vector<TermId> terms(64);
  for (TermId t = 0; t < terms.size(); ++t) terms[t] = t;
  std::partial_sort(terms.begin(), terms.begin() + 2, terms.end(),
                    [&](TermId a, TermId b) {
                      return probe->content_index().df(a) >
                             probe->content_index().df(b);
                    });
  const ContextQuery q{{terms[0], terms[1]}, {0}};
  const EvaluationMode mode = EvaluationMode::kConventional;

  for (size_t parts : {size_t{1}, size_t{3}}) {
    // Unbudgeted, retrieval takes the same ticks over every representation
    // (conventional statistics tick nothing).
    uint64_t ticks = 0;
    uint64_t full = 0;
    for (const Rep& rep : reps) {
      auto engine = build(rep, parts, 0);
      auto ps = engine->BeginSearch(q, mode);
      ASSERT_TRUE(ps.ok());
      ASSERT_TRUE(engine->SearchStats(**ps).ok());
      ASSERT_TRUE(engine->SearchIntersect(**ps).ok());
      if (ticks == 0) {
        ticks = (*ps)->guard.ticks();
        full = (*ps)->result.result_count;
      }
      EXPECT_EQ((*ps)->guard.ticks(), ticks) << rep.name;
      EXPECT_EQ((*ps)->result.result_count, full) << rep.name;
    }
    ASSERT_GT(full, 20u);
    for (uint64_t budget : {ticks / 3, 2 * ticks / 3}) {
      uint64_t prefix = 0;
      for (const Rep& rep : reps) {
        SCOPED_TRACE(std::string(rep.name) + ", " + std::to_string(parts) +
                     " parts, budget " + std::to_string(budget));
        auto engine = build(rep, parts, budget);
        auto r = engine->Search(q, mode);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_TRUE(r->metrics.degraded);
        EXPECT_NE(r->metrics.degraded_reason.find("retrieval stopped early"),
                  std::string::npos)
            << r->metrics.degraded_reason;
        EXPECT_GT(r->result_count, 0u);
        EXPECT_LT(r->result_count, full);
        if (prefix == 0) prefix = r->result_count;
        EXPECT_EQ(r->result_count, prefix);
        const OracleAnswer want =
            OracleSearch(corpus.docs, corpus.docs.size(), q, mode,
                         engine->ranking(), engine->config().top_k,
                         r->result_count);
        ASSERT_EQ(r->top_docs.size(), want.top_docs.size());
        for (size_t i = 0; i < want.top_docs.size(); ++i) {
          EXPECT_EQ(r->top_docs[i].doc, want.top_docs[i].doc) << "rank " << i;
          EXPECT_EQ(r->top_docs[i].score, want.top_docs[i].score)
              << "rank " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace csr
