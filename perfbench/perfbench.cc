// Seeded benchmark of the context-sensitive search engine: end-to-end
// latency and throughput of the paper's Figure 7/8 traffic and of live
// serving, plus a traced mode that attributes time and work to the engine's
// layers from outside, through the phased Search API and direct calls into
// the stats and views layers.
//
//   csr_perfbench --workload fig7_large|fig8_small|live_serve --seed N
//                 --seconds S --trace 0|1 [--spans PATH]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones; --spans writes the traced run's spans as JSON lines.
// The exit code is 0 only when every answer check passed. NOTES.md beside
// this file explains the workloads and metrics.

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "eval/query_gen.h"
#include "stats/collector.h"
#include "util/random.h"

namespace csr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// -- Fixed workload shape ---------------------------------------------------

constexpr uint32_t kCorpusDocs = 120000;
// Pool queries per keyword count (2..5), each drawn from kCandidatesPerQuery
// candidates generated from kCandidateSeed; live_serve draws half as many
// from each of its two pools.
constexpr uint32_t kQueriesPerKeywordCount = 250;
constexpr uint32_t kCandidatesPerQuery = 3;
constexpr uint64_t kCandidateSeed = 1000;
constexpr int kSetupRepeats = 3;                  // setup_s is their median
// live_serve: executor workers, queries kept in flight, and the ingest
// cadence: the engine is built without the corpus's last kHeldBackDocs
// documents, and every kCheckpointPairs submitted query pairs the client
// appends the next kIngestBatchDocs of them (until none are left), merges
// and steps the adaptive view cache.
constexpr uint32_t kLiveWorkers = 2;
constexpr size_t kLiveWindow = 8;
constexpr size_t kHeldBackDocs = 8000;
constexpr uint64_t kCheckpointPairs = 500;
constexpr size_t kIngestBatchDocs = 200;
// Adaptive view cache budget: below the resident bytes of the views the
// small-context pool would install, so the cache has to choose (NOTES.md).
constexpr uint64_t kAdaptiveBudgetBytes = 512 * 1024;
// live_serve traced run: phased query pairs the client runs itself at each
// ingest checkpoint.
constexpr uint32_t kTracedPairsPerCheckpoint = 16;
// Host speed probe (HostProbe): values sorted per probe, query pairs between
// probes, and the probe time the end-to-end figures are scaled to.
constexpr size_t kProbeValues = 20000;
constexpr uint32_t kProbeEveryPairs = 100;
constexpr double kProbeReferenceMs = 1.0;
constexpr int kProbesPerSetup = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      have_trace = std::string_view(v) == "0" || std::string_view(v) == "1";
      a.trace = std::string_view(v) == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace ||
      (a.workload != "fig7_large" && a.workload != "fig8_small" &&
       a.workload != "live_serve")) {
    return std::nullopt;
  }
  return a;
}

// -- Small statistics helpers ------------------------------------------------

/// Linear interpolation between order statistics; q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Quantile of a fixed-bucket histogram delta, interpolated linearly inside
/// the bucket that holds it (the overflow bucket reports its lower bound).
double HistogramQuantile(const HistogramSnapshot& after,
                         const HistogramSnapshot* before, double q) {
  std::vector<uint64_t> counts = after.counts;
  if (before != nullptr && before->counts.size() == counts.size()) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] -= before->counts[i];
  }
  uint64_t total = std::accumulate(counts.begin(), counts.end(), uint64_t{0});
  if (total == 0) return 0.0;
  double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (static_cast<double>(seen + counts[i]) >= rank && counts[i] > 0) {
      double lo = i == 0 ? 0.0 : after.bounds[i - 1];
      if (i >= after.bounds.size()) return lo;
      double frac = (rank - static_cast<double>(seen)) /
                    static_cast<double>(counts[i]);
      return lo + (after.bounds[i] - lo) * frac;
    }
    seen += counts[i];
  }
  return after.bounds.empty() ? 0.0 : after.bounds.back();
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

// -- Host speed probe -------------------------------------------------------

/// A fixed piece of work that does not use the engine, sorting kProbeValues
/// seeded integers, timed between queries. The host's speed drifts by tens of
/// percent over seconds to minutes, and the engine and the probe slow down
/// together (NOTES.md, "Seeds and noise"), so the end-to-end figures are
/// scaled to the host speed at which the probe takes kProbeReferenceMs.
class HostProbe {
 public:
  HostProbe() : values_(kProbeValues), scratch_(kProbeValues) {
    SplitMix64 rng(1);
    for (uint32_t& v : values_) v = static_cast<uint32_t>(rng.Next());
  }

  /// One timed sort. The untimed copy first brings both arrays into cache,
  /// so what the engine left in the caches does not show in the probe.
  void Run() {
    std::copy(values_.begin(), values_.end(), scratch_.begin());
    auto t0 = Clock::now();
    std::copy(values_.begin(), values_.end(), scratch_.begin());
    std::sort(scratch_.begin(), scratch_.end());
    samples_.push_back(MsBetween(t0, Clock::now()));
  }

  /// The probe's time at the faster moments of the run (10th percentile).
  double FastMs() const { return Quantile(samples_, 0.1); }

  /// Multiplies a time measured at the run's faster moments, as the best of
  /// several runs is, into reference-host time.
  double FastTimeScale() const {
    return samples_.empty() ? 1.0 : kProbeReferenceMs / FastMs();
  }

  /// Multiplies a time measured over a stretch of the run, slow moments
  /// included, into reference-host time.
  double TypicalTimeScale() const {
    return samples_.empty() ? 1.0
                            : kProbeReferenceMs / Quantile(samples_, 0.5);
  }

 private:
  std::vector<uint32_t> values_, scratch_;
  std::vector<double> samples_;
};

// -- Spans ------------------------------------------------------------------

/// In-memory span log of the traced run. Only one thread records, so no
/// synchronization; spans are written out once the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int32_t parent;
    uint32_t query;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int32_t Open(const char* name, int32_t parent, uint32_t query) {
    spans_.push_back(Span{name, parent, query, Clock::now(), {}});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) { spans_[static_cast<size_t>(id)].end = Clock::now(); }

  const std::vector<Span>& spans() const { return spans_; }

  static double DurationMs(const Span& s) { return MsBetween(s.start, s.end); }

  /// Each span's duration minus the part of it its children cover.
  std::vector<double> SelfMs() const {
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
      }
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = children[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      Clock::time_point cur_start{}, cur_end{};
      bool open = false;
      for (const auto& [s, e] : iv) {
        if (open && s <= cur_end) {
          cur_end = std::max(cur_end, e);
          continue;
        }
        if (open) covered += MsBetween(cur_start, cur_end);
        cur_start = s;
        cur_end = e;
        open = true;
      }
      if (open) covered += MsBetween(cur_start, cur_end);
      self[i] = DurationMs(spans_[i]) - covered;
    }
    return self;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    auto ns = [&](Clock::time_point t) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
              .count());
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"query\":%u,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.name, s.parent, s.query, ns(s.start), ns(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// -- Result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// -- Inputs -----------------------------------------------------------------

Corpus MakeCorpus() {
  // BenchCorpusConfig of the repository's figure benches, seed included:
  // the corpus is the same for every workload seed (NOTES.md, "Seeds").
  CorpusConfig cfg;
  cfg.num_docs = kCorpusDocs;
  cfg.vocab_size = 20000;
  cfg.ontology_fanouts = {12, 8, 6};
  cfg.seed = 42;
  auto corpus = CorpusGenerator(cfg).Generate();
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(corpus).value();
}

struct Setup {
  std::unique_ptr<ContextSearchEngine> engine;
  double setup_s = 0, build_s = 0, views_s = 0;  // as measured
  double time_scale = 1.0;  // HostProbe::TypicalTimeScale of the set-ups
};

/// Build + SelectAndMaterializeViews, kSetupRepeats times from copies of
/// `corpus`, with kProbesPerSetup host probes before each; reports medians
/// and keeps the last engine.
Setup BuildEngine(const Corpus& corpus, const EngineConfig& config) {
  Setup out;
  HostProbe probe;
  std::vector<double> total, build, views;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    out.engine.reset();
    Corpus copy = corpus;
    for (int i = 0; i < kProbesPerSetup; ++i) probe.Run();
    auto t0 = Clock::now();
    auto engine = ContextSearchEngine::Build(std::move(copy), config);
    auto t1 = Clock::now();
    if (!engine.ok()) {
      std::fprintf(stderr, "engine build failed: %s\n",
                   engine.status().ToString().c_str());
      std::exit(2);
    }
    out.engine = std::move(engine).value();
    if (Status s = out.engine->SelectAndMaterializeViews(); !s.ok()) {
      std::fprintf(stderr, "view selection failed: %s\n",
                   s.ToString().c_str());
      std::exit(2);
    }
    auto t2 = Clock::now();
    build.push_back(MsBetween(t0, t1) / 1000.0);
    views.push_back(MsBetween(t1, t2) / 1000.0);
    total.push_back(MsBetween(t0, t2) / 1000.0);
  }
  for (int i = 0; i < kProbesPerSetup; ++i) probe.Run();
  out.setup_s = Quantile(total, 0.5);
  out.build_s = Quantile(build, 0.5);
  out.views_s = Quantile(views, 0.5);
  out.time_scale = probe.TypicalTimeScale();
  return out;
}

/// Progress line on stderr: what the untimed preparation cost.
void LogInputs(const Setup& setup, size_t pool_size, Clock::time_point t_pool,
               Clock::time_point t_refs) {
  std::fprintf(stderr,
               "# setup %.2f s; pool of %zu in %.2f s; answers %.2f s\n",
               setup.setup_s, pool_size, MsBetween(t_pool, t_refs) / 1000,
               MsBetween(t_refs, Clock::now()) / 1000);
}

/// The Figure 7 (lifted, >= T_C) or Figure 8 (unlifted, < T_C) pool:
/// `per_count` queries at each of 2..5 keywords. Query cost grows with the
/// result size, whose distribution is heavy-tailed (a few broad queries
/// match tens of thousands of documents), so a random pool's mean cost is
/// set by the handful of broad queries it happens to draw. Instead the
/// candidates, kCandidatesPerQuery times as many as the pool needs, come
/// from a fixed generator seed and are ordered by result size; `seed` picks
/// one candidate from each run of kCandidatesPerQuery consecutive ones. Every
/// seed's pool is then a stratified sample of the same distribution, tail
/// included (NOTES.md, "Seeds and noise").
std::vector<ContextQuery> MakePool(const ContextSearchEngine& engine,
                                   uint64_t seed, bool large,
                                   uint32_t per_count) {
  uint64_t t_c = engine.context_threshold();
  std::vector<ContextQuery> pool;
  for (uint32_t nk = 2; nk <= 5; ++nk) {
    WorkloadGenerator gen(&engine, kCandidateSeed + (large ? 100 : 200) + nk);
    gen.set_lift_to_roots(large);
    const uint32_t want = kCandidatesPerQuery * per_count;
    auto candidates = large ? gen.Generate(want, nk, t_c, 0, 200000)
                            : gen.Generate(want, nk, 1, t_c > 1 ? t_c - 1 : 1,
                                           200000);
    std::vector<std::pair<uint64_t, size_t>> by_size;
    for (size_t i = 0; i < candidates.size(); ++i) {
      auto r =
          engine.Search(candidates[i].query, EvaluationMode::kConventional);
      by_size.emplace_back(r.ok() ? r->result_count : 0, i);
    }
    std::sort(by_size.begin(), by_size.end());
    SplitMix64 pick(seed * 1000 + (large ? 100 : 200) + nk);
    for (size_t lo = 0; lo + kCandidatesPerQuery <= by_size.size();
         lo += kCandidatesPerQuery) {
      size_t rank = lo + pick.NextBounded(kCandidatesPerQuery);
      pool.push_back(candidates[by_size[rank].second].query);
    }
  }
  return pool;
}

double ContextRepeatShare(const std::vector<ContextQuery>& pool) {
  std::set<TermIdSet> distinct;
  for (const auto& q : pool) distinct.insert(q.context);
  return 1.0 - Ratio(static_cast<double>(distinct.size()),
                     static_cast<double>(pool.size()));
}

// -- Answer check -----------------------------------------------------------

struct Reference {
  std::vector<SearchResultEntry> top;
  uint64_t count = 0;
};

/// Reference answers by the straightforward plan (the paper's ground truth
/// for context statistics), computed untimed.
std::optional<std::vector<Reference>> ComputeReferences(
    const ContextSearchEngine& engine, const std::vector<ContextQuery>& pool) {
  std::vector<Reference> refs;
  for (const auto& q : pool) {
    auto r = engine.Search(q, EvaluationMode::kContextStraightforward);
    if (!r.ok() || r->metrics.degraded) return std::nullopt;
    refs.push_back(Reference{r->top_docs, r->result_count});
  }
  return refs;
}

/// With-views answers must equal the reference bit for bit; conventional
/// twins rank by global statistics, so only their result count is checked.
bool AnswerOk(const Result<SearchResult>& r, EvaluationMode mode,
              const Reference* ref) {
  if (!r.ok() || r->metrics.degraded) return false;
  if (ref == nullptr) return true;
  if (r->result_count != ref->count) return false;
  if (mode == EvaluationMode::kConventional) return true;
  if (r->top_docs.size() != ref->top.size()) return false;
  for (size_t i = 0; i < ref->top.size(); ++i) {
    if (r->top_docs[i].doc != ref->top[i].doc ||
        std::bit_cast<uint64_t>(r->top_docs[i].score) !=
            std::bit_cast<uint64_t>(ref->top[i].score)) {
      return false;
    }
  }
  return true;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

std::vector<uint32_t> Shuffled(size_t n, SplitMix64& rng) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

/// Untraced latencies of one pass over the pool, by pool index (NaN where
/// the pass did not complete the query).
struct Pass {
  explicit Pass(size_t pool_size)
      : views_ms(pool_size, std::nan("")), conv_ms(pool_size, std::nan("")) {}
  std::vector<double> views_ms, conv_ms;
  double seconds = 0;
};

/// The completed samples of `pass`es' `field`, in pass order.
std::vector<double> Completed(const std::vector<Pass>& passes,
                              std::vector<double> Pass::*field) {
  std::vector<double> out;
  for (const Pass& p : passes) {
    for (double v : p.*field) {
      if (!std::isnan(v)) out.push_back(v);
    }
  }
  return out;
}

/// The end-to-end metrics, from each run's best moments and in
/// reference-host time. The host's speed drifts by tens of percent over
/// seconds to minutes (NOTES.md, "Seeds and noise"), so a query's latency is
/// the fastest of its runs across the passes and throughput is that of the
/// fastest complete pass, and all are scaled by the host probes taken during
/// the same run. Set-up time is the median of a few runs of seconds each,
/// slow moments included, so it is scaled by the median of the probes taken
/// around the set-ups instead.
std::vector<Metric> EndToEndMetrics(const Setup& setup,
                                    const std::vector<Pass>& passes,
                                    const HostProbe& probe) {
  const size_t n = passes.empty() ? 0 : passes[0].views_ms.size();
  std::vector<double> best_views(n, INFINITY), best_conv(n, INFINITY), qps;
  for (const Pass& p : passes) {
    size_t done = 0;
    for (size_t i = 0; i < n; ++i) {
      for (auto [samples, best] : {std::pair{&p.views_ms, &best_views},
                                   std::pair{&p.conv_ms, &best_conv}}) {
        if (std::isnan((*samples)[i])) continue;
        (*best)[i] = std::min((*best)[i], (*samples)[i]);
        ++done;
      }
    }
    qps.push_back(Ratio(static_cast<double>(done), p.seconds));
  }
  std::erase_if(best_views, [](double v) { return std::isinf(v); });
  std::erase_if(best_conv, [](double v) { return std::isinf(v); });
  const double scale = probe.FastTimeScale();
  return {
      {"setup_s", setup.setup_s * setup.time_scale, "s"},
      {"query_p50_ms", Quantile(best_views, 0.5) * scale, "ms"},
      {"conv_p50_ms", Quantile(best_conv, 0.5) * scale, "ms"},
      {"qps", Quantile(qps, 1.0) / scale, "1/s"},
      {"rss_mb", PeakRssMb(), "MB"},
  };
}

// -- Traced pairs -----------------------------------------------------------

/// Work counts of the traced with-views queries, from SearchMetrics.
struct LayerCounts {
  uint64_t queries = 0;
  uint64_t view_hits = 0, fallbacks = 0;
  uint64_t tuples = 0, uncovered = 0, aggregation = 0;
  uint64_t entries = 0, bytes = 0, blocks_skipped = 0, results = 0;
  uint64_t keywords = 0, untracked = 0;
  std::vector<double> untraced_views;  // with-views latency samples
  double untraced_conv_ms = 0;
  double untraced_ms = 0, traced_ms = 0;  // both modes, for overhead_ratio
};

/// Runs one context query and its conventional twin twice — through
/// Search() untraced and through the four phased calls under spans, the
/// first of the two alternating from query to query so neither always finds
/// the caches warm — then the direct stats and views layer probes on the
/// base indexes.
class PairTracer {
 public:
  PairTracer(const ContextSearchEngine& engine, SpanLog& log, Tally& tally)
      : engine_(engine), log_(log), tally_(tally) {}

  void Run(const ContextQuery& q, const Reference* ref) {
    uint32_t qid = next_query_++;
    if (qid % 2 == 0) {
      Untraced(q, ref);
      Traced(q, ref, qid);
    } else {
      Traced(q, ref, qid);
      Untraced(q, ref);
    }
    Probe(q, qid);
  }

  const LayerCounts& counts() const { return counts_; }

 private:
  void Untraced(const ContextQuery& q, const Reference* ref) {
    auto t0 = Clock::now();
    auto rv = engine_.Search(q, EvaluationMode::kContextWithViews);
    auto t1 = Clock::now();
    auto rc = engine_.Search(q, EvaluationMode::kConventional);
    auto t2 = Clock::now();
    tally_.Add(AnswerOk(rv, EvaluationMode::kContextWithViews, ref));
    tally_.Add(AnswerOk(rc, EvaluationMode::kConventional, ref));
    counts_.untraced_views.push_back(MsBetween(t0, t1));
    counts_.untraced_conv_ms += MsBetween(t1, t2);
    counts_.untraced_ms += MsBetween(t0, t2);
  }

  void Traced(const ContextQuery& q, const Reference* ref, uint32_t qid) {
    auto t0 = Clock::now();
    auto rv = Phased(q, EvaluationMode::kContextWithViews, qid);
    auto rc = Phased(q, EvaluationMode::kConventional, qid);
    counts_.traced_ms += MsBetween(t0, Clock::now());
    tally_.Add(AnswerOk(rv, EvaluationMode::kContextWithViews, ref));
    tally_.Add(AnswerOk(rc, EvaluationMode::kConventional, ref));
    if (!rv.ok()) return;
    const SearchMetrics& m = rv->metrics;
    counts_.queries++;
    counts_.view_hits += m.used_view ? 1 : 0;
    counts_.fallbacks += m.fell_back_to_straightforward ? 1 : 0;
    counts_.tuples += m.view_tuples_scanned;
    counts_.uncovered += m.keywords_uncovered_by_view;
    counts_.aggregation += m.cost.aggregation_entries;
    counts_.entries += m.cost.entries_scanned;
    counts_.bytes += m.cost.bytes_touched;
    counts_.blocks_skipped += m.cost.blocks_skipped;
    counts_.results += rv->result_count;
  }

  Result<SearchResult> Phased(const ContextQuery& q, EvaluationMode mode,
                              uint32_t qid) {
    bool views = mode == EvaluationMode::kContextWithViews;
    int32_t root = log_.Open(views ? "query.views" : "query.conv", -1, qid);
    int32_t s = log_.Open(views ? "views.begin" : "conv.begin", root, qid);
    auto ps = engine_.BeginSearch(q, mode);
    log_.Close(s);
    Result<SearchResult> out = Status::Internal("unreached");
    if (!ps.ok()) {
      out = ps.status();
    } else {
      s = log_.Open(views ? "views.stats" : "conv.stats", root, qid);
      Status st = engine_.SearchStats(**ps);
      log_.Close(s);
      if (st.ok()) {
        s = log_.Open(views ? "views.intersect" : "conv.intersect", root, qid);
        st = engine_.SearchIntersect(**ps);
        log_.Close(s);
      }
      if (st.ok()) {
        s = log_.Open(views ? "views.finish" : "conv.finish", root, qid);
        out = engine_.FinishSearch(**ps);
        log_.Close(s);
      } else {
        out = st;
      }
    }
    log_.Close(root);
    return out;
  }

  void Probe(const ContextQuery& q, uint32_t qid) {
    const InvertedIndex& content = engine_.content_index();
    const InvertedIndex& predicate = engine_.predicate_index();
    std::vector<TermId> keywords =
        QueryStats::FromKeywords(q.keywords).keywords;
    std::vector<TermId> untracked;
    for (TermId w : keywords) {
      if (!engine_.tracked().IsTracked(w)) untracked.push_back(w);
    }
    counts_.keywords += keywords.size();
    counts_.untracked += untracked.size();

    int32_t root = log_.Open("probe", -1, qid);
    int32_t s = log_.Open("probe.conj", root, qid);
    StraightforwardCollectionStats(content, predicate, q.context, {});
    log_.Close(s);
    s = log_.Open("probe.straightforward", root, qid);
    StraightforwardCollectionStats(content, predicate, q.context, keywords);
    log_.Close(s);
    s = log_.Open("probe.untracked_df", root, qid);
    if (!untracked.empty()) {
      StraightforwardCollectionStats(content, predicate, q.context, untracked);
    }
    log_.Close(s);
    s = log_.Open("probe.view_scan", root, qid);
    int32_t view = engine_.catalog().FindBestIndex(q.context);
    if (view >= 0) {
      engine_.catalog()
          .view(static_cast<size_t>(view))
          .ComputeStats(q.context, keywords, engine_.tracked());
    }
    log_.Close(s);
    log_.Close(root);
  }

  const ContextSearchEngine& engine_;
  SpanLog& log_;
  Tally& tally_;
  LayerCounts counts_;
  uint32_t next_query_ = 0;
};

/// Per-layer numbers of the phased and probe spans plus the pair counts.
/// `query_p99_ms` is the with-views tail as the workload's clients see it.
std::vector<Metric> LayerMetrics(const SpanLog& log, const LayerCounts& c,
                                 const ContextSearchEngine& engine,
                                 double query_p99_ms) {
  std::map<std::string, std::vector<double>> self_by_name;
  std::vector<double> self = log.SelfMs();
  double root_ms = 0, root_self_ms = 0;
  const auto& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    self_by_name[spans[i].name].push_back(self[i]);
    if (std::string_view(spans[i].name).starts_with("query.")) {
      root_ms += SpanLog::DurationMs(spans[i]);
      root_self_ms += self[i];
    }
  }
  auto series = [&](const char* name) -> const std::vector<double>& {
    return self_by_name[name];
  };
  std::vector<double> begin_us = series("views.begin");
  const auto& conv_begin = series("conv.begin");
  begin_us.insert(begin_us.end(), conv_begin.begin(), conv_begin.end());
  for (double& v : begin_us) v *= 1000.0;

  double n = static_cast<double>(c.queries);
  double conj_ms = Mean(series("probe.conj"));
  double sf_ms = Mean(series("probe.straightforward"));
  uint64_t view_bytes = 0;
  for (size_t i = 0; i < engine.catalog().size(); ++i) {
    view_bytes += engine.catalog().view(i).MemoryBytes();
  }
  return {
      {"query_p99_ms", query_p99_ms, "ms"},
      {"engine.begin_us", Quantile(begin_us, 0.5), "us"},
      {"stats.phase_ms_p50", Quantile(series("views.stats"), 0.5), "ms"},
      {"stats.phase_ms_mean", Mean(series("views.stats")), "ms"},
      {"stats.conj_ms", conj_ms, "ms"},
      {"stats.straightforward_ms", sf_ms, "ms"},
      {"stats.straightforward_over_conj", Ratio(sf_ms, conj_ms), "ratio"},
      {"stats.untracked_df_ms", Mean(series("probe.untracked_df")), "ms"},
      {"stats.untracked_keyword_share",
       Ratio(static_cast<double>(c.untracked), static_cast<double>(c.keywords)),
       "ratio"},
      {"stats.aggregation_entries",
       Ratio(static_cast<double>(c.aggregation), n), "count"},
      {"stats.fallback_share", Ratio(static_cast<double>(c.fallbacks), n),
       "ratio"},
      {"views.scan_ms", Mean(series("probe.view_scan")), "ms"},
      {"views.hit_share", Ratio(static_cast<double>(c.view_hits), n), "ratio"},
      {"views.tuples_scanned", Ratio(static_cast<double>(c.tuples), n),
       "count"},
      {"views.uncovered_keywords", Ratio(static_cast<double>(c.uncovered), n),
       "count"},
      {"views.bytes", static_cast<double>(view_bytes), "B"},
      {"index.intersect_ms_p50", Quantile(series("views.intersect"), 0.5),
       "ms"},
      {"index.intersect_ms_p99", Quantile(series("views.intersect"), 0.99),
       "ms"},
      {"index.entries_scanned", Ratio(static_cast<double>(c.entries), n),
       "count"},
      {"index.bytes_touched", Ratio(static_cast<double>(c.bytes), n), "B"},
      {"index.blocks_skipped", Ratio(static_cast<double>(c.blocks_skipped), n),
       "count"},
      {"index.results_per_kentry",
       Ratio(static_cast<double>(c.results),
             static_cast<double>(c.entries) / 1000.0),
       "ratio"},
      {"ranking.finish_ms", Mean(series("views.finish")), "ms"},
      {"ranking.docs_scored", Ratio(static_cast<double>(c.results), n),
       "count"},
      {"trace.overhead_ratio", Ratio(c.traced_ms, c.untraced_ms), "ratio"},
      {"trace.unattributed_share", Ratio(root_self_ms, root_ms), "ratio"},
      {"paper.views_over_conv",
       Ratio(std::accumulate(c.untraced_views.begin(), c.untraced_views.end(),
                             0.0),
             c.untraced_conv_ms),
       "ratio"},
  };
}

// -- Serving-side per-layer numbers (live_serve; zero elsewhere) ------------

struct ServeLayer {
  double queue_wait_p50 = 0, queue_wait_p99 = 0, busy_share = 0;
  uint64_t rejected = 0;
  std::vector<double> append_ms, merge_ms, step_ms;
  uint64_t appended_docs = 0, merged_docs = 0;
  double parts_per_query = 1, delta_folds_per_query = 0;
  double adaptive_hit_share = 0;
  uint64_t installs = 0, evictions = 0, stale_part_fallbacks = 0;
};

std::vector<Metric> ServeMetrics(const ServeLayer& s) {
  double ingest_ms = std::accumulate(s.append_ms.begin(), s.append_ms.end(),
                                     0.0) +
                     std::accumulate(s.merge_ms.begin(), s.merge_ms.end(), 0.0);
  return {
      {"executor.queue_wait_ms_p50", s.queue_wait_p50, "ms"},
      {"executor.queue_wait_ms_p99", s.queue_wait_p99, "ms"},
      {"executor.busy_share", s.busy_share, "ratio"},
      {"executor.rejected", static_cast<double>(s.rejected), "count"},
      {"ingest.append_p50_ms", Quantile(s.append_ms, 0.5), "ms"},
      {"ingest.docs_per_s",
       Ratio(static_cast<double>(s.appended_docs), ingest_ms / 1000.0), "1/s"},
      {"ingest.merge_ms", Mean(s.merge_ms), "ms"},
      {"ingest.merges", static_cast<double>(s.merge_ms.size()), "count"},
      {"ingest.write_amp",
       Ratio(static_cast<double>(s.appended_docs + s.merged_docs),
             static_cast<double>(s.appended_docs)),
       "ratio"},
      {"segments.parts_per_query", s.parts_per_query, "count"},
      {"views.delta_folds_per_query", s.delta_folds_per_query, "count"},
      {"selection.adaptive_step_ms", Mean(s.step_ms), "ms"},
      {"selection.adaptive_hit_share", s.adaptive_hit_share, "ratio"},
      {"selection.installs", static_cast<double>(s.installs), "count"},
      {"selection.evictions", static_cast<double>(s.evictions), "count"},
      {"selection.stale_part_fallbacks",
       static_cast<double>(s.stale_part_fallbacks), "count"},
  };
}

// -- Read-only workloads: fig7_large, fig8_small ----------------------------

int RunReadOnly(const Args& args, bool large) {
  Corpus corpus = MakeCorpus();
  Setup setup = BuildEngine(corpus, EngineConfig{});
  corpus = Corpus{};
  const ContextSearchEngine& engine = *setup.engine;
  auto t_pool = Clock::now();
  std::vector<ContextQuery> pool =
      MakePool(engine, args.seed, large, kQueriesPerKeywordCount);
  auto t_refs = Clock::now();
  auto refs = ComputeReferences(engine, pool);
  if (pool.empty() || !refs) {
    std::fprintf(stderr, "could not build the query pool or its answers\n");
    return 2;
  }
  LogInputs(setup, pool.size(), t_pool, t_refs);

  Tally tally;
  SplitMix64 rng(args.seed ^ 0x5eedf00dULL);
  auto pair = [&](uint32_t i, double* views_ms, double* conv_ms) {
    auto t0 = Clock::now();
    auto rv = engine.Search(pool[i], EvaluationMode::kContextWithViews);
    auto t1 = Clock::now();
    auto rc = engine.Search(pool[i], EvaluationMode::kConventional);
    auto t2 = Clock::now();
    tally.Add(AnswerOk(rv, EvaluationMode::kContextWithViews, &(*refs)[i]));
    tally.Add(AnswerOk(rc, EvaluationMode::kConventional, &(*refs)[i]));
    *views_ms = MsBetween(t0, t1);
    *conv_ms = MsBetween(t1, t2);
  };
  for (uint32_t i = 0; i < pool.size(); ++i) {  // untimed warm-up pass
    double v, c;
    pair(i, &v, &c);
  }

  std::vector<Metric> metrics;
  HostProbe probe;
  uint64_t pairs_run = 0;
  auto start = Clock::now();
  if (!args.trace) {
    std::vector<Pass> passes;
    while (MsBetween(start, Clock::now()) < args.seconds * 1000.0) {
      Pass& pass = passes.emplace_back(pool.size());
      auto pass_start = Clock::now();
      for (uint32_t i : Shuffled(pool.size(), rng)) {
        pair(i, &pass.views_ms[i], &pass.conv_ms[i]);
        if (++pairs_run % kProbeEveryPairs == 0) probe.Run();
      }
      pass.seconds = MsBetween(pass_start, Clock::now()) / 1000.0;
    }
    metrics = EndToEndMetrics(setup, passes, probe);
  } else {
    SpanLog log(start);
    PairTracer tracer(engine, log, tally);
    while (MsBetween(start, Clock::now()) < args.seconds * 1000.0) {
      for (uint32_t i : Shuffled(pool.size(), rng)) {
        tracer.Run(pool[i], &(*refs)[i]);
        if (++pairs_run % kProbeEveryPairs == 0) probe.Run();
      }
    }
    metrics = LayerMetrics(log, tracer.counts(), engine,
                           Quantile(tracer.counts().untraced_views, 0.99));
    metrics.push_back({"host.probe_ms", probe.FastMs(), "ms"});
    for (Metric& m : ServeMetrics(ServeLayer{})) metrics.push_back(m);
    metrics.push_back({"setup.build_s", setup.build_s, "s"});
    metrics.push_back({"setup.views_s", setup.views_s, "s"});
    metrics.push_back({"setup.views",
                       static_cast<double>(engine.catalog().size()), "count"});
    metrics.push_back(
        {"workload.context_repeat_share", ContextRepeatShare(pool), "ratio"});
    if (!args.spans_path.empty() && !log.Write(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
      return 2;
    }
  }
  bool correct = tally.failed == 0;
  PrintResult(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

// -- live_serve -------------------------------------------------------------

/// Stamps the completion of every submitted query. There is one waiter
/// thread per query the window lets into flight, so a slow query never holds
/// up the stamp of one that finished after it, and the client thread can
/// append documents meanwhile without inflating the latencies it measures.
class Collector {
 public:
  struct Pending {
    std::future<Result<SearchResult>> result;
    Clock::time_point submitted;
    bool views = false;
    uint32_t pass = 0;
    uint32_t query = 0;  // pool index
  };

  Collector(size_t window, size_t pool_size)
      : window_(window), pool_size_(pool_size) {
    for (size_t i = 0; i < window; ++i) {
      waiters_.emplace_back([this] { Loop(); });
    }
  }
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Blocks until a query pair fits into the window.
  void WaitForRoom() {
    std::unique_lock lock(mu_);
    room_.wait(lock, [&] { return in_flight_ + 2 <= window_; });
  }

  void Add(Pending p) {
    {
      std::lock_guard lock(mu_);
      ++in_flight_;
      queue_.push_back(std::move(p));
    }
    work_.notify_one();
  }

  /// Waits for everything in flight and joins the waiters.
  void Finish() {
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    work_.notify_all();
    for (std::thread& t : waiters_) {
      if (t.joinable()) t.join();
    }
  }

  // Valid after Finish(). passes[k] holds the queries submitted in pass k;
  // their `seconds` are left for the caller to fill in.
  std::vector<Pass> passes;
  Tally tally;

 private:
  void Loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock lock(mu_);
        work_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      p.result.wait();
      auto done = Clock::now();
      // The corpus grows during the run, so answers are checked against the
      // reference only on the quiesced engine afterwards.
      bool ok = false;
      try {
        ok = AnswerOk(p.result.get(),
                      p.views ? EvaluationMode::kContextWithViews
                              : EvaluationMode::kConventional,
                      nullptr);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "query future failed: %s\n", e.what());
      }
      {
        std::lock_guard lock(mu_);
        tally.Add(ok);
        while (passes.size() <= p.pass) passes.emplace_back(pool_size_);
        Pass& pass = passes[p.pass];
        (p.views ? pass.views_ms : pass.conv_ms)[p.query] =
            MsBetween(p.submitted, done);
        --in_flight_;
      }
      room_.notify_one();
    }
  }

  const size_t window_;
  const size_t pool_size_;
  std::mutex mu_;
  std::condition_variable work_, room_;
  std::deque<Pending> queue_;  // submitted, not yet taken by a waiter
  size_t in_flight_ = 0;       // submitted, not yet stamped
  bool done_ = false;
  std::vector<std::thread> waiters_;  // last: started after what they use
};

int RunLiveServe(const Args& args) {
  Corpus corpus = MakeCorpus();
  const size_t base_docs = corpus.docs.size() - kHeldBackDocs;
  std::vector<Document> tail(corpus.docs.begin() + base_docs,
                             corpus.docs.end());
  corpus.docs.resize(base_docs);
  corpus.config.num_docs = static_cast<uint32_t>(base_docs);

  EngineConfig config;
  config.adaptive_view_budget_bytes = kAdaptiveBudgetBytes;
  // Seal every second batch, so a run sees seals and merges.
  config.mem_segment_max_docs = 2 * kIngestBatchDocs;
  Setup setup = BuildEngine(corpus, config);
  corpus = Corpus{};
  ContextSearchEngine& engine = *setup.engine;

  auto t_pool = Clock::now();
  std::vector<ContextQuery> pool =
      MakePool(engine, args.seed, true, kQueriesPerKeywordCount / 2);
  for (auto& q :
       MakePool(engine, args.seed, false, kQueriesPerKeywordCount / 2)) {
    pool.push_back(std::move(q));
  }
  auto t_refs = Clock::now();
  auto refs = ComputeReferences(engine, pool);
  if (pool.empty() || !refs) {
    std::fprintf(stderr, "could not build the query pool or its answers\n");
    return 2;
  }
  LogInputs(setup, pool.size(), t_pool, t_refs);

  ExecutorConfig exec_config;
  exec_config.num_threads = kLiveWorkers;
  QueryExecutor executor(&engine, exec_config);
  Tally tally;
  for (uint32_t i = 0; i < pool.size(); ++i) {  // untimed warm-up pass
    auto fv = executor.SubmitSearch(pool[i], EvaluationMode::kContextWithViews);
    auto fc = executor.SubmitSearch(pool[i], EvaluationMode::kConventional);
    tally.Add(AnswerOk(fv.get(), EvaluationMode::kContextWithViews,
                       &(*refs)[i]));
    tally.Add(AnswerOk(fc.get(), EvaluationMode::kConventional, &(*refs)[i]));
  }

  ServeLayer serve;
  const auto snap_before = engine.MetricsSnapshot();
  const ExecutorMetrics exec_before = executor.metrics();
  SplitMix64 rng(args.seed ^ 0x5eedf00dULL);
  auto start = Clock::now();
  SpanLog log(start);
  std::optional<PairTracer> tracer;
  if (args.trace) tracer.emplace(engine, log, tally);
  SplitMix64 traced_rng(args.seed);
  const std::vector<uint32_t> traced_order = Shuffled(pool.size(), traced_rng);
  HostProbe probe;
  uint64_t parts_sum = 0, submitted_pairs = 0;
  uint64_t traced_pairs = 0;
  size_t tail_pos = 0;
  Status ingest_status;
  std::vector<Pass> passes;
  std::vector<Clock::time_point> pass_starts;
  double wall_s = 0;
  {
    Collector collector(kLiveWindow, pool.size());
    std::vector<uint32_t> order;
    size_t pos = 0;
    // Runs at least one whole pass, so one pass is complete.
    while ((MsBetween(start, Clock::now()) < args.seconds * 1000.0 ||
            pass_starts.size() < 2) &&
           ingest_status.ok()) {
      if (pos == order.size()) {
        order = Shuffled(pool.size(), rng);
        pos = 0;
        pass_starts.push_back(Clock::now());
      }
      const uint32_t qi = order[pos++];
      const ContextQuery& q = pool[qi];
      auto pass = static_cast<uint32_t>(pass_starts.size() - 1);
      collector.WaitForRoom();
      parts_sum += 1 + engine.LiveSnapshot()->extras.size();
      ++submitted_pairs;
      auto now = Clock::now();
      collector.Add(
          {executor.SubmitSearch(q, EvaluationMode::kContextWithViews), now,
           true, pass, qi});
      collector.Add(
          {executor.SubmitSearch(q, EvaluationMode::kConventional), now,
           false, pass, qi});

      if (submitted_pairs % kProbeEveryPairs == 0) probe.Run();
      if (submitted_pairs % kCheckpointPairs != 0) continue;
      if (tail_pos < tail.size()) {
        size_t end = std::min(tail_pos + kIngestBatchDocs, tail.size());
        std::vector<Document> batch(tail.begin() + tail_pos,
                                    tail.begin() + end);
        auto t0 = Clock::now();
        ingest_status = engine.AppendDocuments(std::move(batch));
        auto t1 = Clock::now();
        bool merged = engine.MergeOnce();
        auto t2 = Clock::now();
        serve.append_ms.push_back(MsBetween(t0, t1));
        if (merged) serve.merge_ms.push_back(MsBetween(t1, t2));
        serve.appended_docs += end - tail_pos;
        tail_pos = end;
      }
      auto t0 = Clock::now();
      engine.AdaptiveStep();
      serve.step_ms.push_back(MsBetween(t0, Clock::now()));
      for (uint32_t k = 0; tracer && k < kTracedPairsPerCheckpoint; ++k) {
        tracer->Run(pool[traced_order[traced_pairs % pool.size()]], nullptr);
        ++traced_pairs;
      }
    }
    collector.Finish();
    wall_s = MsBetween(start, Clock::now()) / 1000.0;
    passes = std::move(collector.passes);
    tally.attempted += collector.tally.attempted;
    tally.failed += collector.tally.failed;
  }
  // A pass lasts from its first submission to the next pass's first
  // submission; the last pass started is incomplete and is dropped.
  const uint64_t views_served = Completed(passes, &Pass::views_ms).size();
  passes.resize(pass_starts.size() - 1, Pass(pool.size()));
  for (size_t k = 0; k < passes.size(); ++k) {
    passes[k].seconds = MsBetween(pass_starts[k], pass_starts[k + 1]) / 1000.0;
  }
  const auto snap_after = engine.MetricsSnapshot();
  const ExecutorMetrics exec_after = executor.metrics();
  executor.Shutdown();

  // Quiesced checks: every pool answer against a fresh reference over the
  // grown collection, and the document accounting.
  if (!ingest_status.ok()) {
    std::fprintf(stderr, "append failed: %s\n",
                 ingest_status.ToString().c_str());
  }
  tally.Add(ingest_status.ok());
  tally.Add(engine.total_docs() == base_docs + serve.appended_docs);
  auto final_refs = ComputeReferences(engine, pool);
  tally.Add(final_refs.has_value());
  for (uint32_t i = 0; final_refs && i < pool.size(); ++i) {
    for (EvaluationMode mode : {EvaluationMode::kContextWithViews,
                                EvaluationMode::kConventional}) {
      tally.Add(
          AnswerOk(engine.Search(pool[i], mode), mode, &(*final_refs)[i]));
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(setup, passes, probe);
  } else {
    auto counter = [&](const char* name) {
      auto before = snap_before.counters.find(name);
      auto after = snap_after.counters.find(name);
      uint64_t b = before == snap_before.counters.end() ? 0 : before->second;
      return after == snap_after.counters.end() ? 0 : after->second - b;
    };
    auto wait_before = snap_before.histograms.find("executor.queue_wait_ms");
    auto wait_after = snap_after.histograms.find("executor.queue_wait_ms");
    if (wait_after != snap_after.histograms.end()) {
      const HistogramSnapshot* b = wait_before == snap_before.histograms.end()
                                       ? nullptr
                                       : &wait_before->second;
      serve.queue_wait_p50 = HistogramQuantile(wait_after->second, b, 0.5);
      serve.queue_wait_p99 = HistogramQuantile(wait_after->second, b, 0.99);
    }
    serve.busy_share =
        Ratio(exec_after.exec_ms_total - exec_before.exec_ms_total,
              kLiveWorkers * wall_s * 1000.0);
    serve.rejected = exec_after.rejected - exec_before.rejected;
    serve.merged_docs = counter("segments.merged_docs");
    serve.parts_per_query = Ratio(static_cast<double>(parts_sum),
                                  static_cast<double>(submitted_pairs));
    // Served with-views queries plus the traced pairs' two with-views runs.
    serve.delta_folds_per_query =
        Ratio(static_cast<double>(counter("view.delta.folds")),
              static_cast<double>(views_served + 2 * traced_pairs));
    uint64_t hits = counter("view.cache.hits");
    serve.adaptive_hit_share = Ratio(
        static_cast<double>(hits),
        static_cast<double>(hits + counter("view.cache.misses")));
    serve.installs = counter("view.cache.installs");
    serve.evictions = counter("view.cache.evictions");
    serve.stale_part_fallbacks = counter("view.cache.stale_part_fallbacks");

    std::vector<double> served_views = Completed(passes, &Pass::views_ms);
    metrics = LayerMetrics(log, tracer->counts(), engine,
                           Quantile(served_views, 0.99));
    metrics.push_back({"host.probe_ms", probe.FastMs(), "ms"});
    for (Metric& m : ServeMetrics(serve)) metrics.push_back(m);
    metrics.push_back({"setup.build_s", setup.build_s, "s"});
    metrics.push_back({"setup.views_s", setup.views_s, "s"});
    metrics.push_back({"setup.views",
                       static_cast<double>(engine.catalog().size()), "count"});
    metrics.push_back(
        {"workload.context_repeat_share", ContextRepeatShare(pool), "ratio"});
    if (!args.spans_path.empty() && !log.Write(args.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_path.c_str());
      return 2;
    }
  }
  bool correct = tally.failed == 0;
  PrintResult(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace csr::perfbench

int main(int argc, char** argv) {
  auto args = csr::perfbench::ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload fig7_large|fig8_small|live_serve "
                 "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  if (args->workload == "live_serve") {
    return csr::perfbench::RunLiveServe(*args);
  }
  return csr::perfbench::RunReadOnly(*args, args->workload == "fig7_large");
}
