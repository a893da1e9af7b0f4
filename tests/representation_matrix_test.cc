// Differential property suite for posting-list representations
// (`ctest -L postings`): every representation pair drawn from
// {uncompressed, varint, FOR, bitmap, auto} must intersect to the
// identical result on random and adversarial list shapes; decode kernels
// must be bit-identical across dispatch levels; engine top-k must be
// bit-identical across codec policies and across scalar vs SIMD kernels;
// truncated or corrupted bitmap blocks must surface a typed Status.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "engine/engine.h"
#include "index/codec.h"
#include "index/intersection.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"
#include "index/scan_guard.h"
#include "index/simd_intersect.h"
#include "index/simd_unpack.h"
#include "util/random.h"

namespace csr {
namespace {

constexpr uint32_t kUniverse = 40000;

struct Shape {
  const char* name;
  std::vector<Posting> postings;
};

std::vector<Shape> AdversarialShapes() {
  std::vector<Shape> shapes;
  {
    SplitMix64 rng(11);
    Shape s{"random", {}};
    for (DocId d = 0; d < kUniverse; ++d) {
      if (rng.NextBool(0.3)) {
        s.postings.push_back(
            {d, 1 + static_cast<uint32_t>(rng.NextBounded(7))});
      }
    }
    shapes.push_back(std::move(s));
  }
  {
    // Every docid present — the densest possible block run, including the
    // doc == base == 0 edge the bitmap container cannot represent.
    Shape s{"all_dense", {}};
    for (DocId d = 0; d < 4000; ++d) s.postings.push_back({d, 1 + d % 5});
    shapes.push_back(std::move(s));
  }
  {
    Shape s{"alternating", {}};
    for (DocId d = 0; d < kUniverse; d += 2) s.postings.push_back({d, 2});
    shapes.push_back(std::move(s));
  }
  shapes.push_back(Shape{"single", {{kUniverse / 2, 9}}});
  {
    // Dense clusters separated by wide gaps: exercises whole-block skips
    // and the bitmap/array boundary within one list.
    SplitMix64 rng(13);
    Shape s{"clustered", {}};
    for (DocId start = 100; start + 600 < kUniverse; start += 5000) {
      for (DocId d = start; d < start + 600; ++d) {
        if (rng.NextBool(0.9)) s.postings.push_back({d, 1});
      }
    }
    shapes.push_back(std::move(s));
  }
  return shapes;
}

PostingList ToList(const std::vector<Posting>& ps) {
  PostingList l(128);
  for (const Posting& p : ps) l.Append(p.doc, p.tf);
  l.FinishBuild();
  return l;
}

std::vector<DocId> ReferenceIntersection(const std::vector<Posting>& a,
                                         const std::vector<Posting>& b) {
  std::vector<DocId> da, db, out;
  for (const Posting& p : a) da.push_back(p.doc);
  for (const Posting& p : b) db.push_back(p.doc);
  std::set_intersection(da.begin(), da.end(), db.begin(), db.end(),
                        std::back_inserter(out));
  return out;
}

const CodecPolicy kPolicies[] = {
    CodecPolicy::kVarintOnly, CodecPolicy::kForOnly,
    CodecPolicy::kBitmapPreferred, CodecPolicy::kAuto};

const char* PolicyName(CodecPolicy p) {
  switch (p) {
    case CodecPolicy::kVarintOnly:
      return "varint";
    case CodecPolicy::kForOnly:
      return "for";
    case CodecPolicy::kBitmapPreferred:
      return "bitmap";
    default:
      return "auto";
  }
}

// -- Matrix: every representation pair, every adversarial shape -------------

TEST(RepresentationMatrixTest, AllPairsMatchSetIntersectionReference) {
  std::vector<Shape> shapes = AdversarialShapes();
  for (const Shape& sa : shapes) {
    for (const Shape& sb : shapes) {
      std::vector<DocId> ref = ReferenceIntersection(sa.postings,
                                                     sb.postings);
      PostingList pa = ToList(sa.postings);
      PostingList pb = ToList(sb.postings);
      std::string what0 = std::string(sa.name) + " x " + sb.name;

      // Uncompressed baseline.
      std::vector<const PostingList*> plain = {&pa, &pb};
      EXPECT_EQ(CountIntersection(plain), ref.size()) << what0;

      for (CodecPolicy qa : kPolicies) {
        for (CodecPolicy qb : kPolicies) {
          auto ca = CompressedPostingList::FromPostingList(pa, 64, qa);
          auto cb = CompressedPostingList::FromPostingList(pb, 64, qb);
          std::string what = what0 + " [" + PolicyName(qa) + " x " +
                             PolicyName(qb) + "]";

          // Guard-free count: routes through the pairwise block kernel.
          const PostingRef packed[] = {{nullptr, &ca, nullptr},
                                       {nullptr, &cb, nullptr}};
          EXPECT_EQ(CountIntersection(packed), ref.size()) << what;

          // Scan form must yield the exact docids, in order.
          std::vector<DocId> got;
          ScanPairwiseIntersection(ca, cb, nullptr, nullptr,
                                   [&](DocId d) { got.push_back(d); });
          EXPECT_EQ(got, ref) << what;

          // Guarded path: same count, charging the guard.
          ScanGuard guard(0.0, 0);
          EXPECT_EQ(CountIntersection(packed, &guard), ref.size())
              << what << " (guarded)";

          // Mixed representation: plain list against compressed.
          const PostingRef mixed[] = {{&pa, nullptr, nullptr},
                                      {nullptr, &cb, nullptr}};
          EXPECT_EQ(CountIntersection(mixed), ref.size())
              << what << " (mixed)";
        }
      }
    }
  }
}

// -- Kernel differential: every dispatch level, every bit width -------------

TEST(RepresentationMatrixTest, UnpackLevelsBitIdenticalAllWidths) {
  SplitMix64 rng(17);
  for (uint32_t bits = 1; bits <= 32; ++bits) {
    const size_t count = 257;  // several SIMD steps plus a scalar tail
    std::vector<uint32_t> values(count);
    uint64_t mask = bits == 32 ? 0xFFFFFFFFull : ((1ull << bits) - 1);
    for (uint32_t& v : values) {
      v = static_cast<uint32_t>(rng.Next() & mask);
    }
    std::string packed;
    ForBlockCodec::PackBits(values.data(), count, bits, packed);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(packed.data());

    std::vector<uint32_t> scalar(count), leveled(count);
    UnpackBitsAtLevel(UnpackLevel::kScalar, p, packed.size(), count, bits,
                      scalar.data());
    EXPECT_EQ(scalar, values) << "scalar round-trip, bits=" << bits;
    for (UnpackLevel lvl : {UnpackLevel::kSse2, UnpackLevel::kAvx2}) {
      if (!UnpackLevelSupported(lvl)) continue;
      std::fill(leveled.begin(), leveled.end(), 0xDEADBEEF);
      UnpackBitsAtLevel(lvl, p, packed.size(), count, bits, leveled.data());
      EXPECT_EQ(leveled, scalar)
          << UnpackLevelName(lvl) << " diverges at bits=" << bits;
    }
  }
}

// -- Engine top-k: identical across policies and kernel levels --------------

TEST(RepresentationMatrixTest, TopKIdenticalAcrossPoliciesAndKernels) {
  CorpusConfig cc;
  cc.num_docs = 2000;
  cc.vocab_size = 1200;
  cc.ontology_fanouts = {4, 3};
  cc.seed = 29;
  auto corpus = CorpusGenerator(cc).Generate();
  ASSERT_TRUE(corpus.ok());

  auto build = [&](CodecPolicy policy, bool compressed) {
    EngineConfig cfg;
    cfg.top_k = 10;
    cfg.track_tc = true;
    cfg.compressed_postings = compressed;
    cfg.codec_policy = policy;
    auto r = ContextSearchEngine::Build(*corpus, cfg);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  };
  auto plain = build(CodecPolicy::kAuto, false);

  TermId w = CorpusGenerator::ConceptTopicalTerm(0, 0, cc.vocab_size,
                                                 cc.topical_window);
  ContextQuery q{{w, 5}, {0}};

  for (const char* ranking : {"pivoted", "bm25"}) {
    EngineConfig pc;  // scratch: rebuild plain per ranking
    auto ref_engine = build(CodecPolicy::kAuto, false);
    for (CodecPolicy policy : kPolicies) {
      for (bool scalar : {false, true}) {
        if (scalar) {
          SetUnpackLevelForTest(UnpackLevel::kScalar);
        } else {
          ClearUnpackLevelOverride();
        }
        auto engine = build(policy, true);
        for (EvaluationMode mode :
             {EvaluationMode::kConventional,
              EvaluationMode::kContextStraightforward}) {
          auto got = engine->Search(q, mode);
          auto want = ref_engine->Search(q, mode);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          ASSERT_EQ(got->top_docs.size(), want->top_docs.size());
          for (size_t i = 0; i < want->top_docs.size(); ++i) {
            EXPECT_EQ(got->top_docs[i].doc, want->top_docs[i].doc)
                << ranking << "/" << PolicyName(policy)
                << (scalar ? "/scalar" : "/simd") << " rank " << i;
            EXPECT_EQ(got->top_docs[i].score, want->top_docs[i].score)
                << ranking << "/" << PolicyName(policy)
                << (scalar ? "/scalar" : "/simd") << " rank " << i
                << " (scores must be bit-identical)";
          }
        }
      }
    }
    ClearUnpackLevelOverride();
    (void)ranking;
    (void)pc;
  }
}

// -- Intersection kernels: every policy pair, every dispatch level ----------
//
// The guard-free pairwise path now windows decoded array blocks through
// the SIMD kernel family (simd_intersect.h), selecting pairwise /
// wide-probe / gallop per window. Sweep every (policy × policy ×
// dispatch level) cell over the adversarial shapes: the emitted docids
// must equal the set_intersection reference at every level.

TEST(RepresentationMatrixTest, PairwiseKernelsBitIdenticalAcrossLevels) {
  std::vector<Shape> shapes = AdversarialShapes();
  for (const Shape& sa : shapes) {
    for (const Shape& sb : shapes) {
      std::vector<DocId> ref = ReferenceIntersection(sa.postings,
                                                     sb.postings);
      PostingList pa = ToList(sa.postings);
      PostingList pb = ToList(sb.postings);
      for (CodecPolicy qa : kPolicies) {
        for (CodecPolicy qb : kPolicies) {
          auto ca = CompressedPostingList::FromPostingList(pa, 64, qa);
          auto cb = CompressedPostingList::FromPostingList(pb, 64, qb);
          for (UnpackLevel lvl :
               {UnpackLevel::kScalar, UnpackLevel::kSse2,
                UnpackLevel::kAvx2}) {
            if (!UnpackLevelSupported(lvl)) continue;
            SetUnpackLevelForTest(lvl);
            std::vector<DocId> got;
            ScanPairwiseIntersection(ca, cb, nullptr, nullptr,
                                     [&](DocId d) { got.push_back(d); });
            EXPECT_EQ(got, ref)
                << sa.name << " x " << sb.name << " [" << PolicyName(qa)
                << " x " << PolicyName(qb) << "] level "
                << UnpackLevelName(lvl);
          }
          ClearUnpackLevelOverride();
        }
      }
    }
  }
}

// -- Segmented index (PR 7): per-part cursors, per-part strategies ----------
//
// A grown engine intersects per segment part, so each part picks its own
// kernel/strategy from its own list sizes. Results must stay bit-identical
// across dispatch levels, and the selector must actually run (tallies).

TEST(RepresentationMatrixTest, SegmentedTopKIdenticalAcrossLevels) {
  CorpusConfig cc;
  cc.num_docs = 2400;
  cc.vocab_size = 1200;
  cc.ontology_fanouts = {4, 3};
  cc.seed = 31;
  auto corpus = CorpusGenerator(cc).Generate();
  ASSERT_TRUE(corpus.ok());

  EngineConfig cfg;
  cfg.top_k = 10;
  cfg.track_tc = true;
  cfg.compressed_postings = true;
  cfg.codec_policy = CodecPolicy::kAuto;

  auto grow = [&]() {
    Corpus prefix = *corpus;
    prefix.docs.resize(1600);
    prefix.config.num_docs = 1600;
    auto r = ContextSearchEngine::Build(std::move(prefix), cfg);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    auto engine = std::move(r).value();
    // Two appends → several parts (write segment + sealed segments).
    EXPECT_TRUE(engine
                    ->AppendDocuments(std::vector<Document>(
                        corpus->docs.begin() + 1600,
                        corpus->docs.begin() + 2000))
                    .ok());
    EXPECT_TRUE(engine
                    ->AppendDocuments(std::vector<Document>(
                        corpus->docs.begin() + 2000, corpus->docs.end()))
                    .ok());
    return engine;
  };

  TermId w = CorpusGenerator::ConceptTopicalTerm(0, 0, cc.vocab_size,
                                                 cc.topical_window);
  const ContextQuery queries[] = {ContextQuery{{w, 5}, {0}},
                                  ContextQuery{{w, w + 1}, {0, 4}}};

  SetUnpackLevelForTest(UnpackLevel::kScalar);
  auto ref_engine = grow();
  ResetIntersectTalliesForTest();
  std::vector<SearchResult> want;
  for (const ContextQuery& q : queries) {
    for (EvaluationMode mode : {EvaluationMode::kConventional,
                                EvaluationMode::kContextStraightforward}) {
      auto r = ref_engine->Search(q, mode);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      want.push_back(std::move(r).value());
    }
  }
  // The segmented search path consulted the kernel selector.
  const IntersectTallies t = SnapshotIntersectTallies();
  EXPECT_GT(t.pairwise + t.wide_probe + t.gallop, 0u);

  for (UnpackLevel lvl : {UnpackLevel::kSse2, UnpackLevel::kAvx2}) {
    if (!UnpackLevelSupported(lvl)) continue;
    SetUnpackLevelForTest(lvl);
    auto engine = grow();
    size_t wi = 0;
    for (const ContextQuery& q : queries) {
      for (EvaluationMode mode :
           {EvaluationMode::kConventional,
            EvaluationMode::kContextStraightforward}) {
        auto got = engine->Search(q, mode);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const SearchResult& ref = want[wi++];
        ASSERT_EQ(got->top_docs.size(), ref.top_docs.size())
            << UnpackLevelName(lvl);
        EXPECT_EQ(got->result_count, ref.result_count);
        EXPECT_EQ(got->stats.cardinality, ref.stats.cardinality);
        EXPECT_EQ(got->stats.df, ref.stats.df);
        for (size_t i = 0; i < ref.top_docs.size(); ++i) {
          EXPECT_EQ(got->top_docs[i].doc, ref.top_docs[i].doc)
              << UnpackLevelName(lvl) << " rank " << i;
          EXPECT_EQ(got->top_docs[i].score, ref.top_docs[i].score)
              << UnpackLevelName(lvl) << " rank " << i
              << " (scores must be bit-identical)";
        }
      }
    }
  }
  ClearUnpackLevelOverride();
}

// -- Bitmap damage: typed errors, never UB ----------------------------------

TEST(RepresentationMatrixTest, BitmapTruncationAndCorruptionAreTyped) {
  std::vector<Posting> postings;
  for (DocId d = 10; d < 400; d += 2) postings.push_back({d, 3});
  const DocId base = 9;
  ASSERT_NE(BitmapBlockCodec::EncodedSize(postings, base),
            static_cast<size_t>(SIZE_MAX));
  std::string enc;
  BitmapBlockCodec::Encode(postings, base, enc);

  std::vector<Posting> out;
  ASSERT_TRUE(BitmapBlockCodec::Decode(enc, base, postings.size(), out).ok());
  ASSERT_EQ(out.size(), postings.size());
  EXPECT_EQ(out.front().doc, postings.front().doc);
  EXPECT_EQ(out.back().tf, postings.back().tf);

  // Truncation at every prefix length: typed status, no crash.
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    Status s = BitmapBlockCodec::Decode(std::string_view(enc).substr(0, cut),
                                        base, postings.size(), out);
    EXPECT_FALSE(s.ok()) << "truncated to " << cut << " bytes";
    EXPECT_TRUE(s.code() == StatusCode::kOutOfRange ||
                s.code() == StatusCode::kInvalidArgument)
        << s.ToString();
  }

  // Population corruption: set a bit past the last docid.
  {
    std::string bad = enc;
    bad[5 + (postings.back().doc - base - 1) / 8] |= char(0x80);
    Status s = BitmapBlockCodec::Decode(bad, base, postings.size(), out);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }

  // Unknown codec tag at the block level: FromParts rejects it.
  {
    PostingList l = ToList(postings);
    auto cl = CompressedPostingList::FromPostingList(
        l, 64, CodecPolicy::kBitmapPreferred);
    EXPECT_GT(cl.codec_block_counts()[2], 0u) << "expected bitmap blocks";
    CompressedPostingList::Parts parts;
    parts.block_size = 64;
    parts.num_postings = cl.size();
    parts.total_tf = cl.total_tf();
    parts.max_tf = cl.max_tf();
    parts.blocks.assign(cl.blocks().begin(), cl.blocks().end());
    parts.bytes = cl.raw_bytes();
    parts.bytes[cl.blocks()[0].offset] = char(0x7F);
    auto r = CompressedPostingList::FromParts(std::move(parts));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
}

}  // namespace
}  // namespace csr
