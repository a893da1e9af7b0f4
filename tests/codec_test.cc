#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <tuple>

#include "index/codec.h"
#include "index/intersection.h"
#include "util/random.h"

namespace csr {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  const uint32_t values[] = {0,       1,          127,        128,
                             16383,   16384,      2097151,    2097152,
                             1u << 28, UINT32_MAX};
  for (uint32_t v : values) {
    std::string buf;
    PutVarint32(buf, v);
    uint32_t decoded = 0;
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    const uint8_t* end =
        GetVarint32(p, p + buf.size(), &decoded);
    ASSERT_NE(end, nullptr) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(end, p + buf.size());
  }
}

TEST(VarintTest, TruncatedInputRejected) {
  std::string buf;
  PutVarint32(buf, 1u << 20);  // multi-byte
  uint32_t v;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
  EXPECT_EQ(GetVarint32(p, p + 1, &v), nullptr);
}

TEST(BlockCodecTest, RoundTrip) {
  std::vector<Posting> postings = {
      {0, 1}, {5, 3}, {6, 1}, {1000, 255}, {1000000, 1}};
  std::string buf;
  PostingBlockCodec::Encode(postings, 0, buf);
  EXPECT_LT(buf.size(), postings.size() * sizeof(Posting));

  std::vector<Posting> decoded;
  ASSERT_TRUE(
      PostingBlockCodec::Decode(buf, 0, postings.size(), decoded).ok());
  EXPECT_EQ(decoded, postings);
}

TEST(BlockCodecTest, RoundTripWithBase) {
  std::vector<Posting> postings = {{500, 2}, {501, 1}, {900, 7}};
  std::string buf;
  PostingBlockCodec::Encode(postings, 499, buf);
  std::vector<Posting> decoded;
  ASSERT_TRUE(PostingBlockCodec::Decode(buf, 499, 3, decoded).ok());
  EXPECT_EQ(decoded, postings);
}

TEST(BlockCodecTest, TruncationDetected) {
  std::vector<Posting> postings = {{10, 1}, {20, 2}, {30, 3}};
  std::string buf;
  PostingBlockCodec::Encode(postings, 0, buf);
  std::vector<Posting> decoded;
  Status s = PostingBlockCodec::Decode(
      std::string_view(buf).substr(0, buf.size() / 2), 0, 3, decoded);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

PostingList MakeRandomList(SplitMix64& rng, uint32_t universe,
                           double density) {
  PostingList l(128);
  for (DocId d = 0; d < universe; ++d) {
    if (rng.NextBool(density)) {
      l.Append(d, 1 + static_cast<uint32_t>(rng.NextBounded(9)));
    }
  }
  l.FinishBuild();
  return l;
}

class CompressedListProperty
    : public ::testing::TestWithParam<std::tuple<int, double, uint32_t>> {};

TEST_P(CompressedListProperty, DecodesBackExactly) {
  auto [seed, density, block] = GetParam();
  SplitMix64 rng(static_cast<uint64_t>(seed));
  PostingList plain = MakeRandomList(rng, 20000, density);
  auto compressed = CompressedPostingList::FromPostingList(plain, block);

  EXPECT_EQ(compressed.size(), plain.size());
  std::vector<Posting> decoded = compressed.Decode();
  ASSERT_EQ(decoded.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(decoded[i], plain.at(i));
  }
  if (plain.size() > 100) {
    EXPECT_LT(compressed.MemoryBytes(), plain.MemoryBytes())
        << "compression made things bigger";
  }
}

TEST_P(CompressedListProperty, IteratorMatchesPlain) {
  auto [seed, density, block] = GetParam();
  SplitMix64 rng(static_cast<uint64_t>(seed) ^ 0xFEED);
  PostingList plain = MakeRandomList(rng, 20000, density);
  if (plain.empty()) return;
  auto compressed = CompressedPostingList::FromPostingList(plain, block);

  auto pi = plain.MakeIterator();
  auto ci = compressed.MakeIterator();
  while (!pi.AtEnd()) {
    ASSERT_FALSE(ci.AtEnd());
    EXPECT_EQ(ci.doc(), pi.doc());
    EXPECT_EQ(ci.tf(), pi.tf());
    pi.Next();
    ci.Next();
  }
  EXPECT_TRUE(ci.AtEnd());
}

TEST_P(CompressedListProperty, SkipToMatchesPlain) {
  auto [seed, density, block] = GetParam();
  SplitMix64 rng(static_cast<uint64_t>(seed) ^ 0xBEEF);
  PostingList plain = MakeRandomList(rng, 20000, density);
  if (plain.empty()) return;
  auto compressed = CompressedPostingList::FromPostingList(plain, block);

  auto pi = plain.MakeIterator();
  auto ci = compressed.MakeIterator();
  DocId target = 0;
  while (true) {
    target += static_cast<DocId>(1 + rng.NextBounded(400));
    pi.SkipTo(target);
    ci.SkipTo(target);
    if (pi.AtEnd()) {
      EXPECT_TRUE(ci.AtEnd());
      break;
    }
    ASSERT_FALSE(ci.AtEnd());
    EXPECT_EQ(ci.doc(), pi.doc());
    EXPECT_EQ(ci.tf(), pi.tf());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressedListProperty,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.002, 0.05, 0.6),
                       ::testing::Values(16u, 128u, 1024u)));

TEST(CompressedIntersectionTest, MatchesPlainIntersection) {
  SplitMix64 rng(77);
  PostingList a = MakeRandomList(rng, 30000, 0.1);
  PostingList b = MakeRandomList(rng, 30000, 0.02);
  auto ca = CompressedPostingList::FromPostingList(a);
  auto cb = CompressedPostingList::FromPostingList(b);

  std::vector<const PostingList*> lists = {&a, &b};
  uint64_t expected = CountIntersection(lists);
  EXPECT_EQ(CountCompressedIntersection(ca, cb), expected);
  EXPECT_EQ(CountCompressedIntersection(cb, ca), expected);
}

TEST(CompressedIntersectionTest, EmptyLists) {
  PostingList empty(128);
  empty.FinishBuild();
  PostingList one(128);
  one.Append(5, 1);
  one.FinishBuild();
  auto ce = CompressedPostingList::FromPostingList(empty);
  auto co = CompressedPostingList::FromPostingList(one);
  EXPECT_EQ(CountCompressedIntersection(ce, co), 0u);
  EXPECT_TRUE(ce.empty());
}

TEST(CompressedListTest, CompressionRatioOnDenseList) {
  // Dense docids (delta 1-2) should compress ~4x vs 8-byte postings.
  PostingList plain(128);
  for (DocId d = 0; d < 100000; d += 2) plain.Append(d, 1);
  plain.FinishBuild();
  auto compressed = CompressedPostingList::FromPostingList(plain);
  double ratio = static_cast<double>(plain.MemoryBytes()) /
                 static_cast<double>(compressed.MemoryBytes());
  EXPECT_GT(ratio, 3.0) << "ratio " << ratio;
}

// ---------------------------------------------------------------------------
// ForBlockCodec: fixed-width kernels and block round-trips, including
// adversarial inputs. Corrupt or truncated buffers must produce typed
// Status values, never UB.

TEST(ForKernelTest, PackUnpackRoundTripAllWidths) {
  SplitMix64 rng(11);
  for (uint32_t bits = 0; bits <= 32; ++bits) {
    for (size_t count : {size_t{1}, size_t{7}, size_t{64}, size_t{129}}) {
      const uint64_t mask = bits == 32 ? ~0ull >> 32 : (1ull << bits) - 1;
      std::vector<uint32_t> values(count);
      for (auto& v : values) v = static_cast<uint32_t>(rng.Next() & mask);
      std::string buf;
      ForBlockCodec::PackBits(values.data(), count, bits, buf);
      EXPECT_EQ(buf.size(), (count * bits + 7) / 8);
      std::vector<uint32_t> out(count, 0xA5A5A5A5u);
      ASSERT_TRUE(ForBlockCodec::UnpackBits(
                      reinterpret_cast<const uint8_t*>(buf.data()),
                      buf.size(), count, bits, out.data())
                      .ok())
          << "bits=" << bits << " count=" << count;
      EXPECT_EQ(out, values) << "bits=" << bits << " count=" << count;
    }
  }
}

TEST(ForKernelTest, UnpackRejectsTruncationAndBadWidth) {
  std::vector<uint32_t> values(50, 0x1FFF);
  std::string buf;
  ForBlockCodec::PackBits(values.data(), values.size(), 13, buf);
  std::vector<uint32_t> out(values.size());
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
  EXPECT_EQ(ForBlockCodec::UnpackBits(p, buf.size() - 1, values.size(), 13,
                                      out.data())
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ForBlockCodec::UnpackBits(p, buf.size(), values.size(), 33,
                                      out.data())
                .code(),
            StatusCode::kInvalidArgument);
}

std::vector<Posting> MakeRandomPostings(SplitMix64& rng, size_t count,
                                        DocId start, uint32_t max_gap,
                                        uint32_t max_tf) {
  std::vector<Posting> out;
  DocId d = start;
  for (size_t i = 0; i < count; ++i) {
    d += static_cast<DocId>(i == 0 ? rng.NextBounded(max_gap)
                                   : 1 + rng.NextBounded(max_gap));
    out.push_back(
        Posting{d, static_cast<uint32_t>(rng.NextBounded(max_tf + 1))});
  }
  return out;
}

TEST(ForCodecTest, RandomRoundTrips) {
  SplitMix64 rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    size_t count = 1 + rng.NextBounded(300);
    DocId base = static_cast<DocId>(rng.NextBounded(1 << 20));
    uint32_t max_gap = 1 + static_cast<uint32_t>(rng.NextBounded(1 << 14));
    uint32_t max_tf = static_cast<uint32_t>(rng.NextBounded(1 << 10));
    std::vector<Posting> postings =
        MakeRandomPostings(rng, count, base, max_gap, max_tf);
    std::string buf;
    ForBlockCodec::Encode(postings, base, buf);
    std::vector<Posting> decoded;
    ASSERT_TRUE(ForBlockCodec::Decode(buf, base, count, decoded).ok());
    EXPECT_EQ(decoded, postings) << "trial " << trial;
  }
}

TEST(ForCodecTest, EmptyBlock) {
  std::string buf;
  ForBlockCodec::Encode({}, 0, buf);
  EXPECT_EQ(buf.size(), 2u);  // header only, both widths 0
  std::vector<Posting> decoded;
  ASSERT_TRUE(ForBlockCodec::Decode(buf, 0, 0, decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(ForCodecTest, SinglePostingZeroTfPacksToHeader) {
  // delta 0 from base, tf 0: both widths 0, so the block is 2 bytes.
  std::vector<Posting> postings = {{42, 0}};
  std::string buf;
  ForBlockCodec::Encode(postings, 42, buf);
  EXPECT_EQ(buf.size(), 2u);
  std::vector<Posting> decoded;
  ASSERT_TRUE(ForBlockCodec::Decode(buf, 42, 1, decoded).ok());
  EXPECT_EQ(decoded, postings);
}

TEST(ForCodecTest, MaxWidthDeltasRoundTrip) {
  // Widest possible values: a first delta near 2^32 and a 32-bit tf.
  std::vector<Posting> postings = {{kInvalidDocId - 2, UINT32_MAX},
                                   {kInvalidDocId - 1, 0}};
  std::string buf;
  ForBlockCodec::Encode(postings, 0, buf);
  std::vector<Posting> decoded;
  ASSERT_TRUE(ForBlockCodec::Decode(buf, 0, 2, decoded).ok());
  EXPECT_EQ(decoded, postings);
}

TEST(ForCodecTest, EveryTruncationReturnsStatus) {
  SplitMix64 rng(31);
  std::vector<Posting> postings = MakeRandomPostings(rng, 100, 10, 500, 30);
  std::string buf;
  ForBlockCodec::Encode(postings, 10, buf);
  std::vector<Posting> decoded;
  for (size_t len = 0; len < buf.size(); ++len) {
    Status s = ForBlockCodec::Decode(std::string_view(buf.data(), len), 10,
                                     postings.size(), decoded);
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << "prefix " << len;
  }
}

TEST(ForCodecTest, CorruptBuffersNeverCrash) {
  SplitMix64 rng(37);
  std::vector<Posting> postings = MakeRandomPostings(rng, 64, 0, 1000, 15);
  std::string buf;
  ForBlockCodec::Encode(postings, 0, buf);
  // Flip every byte through a few values; decode must return a Status
  // (possibly OK with different postings) and never read out of bounds —
  // ASan/TSan builds of this test are the actual assertion.
  std::vector<Posting> decoded;
  for (size_t i = 0; i < buf.size(); ++i) {
    std::string corrupt = buf;
    for (uint8_t delta : {0x01, 0x80, 0xFF}) {
      corrupt[i] = static_cast<char>(static_cast<uint8_t>(buf[i]) ^ delta);
      Status s =
          ForBlockCodec::Decode(corrupt, 0, postings.size(), decoded);
      if (s.ok()) {
        EXPECT_EQ(decoded.size(), postings.size());
      }
    }
  }
  // Corrupt bit widths specifically (> 32 must be InvalidArgument).
  std::string bad = buf;
  bad[0] = static_cast<char>(40);
  EXPECT_EQ(
      ForBlockCodec::Decode(bad, 0, postings.size(), decoded).code(),
      StatusCode::kInvalidArgument);
}

TEST(ForCodecTest, SplitDecodeMatchesFullDecode) {
  SplitMix64 rng(41);
  std::vector<Posting> postings = MakeRandomPostings(rng, 150, 5, 200, 60);
  std::string buf;
  ForBlockCodec::Encode(postings, 5, buf);

  std::vector<Posting> full;
  ASSERT_TRUE(ForBlockCodec::Decode(buf, 5, postings.size(), full).ok());
  std::vector<DocId> docs;
  std::vector<uint32_t> tfs;
  size_t tf_offset = 0;
  ASSERT_TRUE(
      ForBlockCodec::DecodeDocs(buf, 5, postings.size(), docs, &tf_offset)
          .ok());
  ASSERT_TRUE(
      ForBlockCodec::DecodeTfs(buf, tf_offset, postings.size(), tfs).ok());
  ASSERT_EQ(docs.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(docs[i], full[i].doc);
    EXPECT_EQ(tfs[i], full[i].tf);
  }
}

TEST(CodecPolicyTest, AutoNeverLargerThanEitherForcedPolicy) {
  SplitMix64 rng(53);
  for (double density : {0.002, 0.05, 0.6}) {
    PostingList plain = MakeRandomList(rng, 30000, density);
    auto c_auto =
        CompressedPostingList::FromPostingList(plain, 128, CodecPolicy::kAuto);
    auto c_for = CompressedPostingList::FromPostingList(
        plain, 128, CodecPolicy::kForOnly);
    auto c_var = CompressedPostingList::FromPostingList(
        plain, 128, CodecPolicy::kVarintOnly);
    EXPECT_LE(c_auto.MemoryBytes(),
              std::min(c_for.MemoryBytes(), c_var.MemoryBytes()));
    // All three decode to the same postings.
    EXPECT_EQ(c_auto.Decode(), c_for.Decode());
    EXPECT_EQ(c_auto.Decode(), c_var.Decode());
  }
}

TEST(CompressedListTest, LazyTfChargesBytesOnlyWhenRead) {
  PostingList plain(128);
  for (DocId d = 0; d < 50000; d += 3) plain.Append(d, 1 + d % 7);
  plain.FinishBuild();
  auto compressed = CompressedPostingList::FromPostingList(plain, 128);

  CostCounters docs_only;
  for (auto it = compressed.MakeIterator(&docs_only); !it.AtEnd(); it.Next()) {
  }
  CostCounters with_tfs;
  uint64_t tf_sum = 0;
  for (auto it = compressed.MakeIterator(&with_tfs); !it.AtEnd(); it.Next()) {
    tf_sum += it.tf();
  }
  EXPECT_EQ(tf_sum, compressed.total_tf());
  EXPECT_LT(docs_only.bytes_touched, with_tfs.bytes_touched);
  EXPECT_EQ(with_tfs.bytes_touched, compressed.raw_bytes().size());
}

// ------------------------------------------------- DecodedBlockArena

/// 1000 postings in blocks of 128: seven full blocks and a short last one
/// of 104. Gaps of at most 3 keep every block dense enough to bitmap.
CompressedPostingList ArenaList(CodecPolicy policy, uint64_t seed = 71) {
  SplitMix64 rng(seed);
  return CompressedPostingList::FromPostings(
      MakeRandomPostings(rng, 1000, 1, 3, 9), 128, policy);
}

/// Everything one full iterator pass yields and is charged.
struct ListWalk {
  std::vector<Posting> postings;
  CostCounters cost;
};

/// Walks the list reading every docid and tf; stride > 1 mixes in SkipTo
/// jumps over whole blocks.
ListWalk WalkList(const CompressedPostingList& list, DocId stride = 1) {
  ListWalk w;
  auto it = list.MakeIterator(&w.cost);
  while (!it.AtEnd()) {
    w.postings.push_back(Posting{it.doc(), it.tf()});
    if (stride == 1) {
      it.Next();
    } else {
      it.SkipTo(it.doc() + stride);
    }
  }
  return w;
}

void ExpectSameWalk(const ListWalk& got, const ListWalk& want) {
  EXPECT_EQ(got.postings, want.postings);
  EXPECT_EQ(got.cost.entries_scanned, want.cost.entries_scanned);
  EXPECT_EQ(got.cost.segments_touched, want.cost.segments_touched);
  EXPECT_EQ(got.cost.bytes_touched, want.cost.bytes_touched);
  EXPECT_EQ(got.cost.skips_taken, want.cost.skips_taken);
  EXPECT_EQ(got.cost.blocks_skipped, want.cost.blocks_skipped);
}

const CodecPolicy kArenaPolicies[] = {CodecPolicy::kVarintOnly,
                                      CodecPolicy::kForOnly,
                                      CodecPolicy::kBitmapPreferred};

TEST(DecodedBlockArenaTest, ServesWhatAPrivateDecodeYields) {
  for (CodecPolicy policy : kArenaPolicies) {
    CompressedPostingList list = ArenaList(policy);
    ASSERT_EQ(list.num_blocks(), 8u);
    ASSERT_EQ(list.blocks().back().count, 1000u - 7 * 128);
    BlockCodec want_tag = policy == CodecPolicy::kVarintOnly
                              ? BlockCodec::kVarint
                          : policy == CodecPolicy::kForOnly
                              ? BlockCodec::kFor
                              : BlockCodec::kBitmap;
    std::vector<Posting> all = list.Decode();
    DecodedBlockArena arena;
    size_t first = 0;
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      ASSERT_EQ(list.BlockCodecTag(b), want_tag) << b;
      const DecodedBlockArena::Entry* e = arena.GetDocs(&list, b);
      ASSERT_NE(e, nullptr) << b;
      ASSERT_EQ(e->docs.size(), list.blocks()[b].count) << b;
      ASSERT_EQ(arena.GetTfs(&list, b), e) << b;
      for (size_t i = 0; i < e->docs.size(); ++i) {
        EXPECT_EQ(e->docs[i], all[first + i].doc) << b << "@" << i;
        EXPECT_EQ(e->tfs[i], all[first + i].tf) << b << "@" << i;
      }
      first += e->docs.size();
    }
    EXPECT_EQ(first, all.size());
    EXPECT_LE(arena.bytes(), arena.max_bytes());

    // Through iterators: a pass that fills the arena and a pass served
    // from it both match a private pass, postings and cost alike.
    ListWalk priv = WalkList(list);
    ListWalk priv_skip = WalkList(list, 600);
    arena.Clear();
    DecodedBlockArena::Scope scope(&arena);
    ExpectSameWalk(WalkList(list), priv);
    ExpectSameWalk(WalkList(list), priv);
    ExpectSameWalk(WalkList(list, 600), priv_skip);
  }
}

TEST(DecodedBlockArenaTest, PastByteBoundDecodesPrivately) {
  for (CodecPolicy policy : kArenaPolicies) {
    CompressedPostingList list = ArenaList(policy);
    ListWalk priv = WalkList(list);
    // 1 byte holds nothing, not even the table; 4 KiB holds the table
    // and a few blocks, then runs out part way through the list.
    for (size_t max_bytes : {size_t{1}, size_t{4096}}) {
      DecodedBlockArena arena(max_bytes);
      {
        DecodedBlockArena::Scope scope(&arena);
        ExpectSameWalk(WalkList(list), priv);
        ExpectSameWalk(WalkList(list), priv);
      }
      EXPECT_LE(arena.bytes(), max_bytes);
      EXPECT_LT(arena.entries(), list.num_blocks());
      EXPECT_EQ(arena.GetDocs(&list, list.num_blocks() - 1), nullptr);
      if (max_bytes == 1) {
        EXPECT_EQ(arena.entries(), 0u);
        EXPECT_EQ(arena.misses(), 0u);
        EXPECT_EQ(arena.hits(), 0u);
      } else {
        EXPECT_GT(arena.entries(), 0u);
        EXPECT_GT(arena.hits(), 0u);
      }
    }
  }
}

TEST(DecodedBlockArenaTest, ClearServesNoEntryOfThePreviousBatch) {
  // The hazard the per-batch rule exists for: after the batch, a list is
  // freed and another is built at the same address. The same
  // (list, block) key must decode the new list, not serve the old one.
  std::optional<CompressedPostingList> slot;
  slot.emplace(ArenaList(CodecPolicy::kForOnly, 71));
  const CompressedPostingList* key = &*slot;
  DecodedBlockArena arena;
  const DecodedBlockArena::Entry* e = arena.GetDocs(key, 0);
  ASSERT_NE(e, nullptr);
  DocId old_first = e->docs.front();
  arena.Clear();
  EXPECT_EQ(arena.entries(), 0u);

  SplitMix64 rng(72);
  slot.emplace(CompressedPostingList::FromPostings(
      MakeRandomPostings(rng, 1000, 5000, 3, 9), 128,
      CodecPolicy::kVarintOnly));
  ASSERT_EQ(&*slot, key);
  std::vector<Posting> want = slot->Decode();
  ASSERT_NE(want.front().doc, old_first);
  e = arena.GetDocs(key, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(arena.hits(), 0u);
  EXPECT_EQ(arena.misses(), 2u);
  ASSERT_EQ(e->docs.size(), slot->blocks()[0].count);
  ASSERT_NE(arena.GetTfs(key, 0), nullptr);
  for (size_t i = 0; i < e->docs.size(); ++i) {
    EXPECT_EQ(e->docs[i], want[i].doc) << i;
    EXPECT_EQ(e->tfs[i], want[i].tf) << i;
  }
  // Clear between many batches keeps the buffers and the bound.
  for (int batch = 0; batch < 300; ++batch) {
    arena.Clear();
    for (size_t b = 0; b < slot->num_blocks(); ++b) {
      ASSERT_NE(arena.GetDocs(key, b), nullptr);
    }
  }
  EXPECT_LE(arena.bytes(), arena.max_bytes());
}

TEST(DecodedBlockArenaTest, CountsHitsAndMissesExactly) {
  CompressedPostingList a = ArenaList(CodecPolicy::kAuto, 81);
  CompressedPostingList b = ArenaList(CodecPolicy::kAuto, 82);
  DecodedBlockArena arena;
  DecodedBlockArena::Scope scope(&arena);
  WalkList(a);  // every block of a: a miss
  EXPECT_EQ(arena.misses(), a.num_blocks());
  EXPECT_EQ(arena.hits(), 0u);
  WalkList(a);  // again: every block a hit; tf loads count as neither
  WalkList(b);  // another list: misses of its own
  EXPECT_EQ(arena.hits(), a.num_blocks());
  EXPECT_EQ(arena.misses(), a.num_blocks() + b.num_blocks());
  EXPECT_EQ(arena.entries(), a.num_blocks() + b.num_blocks());
  arena.Clear();
  WalkList(b);  // a new batch: misses again
  EXPECT_EQ(arena.hits(), a.num_blocks());
  EXPECT_EQ(arena.misses(), a.num_blocks() + 2 * b.num_blocks());
  EXPECT_EQ(arena.entries(), b.num_blocks());
}

/// What the three block kernels yield and charge over lists a and b: the
/// pairwise scan, the run-with-list join (tfs summed) and the semijoin of
/// every other docid of b with a.
struct KernelRuns {
  std::vector<DocId> pairwise, semijoin;
  RunJoinResult join;
  CostCounters cost_a, cost_b;
};

KernelRuns RunKernels(const CompressedPostingList& a,
                      const CompressedPostingList& b) {
  KernelRuns r;
  ScanPairwiseIntersectionBatches(
      a, b, &r.cost_a, &r.cost_b, [&](std::span<const DocId> docs) {
        r.pairwise.insert(r.pairwise.end(), docs.begin(), docs.end());
      });
  std::vector<DocId> run_docs;
  const std::vector<Posting> bs = b.Decode();
  for (size_t i = 0; i < bs.size(); i += 2) run_docs.push_back(bs[i].doc);
  r.join =
      JoinRunWithList(run_docs, a, /*with_tf=*/true, &r.cost_a, nullptr);
  SemiJoinRunWithList(run_docs, a, &r.cost_a, nullptr,
                      [&](std::span<const DocId> docs) {
                        r.semijoin.insert(r.semijoin.end(), docs.begin(),
                                          docs.end());
                      });
  return r;
}

void ExpectSameRuns(const KernelRuns& got, const KernelRuns& want) {
  EXPECT_EQ(got.pairwise, want.pairwise);
  EXPECT_EQ(got.semijoin, want.semijoin);
  EXPECT_EQ(got.join.matches, want.join.matches);
  EXPECT_EQ(got.join.tf_sum, want.join.tf_sum);
  for (auto [g, w] : {std::pair{&got.cost_a, &want.cost_a},
                      std::pair{&got.cost_b, &want.cost_b}}) {
    EXPECT_EQ(g->entries_scanned, w->entries_scanned);
    EXPECT_EQ(g->segments_touched, w->segments_touched);
    EXPECT_EQ(g->bytes_touched, w->bytes_touched);
    EXPECT_EQ(g->skips_taken, w->skips_taken);
    EXPECT_EQ(g->blocks_skipped, w->blocks_skipped);
  }
}

// The block kernels load blocks through the thread's arena as iterators
// do: a run that fills the arena and a run served from it both match a
// private run, matches, tf sums and cost counters alike.
TEST(DecodedBlockArenaTest, KernelsMatchWithAndWithoutAnArena) {
  SplitMix64 rng(93);
  for (CodecPolicy pa : kArenaPolicies) {
    for (CodecPolicy pb : kArenaPolicies) {
      SCOPED_TRACE(std::to_string(static_cast<int>(pa)) + " x " +
                   std::to_string(static_cast<int>(pb)));
      const CompressedPostingList a = ArenaList(pa, 91);
      const CompressedPostingList b = CompressedPostingList::FromPostings(
          MakeRandomPostings(rng, 300, 1, 9, 9), 128, pb);
      const KernelRuns want = RunKernels(a, b);
      ASSERT_FALSE(want.pairwise.empty());
      DecodedBlockArena arena;
      DecodedBlockArena::Scope scope(&arena);
      ExpectSameRuns(RunKernels(a, b), want);
      ExpectSameRuns(RunKernels(a, b), want);
      if (pa != CodecPolicy::kBitmapPreferred) {
        EXPECT_GT(arena.hits(), 0u);  // bitmap blocks probe unexpanded
      }
    }
  }
}

// DecodeTallies::blocks_decoded counts every kernel decode, as it counts
// iterator decodes: a private pairwise run decodes D blocks; the same run
// under an arena misses exactly those D and decodes them once; a second
// run is served entirely from the arena and decodes nothing.
TEST(DecodedBlockArenaTest, BlocksDecodedCountsKernelDecodes) {
  const CompressedPostingList a = ArenaList(CodecPolicy::kForOnly, 94);
  const CompressedPostingList b = ArenaList(CodecPolicy::kForOnly, 95);
  auto decoded = [] { return SnapshotDecodeTallies().blocks_decoded; };
  uint64_t d0 = decoded();
  const uint64_t n = CountPairwiseIntersection(a, b);
  const uint64_t private_blocks = decoded() - d0;
  EXPECT_EQ(private_blocks, a.num_blocks() + b.num_blocks());
  DecodedBlockArena arena;
  DecodedBlockArena::Scope scope(&arena);
  d0 = decoded();
  EXPECT_EQ(CountPairwiseIntersection(a, b), n);
  EXPECT_EQ(decoded() - d0, private_blocks);
  EXPECT_EQ(arena.misses(), private_blocks);
  d0 = decoded();
  EXPECT_EQ(CountPairwiseIntersection(a, b), n);
  EXPECT_EQ(decoded() - d0, 0u);
  EXPECT_EQ(arena.hits(), private_blocks);
}

#if defined(__SANITIZE_ADDRESS__)
#define CSR_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CSR_TEST_ASAN 1
#endif
#endif

#ifdef CSR_TEST_ASAN
// Arena buffers are reused, not freed, so only the arena's own poisoning
// can make a span read after Clear() visible; this checks that it does.
// Built only under AddressSanitizer, which is what reports the read.
TEST(DecodedBlockArenaDeathTest, ReadAfterClearIsReported) {
  CompressedPostingList list = ArenaList(CodecPolicy::kForOnly);
  EXPECT_DEATH(
      {
        DecodedBlockArena arena;
        std::span<const DocId> docs(arena.GetDocs(&list, 0)->docs);
        arena.Clear();
        volatile DocId d = docs[0];
        (void)d;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace csr
