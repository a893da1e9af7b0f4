#include <gtest/gtest.h>

#include <vector>

#include "index/intersection.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"
#include "stats/context_set.h"

namespace csr {
namespace {

PostingList MakeList(const std::vector<DocId>& docs, uint32_t segment_size = 4) {
  PostingList l(segment_size);
  for (DocId d : docs) l.Append(d, 1);
  l.FinishBuild();
  return l;
}

/// ∩ lists materialized by the conjunction engine.
std::vector<DocId> IntersectAll(std::span<const PostingList* const> lists) {
  std::vector<PostingRef> refs;
  for (const PostingList* l : lists) refs.push_back({l, nullptr, nullptr});
  Conjunction conj(refs);
  std::vector<DocId> out;
  while (conj.Next(out)) {
  }
  return out;
}

TEST(PostingListTest, AppendAndIterate) {
  PostingList l(4);
  l.Append(1, 2);
  l.Append(5, 1);
  l.Append(9, 3);
  l.FinishBuild();
  EXPECT_EQ(l.size(), 3u);
  EXPECT_EQ(l.total_tf(), 6u);

  auto it = l.MakeIterator();
  EXPECT_FALSE(it.AtEnd());
  EXPECT_EQ(it.doc(), 1u);
  EXPECT_EQ(it.tf(), 2u);
  it.Next();
  EXPECT_EQ(it.doc(), 5u);
  it.Next();
  EXPECT_EQ(it.doc(), 9u);
  it.Next();
  EXPECT_TRUE(it.AtEnd());
}

TEST(PostingListTest, SkipToLandsOnTargetOrAfter) {
  std::vector<DocId> docs;
  for (DocId d = 0; d < 1000; d += 3) docs.push_back(d);  // 0,3,6,...
  PostingList l = MakeList(docs, 16);

  auto it = l.MakeIterator();
  it.SkipTo(300);
  EXPECT_EQ(it.doc(), 300u);
  it.SkipTo(301);
  EXPECT_EQ(it.doc(), 303u);
  it.SkipTo(2);  // backwards target: no-op
  EXPECT_EQ(it.doc(), 303u);
  it.SkipTo(999);
  EXPECT_EQ(it.doc(), 999u);
  it.SkipTo(1000);
  EXPECT_TRUE(it.AtEnd());
}

TEST(PostingListTest, SkipToUsesSkips) {
  std::vector<DocId> docs;
  for (DocId d = 0; d < 100000; ++d) docs.push_back(d);
  PostingList l = MakeList(docs, 128);

  CostCounters cost;
  auto it = l.MakeIterator(&cost);
  it.SkipTo(99999);
  EXPECT_EQ(it.doc(), 99999u);
  // The jump must not scan the whole list: only the final segment (plus the
  // initial one) is touched.
  EXPECT_LT(cost.entries_scanned, 200u);
  EXPECT_GE(cost.skips_taken, 1u);
}

TEST(PostingListTest, EmptyListIterator) {
  PostingList l(4);
  l.FinishBuild();
  auto it = l.MakeIterator();
  EXPECT_TRUE(it.AtEnd());
  it.SkipTo(5);  // must not crash
  EXPECT_TRUE(it.AtEnd());
}

TEST(IntersectionTest, TwoLists) {
  PostingList a = MakeList({1, 3, 5, 7, 9});
  PostingList b = MakeList({3, 4, 5, 9, 10});
  std::vector<const PostingList*> lists = {&a, &b};
  auto docs = IntersectAll(lists);
  EXPECT_EQ(docs, (std::vector<DocId>{3, 5, 9}));
  EXPECT_EQ(CountIntersection(lists), 3u);
}

TEST(IntersectionTest, ThreeListsWithEmptyResult) {
  PostingList a = MakeList({1, 2, 3});
  PostingList b = MakeList({4, 5, 6});
  PostingList c = MakeList({1, 5});
  std::vector<const PostingList*> lists = {&a, &b, &c};
  EXPECT_TRUE(IntersectAll(lists).empty());
}

TEST(IntersectionTest, NullOrEmptyListYieldsEmpty) {
  PostingList a = MakeList({1, 2, 3});
  std::vector<const PostingList*> with_null = {&a, nullptr};
  EXPECT_TRUE(IntersectAll(with_null).empty());
  PostingList empty(4);
  empty.FinishBuild();
  std::vector<const PostingList*> with_empty = {&a, &empty};
  EXPECT_TRUE(IntersectAll(with_empty).empty());
}

TEST(IntersectionTest, SingleList) {
  PostingList a = MakeList({2, 4, 6});
  std::vector<const PostingList*> lists = {&a};
  EXPECT_EQ(IntersectAll(lists), (std::vector<DocId>{2, 4, 6}));
}

TEST(ConjunctionTest, TfsAlignWithCallerOrder) {
  // List order passed by caller differs from selectivity order, and the
  // lists come in both representations.
  PostingList a(4);  // longer list
  for (DocId d = 0; d < 100; ++d) a.Append(d, d + 1);
  a.FinishBuild();
  PostingList b(4);
  b.Append(10, 7);
  b.Append(50, 9);
  b.FinishBuild();
  const CompressedPostingList ca = CompressedPostingList::FromPostingList(a, 8);
  const CompressedPostingList cb = CompressedPostingList::FromPostingList(b, 8);

  for (bool packed : {false, true}) {
    SCOPED_TRACE(packed ? "compressed" : "plain");
    std::vector<PostingRef> lists = {
        packed ? PostingRef{nullptr, &ca, nullptr} : PostingRef{&a},
        packed ? PostingRef{nullptr, &cb, nullptr} : PostingRef{&b}};
    Conjunction conj(lists);
    std::vector<DocId> docs;
    while (conj.Next(docs)) {
    }
    ASSERT_EQ(docs, (std::vector<DocId>{10, 50}));
    uint32_t tfs[2][2] = {};
    conj.Tfs(0, docs, tfs[0]);  // tf in `a` even though `b` drives
    conj.Tfs(1, docs, tfs[1]);
    EXPECT_EQ(tfs[0][0], 11u);
    EXPECT_EQ(tfs[0][1], 51u);
    EXPECT_EQ(tfs[1][0], 7u);
    EXPECT_EQ(tfs[1][1], 9u);
    EXPECT_FALSE(conj.aborted());
  }
}

// ∩γ of Figure 3: the context set's build takes γ_count and γ_sum(len)
// over the conjunction of the predicate lists.
TEST(IntersectAndAggregateTest, CountAndSum) {
  IndexBuilder content(4), predicate(4);
  const std::vector<std::vector<TermId>> annotations = {{0}, {0, 1}, {0},
                                                        {0, 1}};
  for (DocId d = 0; d < 4; ++d) {
    ASSERT_TRUE(
        content.AddDocument(d, std::vector<TermId>(10 * (d + 1), 7)).ok());
    ASSERT_TRUE(predicate.AddDocument(d, annotations[d]).ok());
  }
  const InvertedIndex ci = content.Build();
  const InvertedIndex pi = predicate.Build();
  CostCounters cost;
  const std::vector<TermId> context = {0, 1};
  ContextSet set = ContextSet::Build(ci, pi, context, &cost);
  EXPECT_EQ(set.Size(), 2u);
  EXPECT_EQ(set.total_length(), 60u);
  EXPECT_EQ(cost.aggregation_entries, 2u);
}

TEST(IndexBuilderTest, BuildsTfAndLengths) {
  IndexBuilder b(4);
  ASSERT_TRUE(b.AddDocument(0, std::vector<TermId>{5, 5, 7}).ok());
  ASSERT_TRUE(b.AddDocument(1, std::vector<TermId>{7}).ok());
  InvertedIndex idx = b.Build();

  EXPECT_EQ(idx.num_docs(), 2u);
  EXPECT_EQ(idx.total_length(), 4u);
  EXPECT_EQ(idx.doc_length(0), 3u);
  EXPECT_EQ(idx.doc_length(1), 1u);
  EXPECT_DOUBLE_EQ(idx.avg_doc_length(), 2.0);

  EXPECT_EQ(idx.df(5), 1u);
  EXPECT_EQ(idx.tc(5), 2u);
  EXPECT_EQ(idx.df(7), 2u);
  EXPECT_EQ(idx.tc(7), 2u);
  EXPECT_EQ(idx.df(999), 0u);
  EXPECT_EQ(idx.list(999), nullptr);
  EXPECT_EQ(idx.list(6), nullptr);  // gap term

  const PostingList* l5 = idx.list(5);
  ASSERT_NE(l5, nullptr);
  EXPECT_EQ(l5->at(0).tf, 2u);
}

TEST(IndexBuilderTest, RejectsOutOfOrderDocs) {
  IndexBuilder b;
  ASSERT_TRUE(b.AddDocument(0, std::vector<TermId>{1}).ok());
  Status s = b.AddDocument(2, std::vector<TermId>{1});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(IndexBuilderTest, EmptyDocumentAllowed) {
  IndexBuilder b;
  ASSERT_TRUE(b.AddDocument(0, std::vector<TermId>{}).ok());
  InvertedIndex idx = b.Build();
  EXPECT_EQ(idx.num_docs(), 1u);
  EXPECT_EQ(idx.doc_length(0), 0u);
}

}  // namespace
}  // namespace csr
