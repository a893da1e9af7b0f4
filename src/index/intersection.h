#ifndef CSR_INDEX_INTERSECTION_H_
#define CSR_INDEX_INTERSECTION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "index/codec.h"
#include "index/cost_model.h"
#include "index/posting_cursor.h"
#include "index/posting_list.h"
#include "index/scan_guard.h"
#include "obs/trace.h"
#include "util/types.h"

namespace csr {

// -- Block kernels ----------------------------------------------------------

/// Block-wise pairwise intersection of two compressed lists — the first
/// step of a Conjunction over them, which these entry points run. Drives
/// with the shorter list; bitmap blocks are consumed via word-wise AND (both
/// sides bitmap) or O(1) membership probes (one side bitmap), array
/// blocks are SIMD-decoded once per block and probed by galloping or
/// linear merge steps per ChooseIntersectStrategy. Blocks whose range
/// cannot overlap the other list are skipped without decoding, and decode
/// bytes are charged to CostCounters exactly once per block touched.
/// Matches arrive in increasing docid order.
///
/// Join tick rule, shared by every join here: a join of a shorter side S
/// with a longer side L (S = the first side, or the run, on a tie) ticks
/// `guard` once per docid of S no greater than L's last docid, charged
/// with ScanGuard::Charge block by block (or segment by segment) before
/// the block is probed. The count depends on the docids alone, so a
/// budget or an armed fault trips at the same tick whichever
/// representation backs either side. After a trip the docids of S whose
/// ticks were paid are still probed and the scan stops (guard->tripped()),
/// so the matches seen are those of a docid prefix of S.
uint64_t CountPairwiseIntersection(const CompressedPostingList& a,
                                   const CompressedPostingList& b,
                                   CostCounters* cost_a = nullptr,
                                   CostCounters* cost_b = nullptr,
                                   ScanGuard* guard = nullptr);
uint64_t ScanPairwiseIntersection(const CompressedPostingList& a,
                                  const CompressedPostingList& b,
                                  CostCounters* cost_a, CostCounters* cost_b,
                                  const std::function<void(DocId)>& on_match);
/// Same scan, handing the matches over in ascending runs of up to
/// kPairwiseBatch docids, so a caller's per-match work can be inlined into
/// its own loop instead of paying one indirect call per match.
inline constexpr size_t kPairwiseBatch = 256;
uint64_t ScanPairwiseIntersectionBatches(
    const CompressedPostingList& a, const CompressedPostingList& b,
    CostCounters* cost_a, CostCounters* cost_b,
    const std::function<void(std::span<const DocId>)>& on_batch,
    ScanGuard* guard = nullptr);

/// Outcome of JoinRunWithList: how many run docids the list holds, the
/// sum of their tfs in the list (when asked for), and whether the guard
/// tripped, in which case both counts are partial and must not be used.
struct RunJoinResult {
  uint64_t matches = 0;
  uint64_t tf_sum = 0;
  bool aborted = false;
};

/// The 2-way join of a strictly increasing docid run (a materialized
/// context set) with one compressed list, by one forward walk over the
/// list's blocks: each block is paired with the window of run docids
/// inside its range, blocks no window meets are skipped undecoded, a
/// bitmap block is probed by O(1) bit tests without expansion (unless
/// `with_tf` needs tfs or the window outnumbers the block), and any other
/// block is decoded once and meets its window in SimdIntersect
/// (simd_intersect.h). With `with_tf`, the matches' tfs are read by one
/// forward pass over the block. Probes and decode bytes are charged to
/// `cost` from window and block sizes, the same at every dispatch level,
/// and `guard` ticks by the join tick rule above (the run is S on a tie).
RunJoinResult JoinRunWithList(std::span<const DocId> run,
                              const CompressedPostingList& list, bool with_tf,
                              CostCounters* cost, ScanGuard* guard);

/// The compressed block walk as a semijoin: hands the run docids the list
/// holds to `on_batch` in ascending runs of up to kPairwiseBatch, with the
/// same cost charges and guard ticks.
RunJoinResult SemiJoinRunWithList(
    std::span<const DocId> run, const CompressedPostingList& list,
    CostCounters* cost, ScanGuard* guard,
    const std::function<void(std::span<const DocId>)>& on_batch);

/// Counts the intersection of two compressed lists; exercised by tests
/// and the codec ablation. Delegates to CountPairwiseIntersection.
uint64_t CountCompressedIntersection(const CompressedPostingList& a,
                                     const CompressedPostingList& b,
                                     CostCounters* cost = nullptr);

// -- The conjunction engine ---------------------------------------------------

/// ∩ of posting lists in any mix of representations, run as one chain of
/// the joins above — the one conjunction engine every plan uses: the D_P
/// build (∩γ of Figure 3), query-time df of untracked keywords, context
/// sizes, and retrieval's keyword ⋈ context conjunction (Section 3.2.2).
///
/// The lists are taken shortest first (ties in caller order). The two
/// shortest join pairwise — the block-pairwise kernel when both are
/// compressed, else the block walk of JoinRunWithList (a compressed
/// second list) or a galloping search join (a plain list or a docid run),
/// with the shorter as the run — and the result then semijoins each
/// further list in ascending length. The chain runs in windows of the
/// shortest list (its next kWindow postings, whole blocks when it is
/// compressed); each window runs the whole chain, and every list resumes
/// where the last window left it, so survivors arrive in ascending docid
/// order and memory stays bounded by the window.
///
/// Ticks pay for candidates, one per docid of the shortest list: the
/// pairwise step ticks by the join tick rule (once per such docid no
/// greater than the second list's last docid; a single list ticks once
/// per posting), and the later steps tick nothing, since every docid they
/// see is a paid candidate. The count depends on the docids alone, never
/// on representation or window bounds. When the guard trips, the window
/// still joins its paid candidates through every step and the chain
/// stops: the survivors handed over are exactly the answer's docids up to
/// the last paid candidate — a docid prefix of the answer.
class Conjunction {
 public:
  /// Postings of the shortest list per window.
  static constexpr size_t kWindow = 1024;

  /// `lists` in caller order; any empty list makes the conjunction empty.
  /// The lists must outlive the conjunction.
  explicit Conjunction(std::span<const PostingRef> lists,
                       ScanGuard* guard = nullptr);
  ~Conjunction();
  Conjunction(const Conjunction&) = delete;
  Conjunction& operator=(const Conjunction&) = delete;

  /// Runs the chain over the next window and appends its survivors to
  /// `out`, ascending. False when no window was left to run.
  bool Next(std::vector<DocId>& out);

  /// Runs every window left and returns how many survivors they hold.
  uint64_t Count();

  /// Writes to out[j * stride] the tf, in caller-order list `i`, of
  /// docs[j] for each j. `docs` must be survivors handed over by Next,
  /// ascending, and past any docid of an earlier call for the same list.
  /// Only blocks holding one of them are decoded.
  void Tfs(size_t i, std::span<const DocId> docs, uint32_t* out,
           size_t stride = 1);

  /// True once the guard tripped: the survivors handed over are a prefix.
  bool aborted() const { return aborted_; }

 private:
  struct List;
  template <typename Sink>
  bool Window(Sink& sink);
  template <typename Sink>
  void FirstStep(Sink& sink);
  template <typename Sink>
  void Join(std::span<const DocId> run, List& list, ScanGuard* guard,
            Sink& sink);

  std::vector<List> lists_;     // shortest first
  std::vector<size_t> caller_;  // caller index -> lists_ index
  ScanGuard* guard_;
  size_t next_ = 0;         // the shortest list's next posting (or block)
  DocId second_last_ = 0;   // the second list's last docid
  bool merge_probe_ = false;  // pairwise kernel probe style
  bool done_ = false;
  bool aborted_ = false;
  // Intermediate runs, and the driver's window when it is not a run or
  // the pairwise kernel's output.
  std::vector<DocId> run_, next_run_, scratch_;
};

/// The chain a Conjunction over `num_lists` lists runs, for traces:
/// "walk", "pairwise", or "pairwise+semijoin*N".
std::string ConjunctionPlan(size_t num_lists);

/// |∩ lists| by the conjunction engine.
uint64_t CountIntersection(std::span<const PostingRef> lists,
                           ScanGuard* guard = nullptr);
/// The same over plain lists, charging `cost`.
uint64_t CountIntersection(std::span<const PostingList* const> lists,
                           CostCounters* cost = nullptr);

/// Copies the intersection-relevant cost-counter deltas accumulated since
/// `before` onto `span` as attributes (entries_scanned, segments_touched,
/// skips_taken, bytes_touched, blocks_skipped). No-op when span is null.
void AttrIntersectionCostDelta(TraceSpan* span, const CostCounters& after,
                               const CostCounters& before);

}  // namespace csr

#endif  // CSR_INDEX_INTERSECTION_H_
