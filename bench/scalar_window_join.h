#ifndef CSR_BENCH_SCALAR_WINDOW_JOIN_H_
#define CSR_BENCH_SCALAR_WINDOW_JOIN_H_

// The scalar window merge the run⋈block walk used before its windows went
// through the SIMD kernel family, kept here as the baseline the
// intersection ablation's run_join section measures against: each window
// of run docids meets its decoded list block by a branch-free merge, or,
// when one side is more than 8x shorter, by galloping the shorter side
// through the longer. The engine runs every window through SimdIntersect
// instead (index/intersection.h).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "index/codec.h"
#include "util/types.h"

namespace csr::bench {

/// |window ∩ docs| for two strictly increasing docid arrays.
inline uint64_t ScalarWindowCount(std::span<const DocId> window,
                                  std::span<const DocId> docs) {
  const size_t nw = window.size();
  const size_t nd = docs.size();
  uint64_t n = 0;
  if (nw * 8 < nd || nd * 8 < nw) {
    std::span<const DocId> shorter = nw < nd ? window : docs;
    std::span<const DocId> longer = nw < nd ? docs : window;
    size_t a = 0;  // cursor in the longer side
    for (DocId d : shorter) {
      size_t bound = 1;
      while (a + bound < longer.size() && longer[a + bound] < d) bound <<= 1;
      a = static_cast<size_t>(
          std::lower_bound(longer.begin() + a + bound / 2,
                           longer.begin() +
                               std::min(a + bound + 1, longer.size()),
                           d) -
          longer.begin());
      if (a == longer.size()) break;
      n += longer[a] == d;
    }
    return n;
  }
  size_t a = 0;
  size_t b = 0;
  while (a < nw && b < nd) {
    const DocId x = window[a];
    const DocId y = docs[b];
    n += x == y;
    a += x <= y;
    b += y <= x;
  }
  return n;
}

/// |run ∩ list| by the block walk with the scalar window merge: the run
/// docids are cut into one window per list block, and blocks no window
/// meets are never decoded.
inline uint64_t ScalarRunJoinCount(std::span<const DocId> run,
                                   const CompressedPostingList& list) {
  const auto blocks = list.blocks();
  std::vector<DocId> own;
  size_t tf_offset = 0;
  uint64_t n = 0;
  size_t b = 0;
  size_t i = 0;
  while (i < run.size()) {
    b = static_cast<size_t>(
        std::lower_bound(blocks.begin() + b, blocks.end(), run[i],
                         [](const CompressedPostingList::BlockMeta& m,
                            DocId d) { return m.max_doc < d; }) -
        blocks.begin());
    if (b == blocks.size()) break;
    const size_t end = static_cast<size_t>(
        std::upper_bound(run.begin() + i, run.end(), blocks[b].max_doc) -
        run.begin());
    n += ScalarWindowCount(run.subspan(i, end - i),
                           list.LoadDocs(b, own, &tf_offset));
    i = end;
  }
  return n;
}

}  // namespace csr::bench

#endif  // CSR_BENCH_SCALAR_WINDOW_JOIN_H_
