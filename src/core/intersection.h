#ifndef GAMMA_CORE_INTERSECTION_H_
#define GAMMA_CORE_INTERSECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/warp.h"
#include "graph/csr.h"

namespace gpm::core {

/// Warp-parallel sorted-list primitives. Each helper both computes the
/// functional result and charges the calling warp with the SIMT cost of the
/// operation (merge-style intersection: one step per element pair scanned;
/// binary-search probes: log2 of the searched list per probe).
///
/// Precondition: every input list is strictly increasing. Adjacency lists
/// are, because Graph::FromEdges sorts and deduplicates them (LoadBinary
/// rebuilds through it too).
///
/// A charge depends on the list sizes only, never on their contents, their
/// bitmaps or how the host computes the result. The intersections below
/// therefore share one host kernel whatever the warp is charged for, and
/// IntersectAdaptive swaps it for a bitmap probe when an operand has one;
/// only the charge tells merge from galloping.

/// out = a ∩ b. Charged as a warp merge.
void IntersectSorted(gpusim::WarpCtx& warp,
                     std::span<const graph::VertexId> a,
                     std::span<const graph::VertexId> b,
                     std::vector<graph::VertexId>* out);

/// out = a ∩ b via galloping: every element of the smaller list binary-
/// searches the larger one. Charged |small| x log2(|large|) — the right
/// primitive when the lists are very different sizes (hub adjacency vs a
/// short intersection prefix).
void IntersectGalloping(gpusim::WarpCtx& warp,
                        std::span<const graph::VertexId> a,
                        std::span<const graph::VertexId> b,
                        std::vector<graph::VertexId>* out);

/// Picks merge vs galloping by size ratio (gallop when the larger list is
/// >= kGallopRatio times the smaller; the classic adaptive intersection).
/// Charges nothing when either list is empty. The host probes the shorter
/// list into the longer one's bitmap, or else the longer list into the
/// shorter one's when it is at most 4 times as long; otherwise it runs the
/// shared kernel. `out` must not alias either operand.
inline constexpr std::size_t kGallopRatio = 16;
void IntersectAdaptive(gpusim::WarpCtx& warp, graph::VertexSet a,
                       graph::VertexSet b,
                       std::vector<graph::VertexId>* out);

/// out = a ∪ b (dedup). Charged as a warp merge.
void UnionSorted(gpusim::WarpCtx& warp, std::span<const graph::VertexId> a,
                 std::span<const graph::VertexId> b,
                 std::vector<graph::VertexId>* out);

/// True iff `x` is in sorted `list`; charged as one binary-search probe.
bool BinaryContains(gpusim::WarpCtx& warp,
                    std::span<const graph::VertexId> list,
                    graph::VertexId x);

/// A list marked in the calling host thread's scratch bitmap, for
/// intersecting one list with many (a pre-merge group's hoisted prefix
/// with each row's adjacency list): `set()` is the list with that bitmap,
/// an operand IntersectAdaptive can probe. The bitmap holds one bit per
/// vertex and is all zeros outside a MarkedSet's lifetime: the destructor
/// clears only the words the set marked. One thread holds at most one
/// MarkedSet at a time, and destroys it on the thread that made it.
class MarkedSet {
 public:
  /// `set` must outlive this object unchanged, and every element of `set`
  /// and of each list intersected with `set()` must be < `num_vertices`.
  MarkedSet(std::span<const graph::VertexId> set, std::size_t num_vertices);
  ~MarkedSet();
  MarkedSet(const MarkedSet&) = delete;
  MarkedSet& operator=(const MarkedSet&) = delete;

  graph::VertexSet set() const { return {set_, words_}; }

 private:
  std::span<const graph::VertexId> set_;
  uint64_t* words_;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_INTERSECTION_H_
