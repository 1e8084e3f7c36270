#include "core/intersection.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace gpm::core {
namespace {

using graph::VertexId;

// The host kernel gallops once the longer list is this many times the
// shorter one; below it, block skipping wins.
constexpr std::size_t kHostGallopRatio = 32;
// Width of a skipped block; the kernel's OR tests exactly this many.
constexpr std::ptrdiff_t kBlock = 8;
// MarkedSet probes a list of at most this many times the set's size;
// longer ones go through the kernel.
constexpr std::size_t kProbeRatio = 4;

// out = a ∩ b, whatever the warp was charged for. Galloping narrows one
// lower_bound per element of the shorter list over the rest of the longer
// one. Otherwise each element of the shorter list skips whole blocks of
// the longer one and tests the block it stops in with an OR of compares,
// which compiles to branch-free code on any target. A hit is written
// unconditionally and kept by advancing `n`, so no branch depends on it.
void IntersectKernel(std::span<const VertexId> a, std::span<const VertexId> b,
                     std::vector<VertexId>* out) {
  std::span<const VertexId> small = a.size() <= b.size() ? a : b;
  std::span<const VertexId> large = a.size() <= b.size() ? b : a;
  out->resize(small.size());
  VertexId* dst = out->data();
  std::size_t n = 0;
  const VertexId* p = large.data();
  const VertexId* end = p + large.size();
  if (large.size() >= kHostGallopRatio * small.size()) {
    for (VertexId x : small) {
      p = std::lower_bound(p, end, x);
      if (p == end) break;
      dst[n] = x;
      n += *p == x;
    }
  } else {
    for (VertexId x : small) {
      while (end - p >= kBlock && p[kBlock - 1] < x) p += kBlock;
      if (end - p >= kBlock) {
        const bool hit = (p[0] == x) | (p[1] == x) | (p[2] == x) |
                         (p[3] == x) | (p[4] == x) | (p[5] == x) |
                         (p[6] == x) | (p[7] == x);
        dst[n] = x;
        n += hit;
        continue;
      }
      while (p != end && *p < x) ++p;
      if (p == end) break;
      dst[n] = x;
      n += *p == x;
    }
  }
  out->resize(n);
}

void ChargeMerge(gpusim::WarpCtx& warp, std::size_t a, std::size_t b) {
  warp.ChargeSimtWork(a + b);
}

void ChargeGallop(gpusim::WarpCtx& warp, std::size_t small,
                  std::size_t large) {
  double probes =
      large == 0 ? 1.0 : std::log2(static_cast<double>(large) + 1);
  warp.ChargeSimtWork(small, probes);
}

// IntersectAdaptive's charge, shared with MarkedSet::Intersect.
void ChargeAdaptive(gpusim::WarpCtx& warp, std::size_t a, std::size_t b) {
  std::size_t small = std::min(a, b);
  std::size_t large = std::max(a, b);
  if (small == 0) return;
  if (large / small >= kGallopRatio) {
    ChargeGallop(warp, small, large);
  } else {
    ChargeMerge(warp, a, b);
  }
}

// One bit per vertex id, all zeros outside a MarkedSet's lifetime.
struct ScratchBitmap {
  std::vector<uint64_t> words;
  bool in_use = false;
};

ScratchBitmap& ThreadBitmap() {
  thread_local ScratchBitmap bitmap;
  return bitmap;
}

}  // namespace

void IntersectSorted(gpusim::WarpCtx& warp,
                     std::span<const graph::VertexId> a,
                     std::span<const graph::VertexId> b,
                     std::vector<graph::VertexId>* out) {
  ChargeMerge(warp, a.size(), b.size());
  IntersectKernel(a, b, out);
}

void UnionSorted(gpusim::WarpCtx& warp, std::span<const graph::VertexId> a,
                 std::span<const graph::VertexId> b,
                 std::vector<graph::VertexId>* out) {
  out->clear();
  warp.ChargeSimtWork(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(*out));
}

void IntersectGalloping(gpusim::WarpCtx& warp,
                        std::span<const graph::VertexId> a,
                        std::span<const graph::VertexId> b,
                        std::vector<graph::VertexId>* out) {
  ChargeGallop(warp, std::min(a.size(), b.size()),
               std::max(a.size(), b.size()));
  IntersectKernel(a, b, out);
}

void IntersectAdaptive(gpusim::WarpCtx& warp,
                       std::span<const graph::VertexId> a,
                       std::span<const graph::VertexId> b,
                       std::vector<graph::VertexId>* out) {
  ChargeAdaptive(warp, a.size(), b.size());
  IntersectKernel(a, b, out);
}

bool BinaryContains(gpusim::WarpCtx& warp,
                    std::span<const graph::VertexId> list,
                    graph::VertexId x) {
  double probes =
      list.empty() ? 1.0 : std::log2(static_cast<double>(list.size()) + 1);
  warp.ChargeCompute(probes);
  return std::binary_search(list.begin(), list.end(), x);
}

MarkedSet::MarkedSet(std::span<const graph::VertexId> set,
                     std::size_t num_vertices)
    : set_(set) {
  ScratchBitmap& bitmap = ThreadBitmap();
  GAMMA_CHECK(!bitmap.in_use) << "a thread holds one MarkedSet at a time";
  bitmap.in_use = true;
  const std::size_t words = (num_vertices + 63) / 64;
  if (bitmap.words.size() < words) bitmap.words.resize(words);
  words_ = bitmap.words.data();
  for (VertexId x : set_) words_[x >> 6] |= uint64_t{1} << (x & 63);
}

MarkedSet::~MarkedSet() {
  // Every bit set in a word the set touches belongs to the set.
  for (VertexId x : set_) words_[x >> 6] = 0;
  ThreadBitmap().in_use = false;
}

void MarkedSet::Intersect(gpusim::WarpCtx& warp,
                          std::span<const graph::VertexId> b,
                          std::vector<graph::VertexId>* out) const {
  ChargeAdaptive(warp, set_.size(), b.size());
  if (b.size() > kProbeRatio * set_.size()) {
    IntersectKernel(set_, b, out);
    return;
  }
  out->resize(b.size());
  VertexId* dst = out->data();
  std::size_t n = 0;
  for (VertexId x : b) {
    dst[n] = x;
    n += (words_[x >> 6] >> (x & 63)) & 1;
  }
  out->resize(n);
}

}  // namespace gpm::core
