#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/random.h"
#include "core/intersection.h"
#include "gpusim/device.h"

namespace gpm::core {
namespace {

using graph::VertexId;

gpusim::SimParams SmallParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 1 << 20;
  p.um_device_buffer_bytes = 0;
  return p;
}

std::vector<VertexId> Evens(std::size_t n) {
  std::vector<VertexId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<VertexId>(2 * i);
  return v;
}

std::vector<VertexId> Multiples(std::size_t n, VertexId step) {
  std::vector<VertexId> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<VertexId>(step * i);
  }
  return v;
}

template <typename Fn>
std::pair<std::vector<VertexId>, double> RunIntersect(
    Fn&& fn, const std::vector<VertexId>& a,
    const std::vector<VertexId>& b) {
  gpusim::Device device(SmallParams());
  std::vector<VertexId> out;
  double cycles = 0;
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    fn(w, a, b, &out);
    cycles = w.cycles();
  });
  return {out, cycles};
}

TEST(IntersectionTest, MergeAndGallopingAgree) {
  auto a = Evens(100);                // 0,2,...,198
  auto b = Multiples(40, 3);          // 0,3,...,117
  auto [merge_out, merge_cycles] = RunIntersect(IntersectSorted, a, b);
  auto [gallop_out, gallop_cycles] =
      RunIntersect(IntersectGalloping, a, b);
  EXPECT_EQ(merge_out, gallop_out);
  // Multiples of 6 up to min(198, 117).
  std::vector<VertexId> expected;
  for (VertexId x = 0; x <= 117; x += 6) expected.push_back(x);
  EXPECT_EQ(merge_out, expected);
}

TEST(IntersectionTest, GallopingCheaperWhenLopsided) {
  auto small = Multiples(8, 100);     // 8 elements
  auto large = Evens(100000);         // 100k elements
  auto [m_out, merge_cycles] = RunIntersect(IntersectSorted, small, large);
  auto [g_out, gallop_cycles] =
      RunIntersect(IntersectGalloping, small, large);
  EXPECT_EQ(m_out, g_out);
  EXPECT_LT(gallop_cycles, merge_cycles / 10);
}

TEST(IntersectionTest, MergeCheaperWhenBalanced) {
  auto a = Evens(5000);
  auto b = Multiples(5000, 3);
  auto [m_out, merge_cycles] = RunIntersect(IntersectSorted, a, b);
  auto [g_out, gallop_cycles] =
      RunIntersect(IntersectGalloping, a, b);
  EXPECT_EQ(m_out, g_out);
  EXPECT_LT(merge_cycles, gallop_cycles);
}

TEST(IntersectionTest, AdaptivePicksTheCheaper) {
  // Lopsided: adaptive should cost like galloping.
  auto small = Multiples(8, 100);
  auto large = Evens(100000);
  auto [a_out, adaptive_cycles] =
      RunIntersect(IntersectAdaptive, small, large);
  auto [g_out, gallop_cycles] =
      RunIntersect(IntersectGalloping, small, large);
  EXPECT_EQ(a_out, g_out);
  EXPECT_DOUBLE_EQ(adaptive_cycles, gallop_cycles);

  // Balanced: adaptive should cost like merge.
  auto a = Evens(5000);
  auto b = Multiples(5000, 3);
  auto [a2_out, adaptive2] = RunIntersect(IntersectAdaptive, a, b);
  auto [m2_out, merge2] = RunIntersect(IntersectSorted, a, b);
  EXPECT_EQ(a2_out, m2_out);
  EXPECT_DOUBLE_EQ(adaptive2, merge2);
}

TEST(IntersectionTest, EmptyInputs) {
  std::vector<VertexId> empty;
  auto a = Evens(10);
  auto [out1, c1] = RunIntersect(IntersectAdaptive, empty, a);
  EXPECT_TRUE(out1.empty());
  auto [out2, c2] = RunIntersect(IntersectAdaptive, a, empty);
  EXPECT_TRUE(out2.empty());
  auto [out3, c3] = RunIntersect(IntersectSorted, empty, empty);
  EXPECT_TRUE(out3.empty());
}

TEST(IntersectionTest, UnionSortedDedups) {
  gpusim::Device device(SmallParams());
  std::vector<VertexId> a{1, 3, 5}, b{3, 4, 5, 6}, out;
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    UnionSorted(w, a, b, &out);
  });
  EXPECT_EQ(out, (std::vector<VertexId>{1, 3, 4, 5, 6}));
}

TEST(IntersectionTest, BinaryContainsProbes) {
  gpusim::Device device(SmallParams());
  auto list = Evens(1000);
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    EXPECT_TRUE(BinaryContains(w, list, 500));
    EXPECT_FALSE(BinaryContains(w, list, 501));
    EXPECT_GT(w.cycles(), 0.0);
  });
}

// n distinct ids below `universe`, ascending.
std::vector<VertexId> RandomList(Rng* rng, std::size_t n, VertexId universe) {
  std::vector<bool> taken(universe, false);
  std::vector<VertexId> list;
  while (list.size() < n) {
    VertexId x = static_cast<VertexId>(rng->NextBounded(universe));
    if (!taken[x]) {
      taken[x] = true;
      list.push_back(x);
    }
  }
  std::sort(list.begin(), list.end());
  return list;
}

// The charge formulas the primitives have always used, in cycles.
double Steps(std::size_t elems, int warp_size) {
  return static_cast<double>((elems + warp_size - 1) / warp_size);
}
double MergeCycles(std::size_t a, std::size_t b, int warp_size) {
  return Steps(a + b, warp_size);
}
double GallopCycles(std::size_t a, std::size_t b, int warp_size) {
  const std::size_t large = std::max(a, b);
  const double probes =
      large == 0 ? 1.0 : std::log2(static_cast<double>(large) + 1);
  return Steps(std::min(a, b), warp_size) * probes;
}
double AdaptiveCycles(std::size_t a, std::size_t b, int warp_size) {
  const std::size_t small = std::min(a, b);
  if (small == 0) return 0;
  return std::max(a, b) / small >= kGallopRatio
             ? GallopCycles(a, b, warp_size)
             : MergeCycles(a, b, warp_size);
}

using Primitive = void (*)(gpusim::WarpCtx&, std::span<const VertexId>,
                           std::span<const VertexId>,
                           std::vector<VertexId>*);
using Formula = double (*)(std::size_t, std::size_t, int);

void ExpectSameOps(const gpusim::WarpTaskLog& got,
                   const gpusim::WarpTaskLog& want,
                   const std::string& label) {
  ASSERT_EQ(got.ops.size(), want.ops.size()) << label;
  for (std::size_t i = 0; i < got.ops.size(); ++i) {
    EXPECT_EQ(got.ops[i].kind, want.ops[i].kind) << label;
    EXPECT_EQ(got.ops[i].id, want.ops[i].id) << label;
    EXPECT_EQ(got.ops[i].a, want.ops[i].a) << label;
    EXPECT_EQ(got.ops[i].b, want.ops[i].b) << label;
    EXPECT_EQ(got.ops[i].d, want.ops[i].d) << label;
  }
  EXPECT_TRUE(got.callbacks.empty()) << label;
}

// Every primitive against std::set_intersection and its charge formula,
// and MarkedSet against IntersectAdaptive, over random lists whose sizes
// straddle the 8-element blocks, the warp width and every size-ratio
// threshold (probe 4, charge gallop 16, host gallop 32), in both orders.
TEST(IntersectionTest, DifferentialAgainstSetIntersection) {
  const std::size_t kSizes[] = {0, 1, 7, 8, 9, 16, 63, 64, 65, 1000};
  const std::size_t kRatios[] = {1, 2, 4, 5, 15, 16, 17, 31, 32, 33, 64};
  const struct {
    const char* name;
    Primitive fn;
    Formula cycles;
  } kPrimitives[] = {
      {"IntersectSorted", IntersectSorted, MergeCycles},
      {"IntersectGalloping", IntersectGalloping, GallopCycles},
      {"IntersectAdaptive",
       [](gpusim::WarpCtx& w, std::span<const VertexId> a,
          std::span<const VertexId> b,
          std::vector<VertexId>* out) { IntersectAdaptive(w, a, b, out); },
       AdaptiveCycles},
  };
  gpusim::Device device(SmallParams());
  const int warp_size = device.params().warp_size;
  Rng rng(20231);
  for (std::size_t small : kSizes) {
    for (std::size_t ratio : kRatios) {
      const std::size_t large = small == 0 ? ratio - 1 : small * ratio;
      // About half the shorter list's ids also sit in the longer one.
      const auto universe = static_cast<VertexId>(2 * large + small + 1);
      const std::vector<VertexId> s = RandomList(&rng, small, universe);
      const std::vector<VertexId> l = RandomList(&rng, large, universe);
      for (bool swapped : {false, true}) {
        const std::vector<VertexId>& a = swapped ? l : s;
        const std::vector<VertexId>& b = swapped ? s : l;
        const std::string label = std::to_string(a.size()) + " x " +
                                  std::to_string(b.size());
        std::vector<VertexId> want;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(want));
        for (const auto& p : kPrimitives) {
          gpusim::WarpCtx w(&device, 0);
          std::vector<VertexId> out{42};  // stale contents are replaced
          p.fn(w, a, b, &out);
          EXPECT_EQ(out, want) << p.name << " " << label;
          const double cycles = p.cycles(a.size(), b.size(), warp_size);
          EXPECT_EQ(w.cycles(), cycles) << p.name << " " << label;
          gpusim::ResourceCycles classes{};
          classes[static_cast<std::size_t>(gpusim::ResourceClass::kCompute)] =
              cycles;
          EXPECT_EQ(w.class_cycles(), classes) << p.name << " " << label;
        }

        // The probe path: `a` marked, `b` probed (or intersected by the
        // kernel when more than 4x longer).
        gpusim::WarpTaskLog adaptive_log, marked_log;
        gpusim::WarpCtx adaptive_rec(&device, 0, &adaptive_log);
        gpusim::WarpCtx marked_rec(&device, 0, &marked_log);
        gpusim::WarpCtx adaptive(&device, 0), marked(&device, 0);
        std::vector<VertexId> adaptive_out, marked_out{42};
        IntersectAdaptive(adaptive, a, b, &adaptive_out);
        IntersectAdaptive(adaptive_rec, a, b, &adaptive_out);
        {
          MarkedSet set(a, universe);
          IntersectAdaptive(marked, set.set(), b, &marked_out);
          EXPECT_EQ(marked_out, want) << "MarkedSet " << label;
          IntersectAdaptive(marked_rec, set.set(), b, &marked_out);
        }
        EXPECT_EQ(marked_out, adaptive_out) << "MarkedSet " << label;
        EXPECT_EQ(marked.cycles(), adaptive.cycles()) << "MarkedSet " << label;
        EXPECT_EQ(marked.class_cycles(), adaptive.class_cycles())
            << "MarkedSet " << label;
        ExpectSameOps(marked_log, adaptive_log, "MarkedSet " + label);
      }
    }
  }
}

// One bit per id below `universe`, in graph::VertexSet's layout.
std::vector<uint64_t> Bitmap(const std::vector<VertexId>& list,
                             VertexId universe) {
  std::vector<uint64_t> words((universe + 63) / 64, 0);
  for (VertexId x : list) words[x >> 6] |= uint64_t{1} << (x & 63);
  return words;
}

// IntersectAdaptive(a, b) returns std::set_intersection of the two lists,
// and charges exactly what the same call without bitmaps charges, down to
// the recorded WarpOp log.
void ExpectBitmapsChangeNothing(gpusim::Device* device, graph::VertexSet a,
                                graph::VertexSet b,
                                const std::string& label) {
  std::vector<VertexId> want;
  std::set_intersection(a.ids.begin(), a.ids.end(), b.ids.begin(),
                        b.ids.end(), std::back_inserter(want));
  gpusim::WarpTaskLog plain_log, bits_log;
  gpusim::WarpCtx plain_rec(device, 0, &plain_log);
  gpusim::WarpCtx bits_rec(device, 0, &bits_log);
  gpusim::WarpCtx plain(device, 0), bits(device, 0);
  std::vector<VertexId> plain_out, out{42};  // stale contents are replaced
  IntersectAdaptive(plain, a.ids, b.ids, &plain_out);
  IntersectAdaptive(plain_rec, a.ids, b.ids, &plain_out);
  IntersectAdaptive(bits, a, b, &out);
  EXPECT_EQ(out, want) << label;
  out = {42};
  IntersectAdaptive(bits_rec, a, b, &out);
  EXPECT_EQ(out, want) << label;
  EXPECT_EQ(bits.cycles(), plain.cycles()) << label;
  EXPECT_EQ(bits.class_cycles(), plain.class_cycles()) << label;
  ExpectSameOps(bits_log, plain_log, label);
}

// Every way an operand can carry a bitmap: the longer side, the shorter
// side, both, and a MarkedSet on either side with or without a bitmap on
// the other. Sizes include empty and equal lists and ratios on both sides
// of 4 (probing the longer list into the shorter one's bitmap), 16 (the
// charge's gallop) and 32 (the host kernel's gallop), in both orders. Each
// nonempty list ends at the universe's last id, so both bitmaps hold a
// shared id in their last word.
TEST(IntersectionTest, BitmapsChangeNoResultOrCharge) {
  const std::size_t kSizes[] = {0, 1, 7, 8, 9, 63, 64, 65, 300};
  const std::size_t kRatios[] = {1, 3, 4, 5, 15, 16, 17, 31, 32, 33};
  gpusim::Device device(SmallParams());
  Rng rng(20232);
  for (std::size_t small : kSizes) {
    for (std::size_t ratio : kRatios) {
      const std::size_t large = small == 0 ? ratio - 1 : small * ratio;
      const auto universe = static_cast<VertexId>(2 * large + small + 1);
      auto draw = [&](std::size_t n) {
        std::vector<VertexId> list = RandomList(&rng, n, universe);
        if (!list.empty() && list.back() != universe - 1) {
          list.back() = universe - 1;
        }
        return list;
      };
      const std::vector<VertexId> s = draw(small);
      const std::vector<VertexId> l = draw(large);
      const std::vector<uint64_t> s_bits = Bitmap(s, universe);
      const std::vector<uint64_t> l_bits = Bitmap(l, universe);
      for (bool swapped : {false, true}) {
        const std::string sizes = std::to_string(swapped ? large : small) +
                                  " x " +
                                  std::to_string(swapped ? small : large);
        auto check = [&](graph::VertexSet short_set,
                         graph::VertexSet long_set, const char* where) {
          const std::string label = sizes + ", bitmap on " + where;
          if (swapped) {
            ExpectBitmapsChangeNothing(&device, long_set, short_set, label);
          } else {
            ExpectBitmapsChangeNothing(&device, short_set, long_set, label);
          }
        };
        check({s}, {l, l_bits.data()}, "the longer side");
        check({s, s_bits.data()}, {l}, "the shorter side");
        check({s, s_bits.data()}, {l, l_bits.data()}, "both sides");
        {
          MarkedSet marked(s, universe);
          check(marked.set(), {l}, "the shorter side, marked");
          check(marked.set(), {l, l_bits.data()},
                "the shorter side, marked, and the longer side");
        }
        {
          MarkedSet marked(l, universe);
          check({s}, marked.set(), "the longer side, marked");
          check({s, s_bits.data()}, marked.set(),
                "the longer side, marked, and the shorter side");
        }
      }
    }
  }
}

// The graph's own hub bitmaps, on a vertex count that is not a multiple
// of 64: every pair of neighbor lists, hub or not, intersects to the same
// result and charge with Graph::neighbor_bits as without.
TEST(IntersectionTest, HubBitmapsChangeNoResultOrCharge) {
  constexpr VertexId kVertices = 200;  // hubs have degree >= 6
  Rng rng(20233);
  std::vector<graph::Edge> edges;
  for (VertexId v = 0; v < kVertices; ++v) {
    // Vertices 0-9 are hubs whose lists reach into the last word; most
    // others stay below the hub degree.
    const std::size_t degree = v < 10 ? 12 + 4 * v : v % 3;
    for (std::size_t i = 0; i < degree; ++i) {
      edges.push_back(
          {v, static_cast<VertexId>(rng.NextBounded(kVertices))});
    }
    if (v < 10) edges.push_back({v, kVertices - 1 - v});
  }
  const graph::Graph g = graph::Graph::FromEdges(kVertices, edges);
  gpusim::Device device(SmallParams());
  std::size_t hubs = 0;
  for (VertexId u = 0; u < kVertices; ++u) {
    hubs += g.neighbor_bits(u) != nullptr;
    for (VertexId v = 0; v < kVertices; ++v) {
      ExpectBitmapsChangeNothing(
          &device, {g.neighbors(u), g.neighbor_bits(u)},
          {g.neighbors(v), g.neighbor_bits(v)},
          "N(" + std::to_string(u) + ") x N(" + std::to_string(v) + ")");
    }
  }
  EXPECT_GE(hubs, 10u);
  EXPECT_LT(hubs, kVertices / 2);
}

}  // namespace
}  // namespace gpm::core
