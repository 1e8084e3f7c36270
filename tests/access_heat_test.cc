#include <gtest/gtest.h>

#include "core/access_heat.h"
#include "core/adaptive_access.h"
#include "graph/generators.h"
#include "gpusim/device.h"

namespace gpm::core {
namespace {

TEST(AccessHeatTest, SpatialLocAccumulatesBytesTimesAccesses) {
  AccessHeatTracker t(16384, 4096);  // 4 pages
  t.BeginExtension();
  t.AddPlannedAccess(0, 100, 3);      // page 0: 300
  t.AddPlannedAccess(4096, 50, 2);    // page 1: 100
  t.FinalizeExtension();
  EXPECT_DOUBLE_EQ(t.spatial()[0], 300.0);
  EXPECT_DOUBLE_EQ(t.spatial()[1], 100.0);
  EXPECT_DOUBLE_EQ(t.spatial()[2], 0.0);
}

TEST(AccessHeatTest, AccessSpanningPagesSplitsByBytes) {
  AccessHeatTracker t(16384, 4096);
  t.BeginExtension();
  t.AddPlannedAccess(4000, 200, 1);  // 96 bytes on page 0, 104 on page 1
  t.FinalizeExtension();
  EXPECT_DOUBLE_EQ(t.spatial()[0], 96.0);
  EXPECT_DOUBLE_EQ(t.spatial()[1], 104.0);
}

TEST(AccessHeatTest, FirstExtensionHeatIsPureSpatial) {
  AccessHeatTracker t(8192, 4096);
  t.BeginExtension();
  t.AddPlannedAccess(0, 10, 1);
  const auto& heat = t.FinalizeExtension();
  EXPECT_DOUBLE_EQ(heat[0], 10.0);
}

TEST(AccessHeatTest, TemporalHistoryRollsForward) {
  AccessHeatTracker t(8192, 4096);
  t.BeginExtension();
  t.AddPlannedAccess(0, 100, 1);
  t.FinalizeExtension();
  t.BeginExtension();
  t.AddPlannedAccess(4096, 100, 1);
  const auto& heat = t.FinalizeExtension();
  EXPECT_DOUBLE_EQ(t.temporal()[0], 100.0);
  // Page 0 keeps temporal heat; page 1 has spatial heat.
  EXPECT_GT(heat[0], 0.0);
  EXPECT_GT(heat[1], 0.0);
}

TEST(AccessHeatTest, TopPagesOrderedByHeat) {
  AccessHeatTracker t(4 * 4096, 4096);
  t.BeginExtension();
  t.AddPlannedAccess(0, 10, 1);            // page 0: 10
  t.AddPlannedAccess(4096, 500, 1);        // page 1: 500
  t.AddPlannedAccess(2 * 4096, 100, 1);    // page 2: 100
  t.FinalizeExtension();
  auto top = t.TopPages(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
}

TEST(AccessHeatTest, TopPagesBreaksEqualHeatTiesByPageIndex) {
  // Six pages with identical heat and two hotter ones interleaved: the
  // selection must be deterministic (score desc, then page index asc), or
  // the hybrid's unified page set — and every audit record derived from
  // it — would vary across platforms and partial_sort implementations.
  AccessHeatTracker t(8 * 4096, 4096);
  t.BeginExtension();
  for (int p = 0; p < 8; ++p) t.AddPlannedAccess(p * 4096, 100, 1);
  t.AddPlannedAccess(5 * 4096, 100, 1);  // page 5: 200
  t.AddPlannedAccess(2 * 4096, 100, 1);  // page 2: 200
  t.FinalizeExtension();
  auto top = t.TopPages(5);
  ASSERT_EQ(top.size(), 5u);
  // The two 200-heat pages first (tie between them broken 2 < 5), then
  // the lowest-indexed of the six 100-heat pages.
  EXPECT_EQ(top[0], 2u);
  EXPECT_EQ(top[1], 5u);
  EXPECT_EQ(top[2], 0u);
  EXPECT_EQ(top[3], 1u);
  EXPECT_EQ(top[4], 3u);
  // And repeatably so.
  EXPECT_EQ(t.TopPages(5), top);
}

TEST(AccessHeatTest, FinalizeRecordsWSpatial) {
  AccessHeatTracker t(8192, 4096);
  EXPECT_DOUBLE_EQ(t.last_w_spatial(), 1.0);  // before any finalize
  t.BeginExtension();
  t.AddPlannedAccess(0, 100, 1);
  t.FinalizeExtension();
  EXPECT_DOUBLE_EQ(t.last_w_spatial(), 1.0);  // no history yet
  t.BeginExtension();
  t.AddPlannedAccess(0, 300, 1);
  t.FinalizeExtension();
  // w_s = A_2 / (A_2 + A_1) = 300 / 400.
  EXPECT_DOUBLE_EQ(t.last_w_spatial(), 0.75);
  EXPECT_DOUBLE_EQ(t.current_total(), 300.0);
}

TEST(AccessHeatTest, TopPagesExcludesColdPages) {
  AccessHeatTracker t(4 * 4096, 4096);
  t.BeginExtension();
  t.AddPlannedAccess(0, 10, 1);
  t.FinalizeExtension();
  EXPECT_EQ(t.TopPages(10).size(), 1u);
}

TEST(AccessHeatTest, HotPageOverlapDetectsReuse) {
  AccessHeatTracker t(8 * 4096, 4096);
  t.BeginExtension();
  for (int p = 0; p < 4; ++p) t.AddPlannedAccess(p * 4096, 100, 1);
  t.FinalizeExtension();
  t.BeginExtension();
  for (int p = 2; p < 6; ++p) t.AddPlannedAccess(p * 4096, 100, 1);
  t.FinalizeExtension();
  // Pages 2,3 shared out of top-4.
  EXPECT_NEAR(t.HotPageOverlap(4), 0.5, 1e-9);
}

TEST(AccessHeatTest, OverlapZeroBeforeSecondExtension) {
  AccessHeatTracker t(8192, 4096);
  t.BeginExtension();
  t.AddPlannedAccess(0, 10, 1);
  t.FinalizeExtension();
  EXPECT_DOUBLE_EQ(t.HotPageOverlap(4), 0.0);
}

class GraphAccessorTest : public ::testing::Test {
 protected:
  gpusim::SimParams Params() {
    gpusim::SimParams p;
    p.device_memory_bytes = 2 << 20;
    p.um_device_buffer_bytes = 256 << 10;
    return p;
  }
};

TEST_F(GraphAccessorTest, HybridRoutesHotPagesToUnified) {
  gpusim::Device device(Params());
  Rng rng(1);
  graph::Graph g = graph::PowerLaw(2000, 20000, 0.9, &rng);
  GraphAccessor accessor(&device, &g, {});
  ASSERT_TRUE(accessor.Prepare().ok());

  // Frontier dominated by hub vertices: their pages should go unified.
  std::vector<std::pair<graph::VertexId, uint64_t>> frontier;
  for (graph::VertexId v = 0; v < 50; ++v) frontier.push_back({v, 100});
  accessor.PlanExtension(frontier);
  EXPECT_GT(accessor.unified_page_count(), 0u);

  gpusim::DeviceStats& stats = device.stats();
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    for (graph::VertexId v = 0; v < 50; ++v) {
      auto adj = accessor.ReadAdjacency(w, v);
      EXPECT_EQ(adj.ids.size(), g.degree(v));
      EXPECT_EQ(adj.bits, g.neighbor_bits(v));
    }
  });
  EXPECT_GT(stats.um_page_faults + stats.um_page_hits, 0u);
}

TEST_F(GraphAccessorTest, ZeroCopyOnlyNeverFaults) {
  gpusim::Device device(Params());
  Rng rng(2);
  graph::Graph g = graph::ErdosRenyi(500, 2000, &rng);
  GraphAccessor::Options options;
  options.placement = GraphPlacement::kZeroCopyOnly;
  GraphAccessor accessor(&device, &g, options);
  ASSERT_TRUE(accessor.Prepare().ok());
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    for (graph::VertexId v = 0; v < 100; ++v) {
      accessor.ReadAdjacency(w, v);
    }
  });
  EXPECT_EQ(device.stats().um_page_faults, 0u);
  EXPECT_GT(device.stats().zc_transactions, 0u);
}

TEST_F(GraphAccessorTest, UnifiedOnlyNeverUsesZeroCopyForAdjacency) {
  gpusim::Device device(Params());
  Rng rng(3);
  graph::Graph g = graph::ErdosRenyi(500, 2000, &rng);
  GraphAccessor::Options options;
  options.placement = GraphPlacement::kUnifiedOnly;
  GraphAccessor accessor(&device, &g, options);
  ASSERT_TRUE(accessor.Prepare().ok());
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    for (graph::VertexId v = 0; v < 100; ++v) {
      accessor.ReadAdjacency(w, v);
    }
  });
  EXPECT_GT(device.stats().um_page_faults, 0u);
  EXPECT_EQ(device.stats().zc_transactions, 0u);
}

TEST_F(GraphAccessorTest, DeviceResidentRequiresFit) {
  gpusim::SimParams p = Params();
  p.device_memory_bytes = 64 << 10;  // too small for the CSR below
  p.um_device_buffer_bytes = 0;
  gpusim::Device device(p);
  Rng rng(4);
  graph::Graph g = graph::ErdosRenyi(5000, 40000, &rng);
  GraphAccessor::Options options;
  options.placement = GraphPlacement::kDeviceResident;
  GraphAccessor accessor(&device, &g, options);
  Status st = accessor.Prepare();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kDeviceOutOfMemory);
}

TEST_F(GraphAccessorTest, DeviceResidentFitsAndCopies) {
  gpusim::SimParams p = Params();
  p.um_device_buffer_bytes = 0;
  gpusim::Device device(p);
  Rng rng(5);
  graph::Graph g = graph::ErdosRenyi(100, 300, &rng);
  GraphAccessor::Options options;
  options.placement = GraphPlacement::kDeviceResident;
  GraphAccessor accessor(&device, &g, options);
  ASSERT_TRUE(accessor.Prepare().ok());
  EXPECT_EQ(device.stats().explicit_h2d_bytes, g.StorageBytes());
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    accessor.ReadAdjacency(w, 0);
  });
  EXPECT_GT(device.stats().device_reads, 0u);
}

TEST_F(GraphAccessorTest, EdgeEndpointsAndEids) {
  gpusim::Device device(Params());
  Rng rng(7);
  graph::Graph g = graph::ErdosRenyi(50, 120, &rng);
  g.EnsureEdgeIndex();
  GraphAccessor accessor(&device, &g, {});
  ASSERT_TRUE(accessor.Prepare().ok());
  device.LaunchKernel(1, [&](gpusim::WarpCtx& w, std::size_t) {
    auto [nbrs, eids] = accessor.ReadAdjacencyWithEids(w, 3);
    ASSERT_EQ(nbrs.size(), eids.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      graph::Edge e = accessor.ReadEdgeEndpoints(w, eids[i]);
      EXPECT_TRUE((e.u == 3 && e.v == nbrs[i]) ||
                  (e.v == 3 && e.u == nbrs[i]));
    }
  });
}

}  // namespace
}  // namespace gpm::core
