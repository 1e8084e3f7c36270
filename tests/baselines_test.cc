#include <gtest/gtest.h>

#include "baselines/presets.h"
#include "baselines/systems.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"

namespace gpm::baselines {
namespace {

gpusim::SimParams BigDevice() {
  gpusim::SimParams p;
  p.device_memory_bytes = 32 << 20;
  p.um_device_buffer_bytes = 2 << 20;
  return p;
}

gpusim::SimParams TinyDevice() {
  gpusim::SimParams p;
  p.device_memory_bytes = 192 << 10;  // forces in-core systems out of memory
  p.um_device_buffer_bytes = 32 << 10;
  return p;
}

graph::Graph RandomLabeled(uint64_t seed, graph::VertexId n,
                           std::size_t m) {
  Rng rng(seed);
  graph::Graph g = graph::ErdosRenyi(n, m, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.3, &rng);
  g.EnsureEdgeIndex();
  return g;
}

TEST(CpuRefTest, KCliqueMatchesOracle) {
  graph::Graph g = RandomLabeled(1, 70, 420);
  CpuRunResult r = CpuKClique(g, 3, CpuModel{});
  EXPECT_EQ(r.count, graph::CountInstances(g, graph::Pattern::Triangle()));
  EXPECT_GT(r.ops, 0u);
  CpuRunResult r4 = CpuKClique(g, 4, CpuModel{});
  EXPECT_EQ(r4.count,
            graph::CountInstances(g, graph::Pattern::Clique(4)));
}

TEST(CpuRefTest, SubgraphMatchMatchesOracle) {
  graph::Graph g = RandomLabeled(2, 60, 240);
  for (const graph::Pattern& q :
       {graph::Pattern::Triangle(), graph::Pattern::Path(4),
        graph::Pattern::SmQuery(1, g.num_labels())}) {
    CpuRunResult r = CpuSubgraphMatch(g, q, CpuModel{}, false);
    EXPECT_EQ(r.count, graph::CountEmbeddings(g, q)) << q.DebugString();
  }
}

TEST(CpuRefTest, SymmetryBreakingReducesOpsNotCount) {
  graph::Graph g = RandomLabeled(3, 60, 240);
  graph::Pattern q = graph::Pattern::Triangle();
  CpuRunResult plain = CpuSubgraphMatch(g, q, CpuModel{}, false);
  CpuRunResult broken = CpuSubgraphMatch(g, q, CpuModel{}, true);
  EXPECT_EQ(plain.count, broken.count);
  EXPECT_LT(broken.ops, plain.ops);
}

TEST(CpuRefTest, FpmVariantsAgreeAtMinSupportOne) {
  graph::Graph g = RandomLabeled(4, 30, 70);
  CpuFpmResult emb = CpuFpmEmbeddingCentric(g, 2, 1, CpuModel{});
  CpuFpmResult pat = CpuFpmPatternCentric(g, 2, 1, CpuModel{});
  EXPECT_EQ(emb.patterns.size(), pat.patterns.size());
  for (const auto& e : emb.patterns.entries()) {
    const core::PatternEntry* other = pat.patterns.Find(e.code);
    ASSERT_NE(other, nullptr) << e.exemplar.DebugString();
    EXPECT_EQ(other->support, e.support) << e.exemplar.DebugString();
  }
}

TEST(CpuModelTest, ThreadsScaleComputeUntilBandwidthBound) {
  CpuModel st{.threads = 1, .cycles_per_op = 8.0};
  CpuModel mt{.threads = 4, .cycles_per_op = 8.0, .efficiency = 1.0};
  // 4 threads are still compute-bound (2 cycles/op > memory floor).
  EXPECT_DOUBLE_EQ(st.OpsToMillis(32000000) / 4.0,
                   mt.OpsToMillis(32000000));
  // 32 threads hit the DRAM floor: ops * bytes_per_op / bandwidth.
  CpuModel wide{.threads = 32, .cycles_per_op = 8.0, .efficiency = 1.0};
  double floor_ms =
      32000000 * wide.bytes_per_op / wide.bandwidth_bytes_per_cycle * 1e-6;
  EXPECT_DOUBLE_EQ(wide.OpsToMillis(32000000), floor_ms);
  // More threads never make it slower than single-threaded.
  EXPECT_LT(wide.OpsToMillis(32000000), st.OpsToMillis(32000000));
}

TEST(PangolinGpuTest, MatchesGammaCountsWhenItFits) {
  graph::Graph g = RandomLabeled(5, 60, 300);
  gpusim::Device d1(BigDevice()), d2(BigDevice());
  auto gamma = GammaKClique(&d1, g, 3, GammaDefaultOptions());
  auto pangolin = PangolinGpuKClique(&d2, g, 3);
  ASSERT_TRUE(gamma.ok()) << gamma.status().ToString();
  ASSERT_TRUE(pangolin.ok()) << pangolin.status().ToString();
  EXPECT_EQ(gamma.value().count, pangolin.value().count);
}

TEST(PangolinGpuTest, CrashesOutOfMemoryOnLargeInput) {
  Rng rng(6);
  graph::Graph g = graph::ErdosRenyi(3000, 30000, &rng);
  g.EnsureEdgeIndex();
  gpusim::Device device(TinyDevice());
  auto r = PangolinGpuKClique(&device, g, 4);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeviceOutOfMemory);
}

TEST(GammaTest, SurvivesWhereInCoreCrashes) {
  Rng rng(6);
  graph::Graph g = graph::ErdosRenyi(3000, 30000, &rng);
  g.EnsureEdgeIndex();
  gpusim::Device d1(TinyDevice());
  auto in_core = PangolinGpuKClique(&d1, g, 4);
  ASSERT_FALSE(in_core.ok());

  gpusim::SimParams p = TinyDevice();
  gpusim::Device d2(p);
  core::GammaOptions options = GammaDefaultOptions();
  options.extension.pool_bytes = 64 << 10;  // fit the tiny device
  auto gamma = GammaKClique(&d2, g, 4, options);
  ASSERT_TRUE(gamma.ok()) << gamma.status().ToString();
  EXPECT_EQ(gamma.value().count,
            graph::CountInstances(g, graph::Pattern::Clique(4)));
}

TEST(GsiTest, MatchesGammaOnSmQuery) {
  graph::Graph g = RandomLabeled(7, 70, 280);
  graph::Pattern q = graph::Pattern::SmQuery(1, g.num_labels());
  gpusim::Device d1(BigDevice()), d2(BigDevice());
  auto gamma = GammaMatch(&d1, g, q, GammaDefaultOptions());
  auto gsi = GsiMatch(&d2, g, q);
  ASSERT_TRUE(gamma.ok());
  ASSERT_TRUE(gsi.ok()) << gsi.status().ToString();
  EXPECT_EQ(gamma.value().count, gsi.value().count);
  EXPECT_EQ(gamma.value().count, graph::CountEmbeddings(g, q));
}

TEST(FpmSystemsTest, AllAgreeOnPatternCounts) {
  graph::Graph g = RandomLabeled(8, 40, 100);
  // At support 2 every 3-edge pattern is frequent; at 20 most are not, so
  // each system must drop the infrequent embeddings between iterations.
  for (uint64_t min_support : {2, 20}) {
    gpusim::Device d1(BigDevice()), d2(BigDevice());
    auto gamma = GammaFpm(&d1, g, 3, min_support, GammaDefaultOptions());
    auto pangolin = PangolinGpuFpm(&d2, g, 3, min_support);
    auto graphminer = GraphMinerFpm(g, 3, min_support);
    auto pangolin_st = PangolinStFpm(g, 3, min_support);
    ASSERT_TRUE(gamma.ok());
    ASSERT_TRUE(pangolin.ok()) << pangolin.status().ToString();
    EXPECT_EQ(gamma.value().count, pangolin.value().count) << min_support;
    EXPECT_EQ(gamma.value().count, graphminer.patterns.size())
        << min_support;
    EXPECT_EQ(graphminer.patterns.size(), pangolin_st.patterns.size())
        << min_support;
  }
}

TEST(PeakMemoryTest, GammaDeviceFootprintConstantPangolinGrows) {
  graph::Graph small = RandomLabeled(9, 80, 400);
  graph::Graph large = RandomLabeled(9, 400, 4000);
  gpusim::Device d1(BigDevice()), d2(BigDevice()), d3(BigDevice()),
      d4(BigDevice());
  auto gamma_small = GammaKClique(&d1, small, 3, GammaDefaultOptions());
  auto gamma_large = GammaKClique(&d2, large, 3, GammaDefaultOptions());
  auto pangolin_small = PangolinGpuKClique(&d3, small, 3);
  auto pangolin_large = PangolinGpuKClique(&d4, large, 3);
  ASSERT_TRUE(gamma_small.ok());
  ASSERT_TRUE(gamma_large.ok());
  ASSERT_TRUE(pangolin_small.ok());
  ASSERT_TRUE(pangolin_large.ok());
  // GAMMA's device footprint is its fixed buffers (UM page buffer +
  // write pool) regardless of input; the in-core system's grows with the
  // graph and its intermediate results.
  EXPECT_EQ(gamma_small.value().peak_device_bytes,
            gamma_large.value().peak_device_bytes);
  EXPECT_GT(pangolin_large.value().peak_device_bytes,
            pangolin_small.value().peak_device_bytes);
  // The workload data spills to host memory instead.
  EXPECT_GT(gamma_large.value().peak_host_bytes,
            gamma_small.value().peak_host_bytes);
}

TEST(PresetsTest, ConfigurationsDiffer) {
  core::GammaOptions gamma = GammaDefaultOptions();
  core::GammaOptions pangolin = PangolinGpuOptions();
  core::GammaOptions gsi = GsiOptions();
  EXPECT_EQ(gamma.access.placement, core::GraphPlacement::kHybridAdaptive);
  EXPECT_EQ(pangolin.access.placement,
            core::GraphPlacement::kDeviceResident);
  EXPECT_EQ(pangolin.extension.write_strategy,
            core::WriteStrategy::kNaiveTwoPass);
  EXPECT_EQ(gsi.extension.write_strategy, core::WriteStrategy::kPreAlloc);
}

TEST(CpuSystemsTest, PeregrineFasterThanPangolinSt) {
  graph::Graph g = RandomLabeled(10, 100, 600);
  CpuRunResult st = PangolinStKClique(g, 3);
  CpuRunResult peregrine = PeregrineKClique(g, 3);
  EXPECT_EQ(st.count, peregrine.count);
  EXPECT_LT(peregrine.sim_millis, st.sim_millis);
}

}  // namespace
}  // namespace gpm::baselines
