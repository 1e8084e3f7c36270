// Engine-level API tests: table initialization, option plumbing, output
// rendering, and end-to-end determinism of the façade.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/presets.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "graph/generators.h"

namespace gpm::core {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 512 << 10;
  return p;
}

graph::Graph Labeled(uint64_t seed) {
  Rng rng(seed);
  graph::Graph g = graph::ErdosRenyi(60, 200, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.4, &rng);
  g.EnsureEdgeIndex();
  return g;
}

TEST(GammaEngineTest, InitVertexTableAllVertices) {
  graph::Graph g = Labeled(1);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->num_embeddings(), g.num_vertices());
  EXPECT_EQ(t.value()->length(), 1);
  EXPECT_EQ(t.value()->kind(), TableKind::kVertex);
}

TEST(GammaEngineTest, InitVertexTableFiltersByLabel) {
  graph::Graph g = Labeled(2);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  for (graph::Label l = 0; l < g.num_labels(); ++l) {
    auto t = engine.InitVertexTable(l);
    ASSERT_TRUE(t.ok());
    std::size_t expected = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.label(v) == l) ++expected;
    }
    EXPECT_EQ(t.value()->num_embeddings(), expected) << "label " << l;
    for (const auto& emb : t.value()->Materialize()) {
      EXPECT_EQ(g.label(emb[0]), l);
    }
  }
}

TEST(GammaEngineTest, InitEdgeTableEnumeratesEdges) {
  graph::Graph g = Labeled(3);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->num_embeddings(), g.num_edges());
  EXPECT_EQ(t.value()->kind(), TableKind::kEdge);
}

TEST(GammaEngineTest, InitEdgeTableNeedsEdgeIndex) {
  Rng rng(4);
  graph::Graph g = graph::ErdosRenyi(20, 40, &rng);  // no EnsureEdgeIndex
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(GammaEngineTest, OutputResultsRendersBoth) {
  graph::Graph g = Labeled(5);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  PatternTable pt;
  pt.Accumulate(1, graph::Pattern::Triangle(), 3);
  std::string out = engine.OutputResults(t.value().get(), &pt);
  EXPECT_NE(out.find("embeddings"), std::string::npos);
  EXPECT_NE(out.find("sup=3"), std::string::npos);
}

TEST(GammaEngineTest, DeterministicAcrossIdenticalRuns) {
  graph::Graph g = Labeled(6);
  double times[2];
  uint64_t counts[2];
  for (int run = 0; run < 2; ++run) {
    gpusim::Device device(TestParams());
    GammaEngine engine(&device, &g, {});
    ASSERT_TRUE(engine.Prepare().ok());
    auto r = CompiledEngine(&engine).Run(
        PatternCompiler(&g).CompileKClique(3, false).value());
    ASSERT_TRUE(r.ok());
    times[run] = r.value().sim_millis;
    counts[run] = r.value().embeddings;
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_DOUBLE_EQ(times[0], times[1]);
}

// A level's strategy overrides hold for its own call only: the engine's
// options never change, and the next inherit-mode level uses them again.
TEST(GammaEngineTest, LevelOverridesEngineStrategy) {
  graph::Graph g = Labeled(7);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  const ExtensionOptions engine_options = engine.options().extension;
  ASSERT_EQ(engine_options.write_strategy, WriteStrategy::kDynamicAlloc);
  ASSERT_TRUE(engine_options.pre_merge);
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());

  // Two-pass writes at exact offsets and takes no pool block.
  CompiledLevel two_pass;
  two_pass.intersect_positions = {0};
  two_pass.write_strategy = WriteStrategy::kNaiveTwoPass;
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), two_pass).ok());
  EXPECT_EQ(device.stats().pool_block_requests, 0u);

  CompiledLevel ungrouped;
  ungrouped.intersect_positions = {0, 1};
  ungrouped.pre_merge = false;
  auto r = engine.VertexExtension(t.value().get(), ungrouped);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().groups, 0u);
  ASSERT_GT(r.value().results, 0u);
  EXPECT_GT(device.stats().pool_block_requests, 0u);  // dynamic again

  CompiledLevel inherit;
  inherit.intersect_positions = {0, 1, 2};
  r = engine.VertexExtension(t.value().get(), inherit);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().groups, 0u);  // grouped again

  EXPECT_EQ(engine.options().extension.write_strategy,
            engine_options.write_strategy);
  EXPECT_EQ(engine.options().extension.pre_merge, engine_options.pre_merge);
}

// In-core presets have no host spill, so Prepare caps their write pool at
// half the device memory the staged graph leaves free, and at least
// 64 KiB; host-resident options keep the pool they asked for.
TEST(GammaEngineTest, InCorePoolFitsFreeMemory) {
  graph::Graph g = Labeled(10);
  for (std::size_t device_bytes : {4u << 20, 96u << 10}) {
    for (const GammaOptions& preset :
         {baselines::PangolinGpuOptions(), baselines::GsiOptions()}) {
      gpusim::SimParams params = TestParams();
      params.device_memory_bytes = device_bytes;
      params.um_device_buffer_bytes = 32 << 10;  // carved from device memory
      gpusim::Device device(params);
      GammaEngine engine(&device, &g, preset);
      ASSERT_TRUE(engine.Prepare().ok());
      const std::size_t free_bytes = device.memory().available_bytes();
      const std::size_t fitted =
          std::min(preset.extension.pool_bytes,
                   std::max<std::size_t>(64 << 10, free_bytes / 2));
      EXPECT_LT(fitted, preset.extension.pool_bytes);  // the fit binds
      EXPECT_EQ(engine.options().extension.pool_bytes, fitted)
          << device_bytes << " device bytes";
    }
  }
  gpusim::Device device(TestParams());
  const GammaOptions hybrid = baselines::GammaDefaultOptions();
  GammaEngine engine(&device, &g, hybrid);
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(engine.options().extension.pool_bytes,
            hybrid.extension.pool_bytes);
}

TEST(GammaEngineTest, HostFootprintTracksTables) {
  graph::Graph g = Labeled(8);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  std::size_t before = device.host_tracker().current_bytes();
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  EXPECT_GT(device.host_tracker().current_bytes(), before);
  std::size_t with_table = device.host_tracker().current_bytes();
  t.value().reset();
  EXPECT_LT(device.host_tracker().current_bytes(), with_table);
}

TEST(GammaEngineTest, SimulatedClockAdvancesMonotonically) {
  graph::Graph g = Labeled(9);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  double t0 = device.now_cycles();
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  double t1 = device.now_cycles();
  EXPECT_GT(t1, t0);
  CompiledLevel level;
  level.intersect_positions = {0};
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), level).ok());
  EXPECT_GT(device.now_cycles(), t1);
}

}  // namespace
}  // namespace gpm::core
