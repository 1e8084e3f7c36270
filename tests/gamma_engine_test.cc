// Engine-level API tests: table initialization, option plumbing, output
// rendering, and end-to-end determinism of the façade.
#include <gtest/gtest.h>

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

TEST(GammaEngineTest, MutableOptionsAffectSubsequentCalls) {
  graph::Graph g = Labeled(7);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  engine.mutable_options().extension.pre_merge = false;
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  VertexExtensionSpec spec;
  spec.intersect_positions = {0};
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
  VertexExtensionSpec spec2;
  spec2.intersect_positions = {0, 1};
  auto r = engine.VertexExtension(t.value().get(), spec2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().groups, 0u);  // grouping disabled
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
  VertexExtensionSpec spec;
  spec.intersect_positions = {0};
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), spec).ok());
  EXPECT_GT(device.now_cycles(), t1);
}

}  // namespace
}  // namespace gpm::core
