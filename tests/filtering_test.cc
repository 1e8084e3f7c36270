#include <gtest/gtest.h>

#include "core/filtering.h"
#include "core/gamma.h"
#include "graph/generators.h"

namespace gpm::core {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 1 << 20;
  return p;
}

graph::Graph Toy() {
  graph::Graph g = graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
  g.SetLabels({0, 1, 2, 0, 1});
  g.EnsureEdgeIndex();
  return g;
}

std::unique_ptr<EmbeddingTable> PairsTable(core::GammaEngine* engine) {
  auto t = engine->InitVertexTable();
  EXPECT_TRUE(t.ok());
  CompiledLevel level;  // union: all (v, neighbor) pairs
  EXPECT_TRUE(engine->VertexExtension(t.value().get(), level).ok());
  return std::move(t).value();
}

TEST(FilteringTest, PredicateDropsRows) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = PairsTable(&engine);
  std::size_t before = t->num_embeddings();
  FilterStats stats = engine.Filtering(
      t.get(),
      [](std::span<const Unit> emb) { return emb[0] < emb[1]; });
  EXPECT_EQ(stats.checked, before);
  EXPECT_EQ(stats.removed, before / 2);  // symmetric pairs
  EXPECT_EQ(t->num_embeddings(), before / 2);
  for (const auto& emb : t->Materialize()) {
    EXPECT_LT(emb[0], emb[1]);
  }
}

TEST(FilteringTest, KeepAllLeavesTableIntact) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = PairsTable(&engine);
  std::size_t before = t->num_embeddings();
  auto all = t->Materialize();
  FilterStats stats =
      engine.Filtering(t.get(), [](std::span<const Unit>) { return true; });
  EXPECT_EQ(stats.removed, 0u);
  EXPECT_EQ(t->num_embeddings(), before);
  EXPECT_EQ(t->Materialize(), all);
}

TEST(FilteringTest, RemoveAllEmptiesTable) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = PairsTable(&engine);
  engine.Filtering(t.get(), [](std::span<const Unit>) { return false; });
  EXPECT_EQ(t->num_embeddings(), 0u);
}

TEST(FilteringTest, PatternFilterDropsInvalidInstances) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  PatternTable pt;
  auto agg = engine.Aggregation(*t.value(), &pt, /*use_labels=*/true);
  ASSERT_TRUE(agg.ok());
  // Label pairs: (0,1)x3, (0,2)x2, (1,2)x1 — threshold 2 kills one.
  pt.InvalidateBelow(2);
  FilterStats stats = engine.Filtering(t.value().get(),
                                       agg.value().codes, pt);
  EXPECT_EQ(stats.removed, 1u);
  EXPECT_EQ(t.value()->num_embeddings(), 5u);
}

TEST(FilteringTest, PatternFilterNoInvalidIsNoOp) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  PatternTable pt;
  auto agg = engine.Aggregation(*t.value(), &pt, /*use_labels=*/true);
  ASSERT_TRUE(agg.ok());
  pt.InvalidateBelow(1);  // nothing below 1
  FilterStats stats = engine.Filtering(t.value().get(),
                                       agg.value().codes, pt);
  EXPECT_EQ(stats.removed, 0u);
  EXPECT_EQ(t.value()->num_embeddings(), g.num_edges());
}

TEST(FilteringTest, ChargesSimulatedTime) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = PairsTable(&engine);
  double before = device.now_cycles();
  FilterStats stats = engine.Filtering(
      t.get(), [](std::span<const Unit> emb) { return emb[0] % 2 == 0; });
  EXPECT_GT(stats.kernel_cycles, 0.0);
  EXPECT_GT(device.now_cycles(), before);
}

TEST(FilteringTest, AncestorPruningShrinksEarlierColumns) {
  Rng rng(5);
  graph::Graph g = graph::ErdosRenyi(40, 120, &rng);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitVertexTable();
  ASSERT_TRUE(t.ok());
  CompiledLevel level;
  level.intersect_positions = {0};
  level.require_ascending = true;
  ASSERT_TRUE(engine.VertexExtension(t.value().get(), level).ok());
  std::size_t col0_before = t.value()->column(0).size();
  // Kill everything extending from vertices < 20: their roots go too.
  engine.Filtering(t.value().get(), [](std::span<const Unit> emb) {
    return emb[0] >= 20;
  });
  EXPECT_LT(t.value()->column(0).size(), col0_before);
  for (const auto& emb : t.value()->Materialize()) {
    EXPECT_GE(emb[0], 20u);
  }
}

}  // namespace
}  // namespace gpm::core
