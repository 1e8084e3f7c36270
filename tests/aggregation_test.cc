#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/aggregation.h"
#include "core/gamma.h"
#include "graph/canonical.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"

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

TEST(AggregationTest, SingleEdgePatternsByLabelPair) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  PatternTable pt;
  auto r = engine.Aggregation(*t.value(), &pt, /*use_labels=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().codes.size(), 6u);
  // Label pairs over edges: (0,1)x2 [0-1,3-4], (0,2)x2 [0-2,3-2], (1,2)x1
  // [1-2], (0,0)x1? 1-3 is labels (1,0) -> (0,1). Recount:
  // edges: 0-1:(0,1) 0-2:(0,2) 1-2:(1,2) 1-3:(1,0) 2-3:(2,0) 3-4:(0,1)
  // => (0,1):3, (0,2):2, (1,2):1 -> 3 distinct patterns.
  EXPECT_EQ(pt.size(), 3u);
  uint64_t total = 0;
  for (const auto& e : pt.entries()) total += e.support;
  EXPECT_EQ(total, 6u);
}

TEST(AggregationTest, UnlabeledWedgesAndTriangles) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  EdgeExtensionSpec spec;
  ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
  PatternTable pt;
  auto r = engine.Aggregation(*t.value(), &pt, /*use_labels=*/false);
  ASSERT_TRUE(r.ok());
  // 2-edge connected sets are all wedges (path of 3 vertices).
  ASSERT_EQ(pt.size(), 1u);
  uint64_t wedges = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    uint64_t d = g.degree(v);
    wedges += d * (d - 1) / 2;
  }
  EXPECT_EQ(pt.entries()[0].support, wedges);
  EXPECT_EQ(graph::CanonicalCode(pt.entries()[0].exemplar),
            graph::CanonicalCode(graph::Pattern::Path(3)));
}

TEST(AggregationTest, CodesAlignWithRows) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  PatternTable pt;
  auto r = engine.Aggregation(*t.value(), &pt, /*use_labels=*/true);
  ASSERT_TRUE(r.ok());
  graph::CanonicalCache cache;
  for (std::size_t row = 0; row < t.value()->num_embeddings(); ++row) {
    auto emb = t.value()->GetEmbedding(0, static_cast<RowIndex>(row));
    std::vector<graph::EdgeId> edges(emb.begin(), emb.end());
    graph::Pattern p = graph::PatternOfEdges(g, edges, true);
    EXPECT_EQ(r.value().codes[row], cache.Get(p));
  }
}

// Each code's exemplar is the pattern of the lowest row carrying that code,
// whatever the number of host threads coding the rows. The rows span many
// map tasks, and most codes are reached through several vertex numberings,
// so a later row's numbering would show.
TEST(AggregationTest, ExemplarIsFirstRowWithCode) {
  Rng rng(23);
  graph::Graph g = graph::ErdosRenyi(60, 240, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.3, &rng);
  g.EnsureEdgeIndex();
  for (int host_threads : {1, 4}) {
    gpusim::SimParams params = TestParams();
    params.host_threads = host_threads;
    gpusim::Device device(params);
    GammaEngine engine(&device, &g, {});
    ASSERT_TRUE(engine.Prepare().ok());
    auto t = engine.InitEdgeTable();
    ASSERT_TRUE(t.ok());
    EdgeExtensionSpec spec;
    ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
    ASSERT_TRUE(engine.EdgeExtension(t.value().get(), spec).ok());
    const EmbeddingTable& table = *t.value();
    ASSERT_GT(table.num_embeddings(), 4 * 256u);
    PatternTable pt;
    auto r = engine.Aggregation(table, &pt, /*use_labels=*/true);
    ASSERT_TRUE(r.ok());
    const std::vector<uint64_t>& codes = r.value().codes;
    std::vector<graph::Pattern> patterns;
    for (const std::vector<Unit>& emb : table.Materialize()) {
      patterns.push_back(graph::PatternOfEdges(g, emb, /*use_labels=*/true));
    }
    std::size_t renumbered = 0;  // codes reached through another numbering
    for (const PatternEntry& e : pt.entries()) {
      const std::size_t first = static_cast<std::size_t>(
          std::find(codes.begin(), codes.end(), e.code) - codes.begin());
      ASSERT_LT(first, codes.size());
      EXPECT_TRUE(e.exemplar == patterns[first])
          << host_threads << " threads: code " << e.code << " exemplar "
          << e.exemplar.DebugString() << ", first row " << first << " is "
          << patterns[first].DebugString();
      for (std::size_t row = first + 1; row < codes.size(); ++row) {
        if (codes[row] == e.code && !(patterns[row] == e.exemplar)) {
          ++renumbered;
          break;
        }
      }
    }
    EXPECT_GT(renumbered, pt.size() / 2) << host_threads << " threads";
  }
}

TEST(AggregationTest, AccumulatesAcrossCalls) {
  graph::Graph g = Toy();
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto t = engine.InitEdgeTable();
  ASSERT_TRUE(t.ok());
  PatternTable pt;
  ASSERT_TRUE(engine.Aggregation(*t.value(), &pt, /*use_labels=*/true).ok());
  uint64_t first = 0;
  for (const auto& e : pt.entries()) first += e.support;
  ASSERT_TRUE(engine.Aggregation(*t.value(), &pt, /*use_labels=*/true).ok());
  uint64_t second = 0;
  for (const auto& e : pt.entries()) second += e.support;
  EXPECT_EQ(second, 2 * first);
}

TEST(PatternTableTest, InvalidateAndErase) {
  PatternTable pt;
  pt.Accumulate(1, graph::Pattern::Triangle(), 5);
  pt.Accumulate(2, graph::Pattern::Path(3), 1);
  pt.Accumulate(1, graph::Pattern::Triangle(), 2);
  EXPECT_EQ(pt.Find(1)->support, 7u);
  EXPECT_EQ(pt.InvalidateBelow(3), 1u);
  EXPECT_EQ(pt.InvalidCodes().count(2), 1u);
  pt.EraseInvalid();
  EXPECT_EQ(pt.size(), 1u);
  EXPECT_EQ(pt.Find(2), nullptr);
}

TEST(PatternTableTest, TopPatternsSorted) {
  PatternTable pt;
  pt.Accumulate(1, graph::Pattern::Triangle(), 5);
  pt.Accumulate(2, graph::Pattern::Path(3), 9);
  pt.Accumulate(3, graph::Pattern::Star(3), 2);
  auto top = pt.TopPatterns();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].support, 9u);
  EXPECT_EQ(top[2].support, 2u);
}

}  // namespace
}  // namespace gpm::core
