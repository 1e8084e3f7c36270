// Tests for the WOJ planner, graph reordering, graph metrics, pattern
// containment / maximal frequent patterns, and the explicit-transfer
// baseline placement.
#include <gtest/gtest.h>

#include "core/compiled_engine.h"
#include "core/pattern_compiler.h"
#include "core/plan.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "graph/metrics.h"
#include "graph/reorder.h"

namespace gpm {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 512 << 10;
  return p;
}

graph::Graph RandomLabeled(uint64_t seed) {
  Rng rng(seed);
  graph::Graph g = graph::PowerLaw(120, 500, 0.8, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.5, &rng);
  return g;
}

// Runs `plan` on a fresh engine over `g` on `device`.
Result<core::CompiledRunResult> RunOn(gpusim::Device* device,
                                      const graph::Graph& g,
                                      const Result<core::CompiledPlan>& plan,
                                      const core::GammaOptions& options = {}) {
  if (!plan.ok()) return plan.status();
  core::GammaEngine engine(device, &g, options);
  if (Status st = engine.Prepare(); !st.ok()) return st;
  return core::CompiledEngine(&engine).Run(plan.value());
}

Result<core::CompiledPlan> KClique(const graph::Graph& g, int k) {
  return core::PatternCompiler(&g).CompileKClique(k, false);
}

// ---- Planner ---------------------------------------------------------------

TEST(PlanTest, OrdersAreConnectedPermutations) {
  graph::Graph g = RandomLabeled(1);
  for (const graph::Pattern& q :
       {graph::Pattern::Diamond(), graph::Pattern::SmQuery(2, 3),
        graph::Pattern::Cycle(5), graph::Pattern::Star(4)}) {
    for (core::PlanStrategy s : {core::PlanStrategy::kStructural,
                                 core::PlanStrategy::kGreedyCardinality}) {
      core::WojPlan plan = core::BuildWojPlan(g, q, s);
      ASSERT_EQ(plan.order.size(),
                static_cast<std::size_t>(q.num_vertices()));
      EXPECT_TRUE(q.ConnectedPrefix(plan.order)) << plan.DebugString();
      std::vector<int> sorted = plan.order;
      std::sort(sorted.begin(), sorted.end());
      for (int i = 0; i < q.num_vertices(); ++i) EXPECT_EQ(sorted[i], i);
    }
  }
}

TEST(PlanTest, BackwardPositionsMatchQueryEdges) {
  graph::Graph g = RandomLabeled(2);
  graph::Pattern q = graph::Pattern::Diamond();
  core::WojPlan plan =
      core::BuildWojPlan(g, q, core::PlanStrategy::kStructural);
  for (std::size_t d = 1; d < plan.order.size(); ++d) {
    for (int j : plan.backward[d]) {
      EXPECT_TRUE(q.HasEdge(plan.order[d], plan.order[j]));
    }
    EXPECT_FALSE(plan.backward[d].empty());
  }
}

TEST(PlanTest, CardinalityGrowsWithUnconstrainedDepth) {
  graph::Graph g = RandomLabeled(3);
  graph::Pattern q = graph::Pattern::Path(4);  // no closing edges
  std::vector<int> order{0, 1, 2, 3};
  double prev = core::EstimateCardinality(g, q, order, 0);
  for (int d = 1; d < 4; ++d) {
    double next = core::EstimateCardinality(g, q, order, d);
    EXPECT_GT(next, prev * 0.999);
    prev = next;
  }
}

TEST(PlanTest, GreedyPlanGivesSameCounts) {
  graph::Graph g = RandomLabeled(4);
  g.EnsureEdgeIndex();
  graph::Pattern q = graph::Pattern::SmQuery(3, 3);
  uint64_t expected = graph::CountEmbeddings(g, q);
  gpusim::Device device(TestParams());
  core::WojPlan plan = core::BuildWojPlan(
      g, q, core::PlanStrategy::kGreedyCardinality);
  auto r = RunOn(&device, g,
                 core::PatternCompiler(&g).CompileMatchWithPlan(q, plan, {}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().embeddings, expected);
}

TEST(PlanTest, EstimatedCostPositive) {
  graph::Graph g = RandomLabeled(5);
  core::WojPlan plan = core::BuildWojPlan(
      g, graph::Pattern::Triangle(), core::PlanStrategy::kStructural);
  EXPECT_GT(plan.estimated_cost, 0.0);
}

TEST(PlanTest, GreedyTieBreakingIsDeterministic) {
  graph::Graph g = RandomLabeled(15);
  // Fully symmetric patterns make every greedy step a tie; the
  // deterministic tie-break (more backward edges, then smaller index)
  // must resolve them to the identity order, every time.
  for (const graph::Pattern& q :
       {graph::Pattern::Cycle(4), graph::Pattern::Clique(4),
        graph::Pattern::Clique(5)}) {
    core::WojPlan first = core::BuildWojPlan(
        g, q, core::PlanStrategy::kGreedyCardinality);
    std::vector<int> identity(q.num_vertices());
    for (int i = 0; i < q.num_vertices(); ++i) identity[i] = i;
    EXPECT_EQ(first.order, identity) << q.DebugString();
    for (int rebuild = 0; rebuild < 4; ++rebuild) {
      core::WojPlan again = core::BuildWojPlan(
          g, q, core::PlanStrategy::kGreedyCardinality);
      EXPECT_EQ(again.order, first.order) << q.DebugString();
      EXPECT_EQ(again.estimated_cost, first.estimated_cost);
    }
  }
  // Asymmetric costs must also reproduce across rebuilds.
  core::WojPlan labeled = core::BuildWojPlan(
      g, graph::Pattern::SmQuery(3, 3),
      core::PlanStrategy::kGreedyCardinality);
  for (int rebuild = 0; rebuild < 4; ++rebuild) {
    EXPECT_EQ(core::BuildWojPlan(g, graph::Pattern::SmQuery(3, 3),
                                 core::PlanStrategy::kGreedyCardinality)
                  .order,
              labeled.order);
  }
}

TEST(PlanTest, LabeledCardinalityUsesPerLabelFrequency) {
  graph::Graph g = RandomLabeled(16);  // Zipf labels over {0, 1, 2}
  std::vector<uint64_t> freq(g.num_labels(), 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ++freq[g.label(v)];
  }
  ASSERT_GT(freq[0], freq[2]);  // Zipf skew: the test is vacuous if equal
  graph::Pattern q(1);
  std::vector<int> order{0};
  // Depth-0 estimate is the number of start candidates: all vertices for
  // a wildcard, the per-label count for a concrete label.
  q.SetLabel(0, graph::Pattern::kAnyLabel);
  EXPECT_DOUBLE_EQ(core::EstimateCardinality(g, q, order, 0),
                   static_cast<double>(g.num_vertices()));
  for (graph::Label l = 0; l < g.num_labels(); ++l) {
    q.SetLabel(0, l);
    EXPECT_DOUBLE_EQ(core::EstimateCardinality(g, q, order, 0),
                     static_cast<double>(freq[l]))
        << "label " << l;
  }
  // A label absent from the graph matches nothing.
  q.SetLabel(0, 7);
  EXPECT_DOUBLE_EQ(core::EstimateCardinality(g, q, order, 0), 0.0);
}

TEST(PlanTest, UnlabeledGraphConcreteLabelEstimatesZero) {
  Rng rng(17);
  graph::Graph g = graph::PowerLaw(100, 400, 0.8, &rng);  // unlabeled
  graph::Pattern q(1);
  std::vector<int> order{0};
  // Every vertex of an unlabeled graph carries label 0; any other
  // concrete query label must estimate to zero, not |V|.
  q.SetLabel(0, 0);
  EXPECT_DOUBLE_EQ(core::EstimateCardinality(g, q, order, 0),
                   static_cast<double>(g.num_vertices()));
  q.SetLabel(0, 1);
  EXPECT_DOUBLE_EQ(core::EstimateCardinality(g, q, order, 0), 0.0);
}

TEST(PlanTest, GreedyStartsAtRareLabel) {
  graph::Graph g = RandomLabeled(18);
  std::vector<uint64_t> freq(g.num_labels(), 0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ++freq[g.label(v)];
  }
  ASSERT_GT(freq[0], freq[2]);
  // Symmetric structure, one rare-labeled vertex: the greedy planner must
  // start there.
  graph::Pattern q = graph::Pattern::Triangle();
  q.SetLabel(0, 0);
  q.SetLabel(1, 0);
  q.SetLabel(2, 2);
  core::WojPlan plan = core::BuildWojPlan(
      g, q, core::PlanStrategy::kGreedyCardinality);
  EXPECT_EQ(plan.order[0], 2) << plan.DebugString();
}

// ---- Reordering ------------------------------------------------------------

TEST(ReorderTest, PermutationIsBijective) {
  graph::Graph g = RandomLabeled(6);
  for (graph::ReorderStrategy s :
       {graph::ReorderStrategy::kDegreeDescending,
        graph::ReorderStrategy::kBfs, graph::ReorderStrategy::kRandom}) {
    auto perm = graph::ReorderPermutation(g, s);
    std::vector<bool> seen(g.num_vertices(), false);
    for (auto p : perm) {
      ASSERT_LT(p, g.num_vertices());
      EXPECT_FALSE(seen[p]);
      seen[p] = true;
    }
  }
}

TEST(ReorderTest, PreservesStructure) {
  graph::Graph g = RandomLabeled(7);
  graph::Graph r = graph::Reorder(g, graph::ReorderStrategy::kRandom, 9);
  EXPECT_EQ(r.num_vertices(), g.num_vertices());
  EXPECT_EQ(r.num_edges(), g.num_edges());
  EXPECT_EQ(graph::CountInstances(r, graph::Pattern::Triangle()),
            graph::CountInstances(g, graph::Pattern::Triangle()));
}

TEST(ReorderTest, DegreeDescendingPutsHubsFirst) {
  graph::Graph g = RandomLabeled(8);
  graph::Graph r =
      graph::Reorder(g, graph::ReorderStrategy::kDegreeDescending);
  for (graph::VertexId v = 1; v < r.num_vertices(); ++v) {
    EXPECT_GE(r.degree(v - 1), r.degree(v));
  }
}

TEST(ReorderTest, LabelsFollowVertices) {
  graph::Graph g = RandomLabeled(9);
  auto perm =
      graph::ReorderPermutation(g, graph::ReorderStrategy::kRandom, 3);
  graph::Graph r = graph::ApplyPermutation(g, perm);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.label(perm[v]), g.label(v));
  }
}

TEST(DegeneracyTest, PeelOrderCoversAllVertices) {
  graph::Graph g = RandomLabeled(20);
  std::vector<graph::VertexId> order;
  uint32_t degeneracy = graph::DegeneracyOrder(g, &order);
  EXPECT_EQ(order.size(), g.num_vertices());
  std::vector<bool> seen(g.num_vertices(), false);
  for (auto v : order) {
    ASSERT_LT(v, g.num_vertices());
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  EXPECT_GE(degeneracy, 1u);
  EXPECT_LE(degeneracy, g.max_degree());
}

TEST(DegeneracyTest, CliqueHasDegeneracyKMinusOne) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId i = 0; i < 6; ++i) {
    for (graph::VertexId j = i + 1; j < 6; ++j) edges.push_back({i, j});
  }
  graph::Graph clique = graph::Graph::FromEdges(6, edges);
  std::vector<graph::VertexId> order;
  EXPECT_EQ(graph::DegeneracyOrder(clique, &order), 5u);
}

TEST(DegeneracyTest, StarHasDegeneracyOne) {
  std::vector<graph::Edge> edges;
  for (graph::VertexId i = 1; i < 20; ++i) edges.push_back({0, i});
  graph::Graph star = graph::Graph::FromEdges(20, edges);
  std::vector<graph::VertexId> order;
  EXPECT_EQ(graph::DegeneracyOrder(star, &order), 1u);
  // The hub survives until the final pair (hub + last leaf, both now
  // degree 1, peel in either order).
  EXPECT_TRUE(order.back() == 0u || order[order.size() - 2] == 0u);
}

TEST(DegeneracyTest, ForwardNeighborhoodsBounded) {
  graph::Graph g = RandomLabeled(21);
  std::vector<graph::VertexId> order;
  uint32_t degeneracy = graph::DegeneracyOrder(g, &order);
  graph::Graph oriented =
      graph::Reorder(g, graph::ReorderStrategy::kDegeneracy);
  for (graph::VertexId v = 0; v < oriented.num_vertices(); ++v) {
    auto nbrs = oriented.neighbors(v);
    std::size_t forward =
        nbrs.end() - std::upper_bound(nbrs.begin(), nbrs.end(), v);
    EXPECT_LE(forward, degeneracy) << "vertex " << v;
  }
}

TEST(DegeneracyTest, OrientedKCliqueMatchesOracle) {
  graph::Graph g = RandomLabeled(22);
  graph::Graph oriented = graph::Reorder(g, graph::ReorderStrategy::kDegeneracy);
  gpusim::Device device(TestParams());
  auto r = RunOn(&device, oriented, KClique(oriented, 4));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().embeddings,
            graph::CountInstances(g, graph::Pattern::Clique(4)));
}

TEST(DegeneracyTest, OrientationHelpsOnSkewedGraphs) {
  Rng rng(23);
  graph::Graph g = graph::PowerLaw(2000, 16000, 1.0, &rng);  // heavy hubs
  graph::Graph og = graph::Reorder(g, graph::ReorderStrategy::kDegeneracy);
  gpusim::Device d1(TestParams()), d2(TestParams());
  auto plain = RunOn(&d1, g, KClique(g, 4));
  auto oriented = RunOn(&d2, og, KClique(og, 4));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(oriented.ok());
  EXPECT_EQ(plain.value().embeddings, oriented.value().embeddings);
  EXPECT_LE(oriented.value().sim_millis, plain.value().sim_millis * 1.2);
}

// ---- Metrics ---------------------------------------------------------------

TEST(MetricsTest, TriangleOfToyGraph) {
  graph::Graph g = graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
  graph::GraphMetrics m = graph::ComputeMetrics(g);
  EXPECT_EQ(m.triangles, 2u);
  EXPECT_EQ(m.num_edges, 6u);
  EXPECT_EQ(m.max_degree, 3u);
  EXPECT_GT(m.clustering, 0.0);
  EXPECT_LE(m.clustering, 1.0);
}

TEST(MetricsTest, MatchesOracleOnRandomGraph) {
  graph::Graph g = RandomLabeled(10);
  graph::GraphMetrics m = graph::ComputeMetrics(g);
  EXPECT_EQ(m.triangles,
            graph::CountInstances(g, graph::Pattern::Triangle()));
  EXPECT_DOUBLE_EQ(m.avg_degree, g.average_degree());
}

TEST(MetricsTest, PowerLawIsSkewed) {
  Rng rng(11);
  graph::Graph pl = graph::PowerLaw(1000, 5000, 1.0, &rng);
  graph::Graph er = graph::ErdosRenyi(1000, 5000, &rng);
  EXPECT_GT(graph::ComputeMetrics(pl).skew,
            graph::ComputeMetrics(er).skew);
}

TEST(MetricsTest, CountsConnectedComponents) {
  // Two triangles plus two isolated vertices = 4 components.
  graph::Graph g = graph::Graph::FromEdges(
      8, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  graph::GraphMetrics m = graph::ComputeMetrics(g);
  EXPECT_EQ(m.connected_components, 4u);
  EXPECT_EQ(m.isolated_vertices, 2u);
}

TEST(MetricsTest, HistogramCoversAllVertices) {
  graph::Graph g = RandomLabeled(12);
  auto hist = graph::DegreeHistogram(g);
  std::size_t total = 0;
  for (auto b : hist) total += b;
  EXPECT_EQ(total, g.num_vertices());
}

// ---- Pattern containment / maximal patterns --------------------------------

TEST(ContainmentTest, EdgeInTriangle) {
  EXPECT_TRUE(graph::Pattern::Path(2).ContainedIn(
      graph::Pattern::Triangle()));
  EXPECT_TRUE(
      graph::Pattern::Path(3).ContainedIn(graph::Pattern::Triangle()));
  EXPECT_FALSE(
      graph::Pattern::Triangle().ContainedIn(graph::Pattern::Path(3)));
  EXPECT_FALSE(
      graph::Pattern::Clique(4).ContainedIn(graph::Pattern::Diamond()));
  EXPECT_TRUE(
      graph::Pattern::Cycle(4).ContainedIn(graph::Pattern::Diamond()));
}

TEST(ContainmentTest, LabelsRestrictContainment) {
  graph::Pattern edge = graph::Pattern::Path(2);
  edge.SetLabel(0, 7);
  graph::Pattern tri = graph::Pattern::Triangle();
  EXPECT_FALSE(edge.ContainedIn(tri));  // no label-7 vertex in tri
  tri.SetLabel(1, 7);
  EXPECT_TRUE(edge.ContainedIn(tri));
}

TEST(MaximalPatternsTest, SubPatternsExcluded) {
  core::PatternTable pt;
  pt.Accumulate(1, graph::Pattern::Path(2), 10);
  pt.Accumulate(2, graph::Pattern::Path(3), 6);
  pt.Accumulate(3, graph::Pattern::Triangle(), 3);
  auto maximal = pt.MaximalPatterns();
  // Path(2) ⊆ Path(3) ⊆ Triangle; only the triangle is maximal.
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0].code, 3u);
}

TEST(MaximalPatternsTest, InvalidEntriesIgnored) {
  core::PatternTable pt;
  pt.Accumulate(1, graph::Pattern::Path(3), 10);
  pt.Accumulate(2, graph::Pattern::Triangle(), 1);
  pt.InvalidateBelow(5);
  auto maximal = pt.MaximalPatterns();
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0].code, 1u);
}

// ---- Explicit transfer placement -------------------------------------------

TEST(ExplicitTransferTest, SameCountsAsImplicit) {
  graph::Graph g = RandomLabeled(13);
  graph::Pattern q = graph::Pattern::SmQuery(1, 3);
  uint64_t expected = graph::CountEmbeddings(g, q);
  gpusim::Device device(TestParams());
  core::GammaOptions options;
  options.access.placement = core::GraphPlacement::kExplicitTransfer;
  auto r = RunOn(&device, g, core::PatternCompiler(&g).CompileMatch(q, {}),
                 options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().embeddings, expected);
  // Explicit transfer ships the frontier over the link every extension.
  EXPECT_GT(device.stats().explicit_h2d_bytes, 0u);
}

TEST(ExplicitTransferTest, ReshipsFrontierEveryExtension) {
  // Multi-extension workload with heavy frontier reuse: the hybrid policy
  // caches hot pages across extensions, while explicit staging re-ships
  // the adjacency lists each time (plus host gather work). The paper's
  // §II-B argument against explicit transfer is exactly this overlap.
  graph::Graph g = RandomLabeled(14);
  uint64_t hybrid_h2d = 0, explicit_h2d = 0;
  for (int mode = 0; mode < 2; ++mode) {
    gpusim::Device device(TestParams());
    core::GammaOptions options;
    options.access.placement =
        mode == 0 ? core::GraphPlacement::kHybridAdaptive
                  : core::GraphPlacement::kExplicitTransfer;
    auto r = RunOn(&device, g, KClique(g, 4), options);
    ASSERT_TRUE(r.ok());
    (mode == 0 ? hybrid_h2d : explicit_h2d) =
        device.stats().explicit_h2d_bytes +
        device.stats().um_migrated_bytes;
  }
  EXPECT_GT(explicit_h2d, hybrid_h2d);
}

}  // namespace
}  // namespace gpm
