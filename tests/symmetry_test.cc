#include <gtest/gtest.h>

#include <set>

#include "core/compiled_engine.h"
#include "core/pattern_compiler.h"
#include "core/symmetry.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"

namespace gpm::core {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 512 << 10;
  return p;
}

// WOJ matching over `q`, optionally with derived symmetry restrictions.
Result<CompiledRunResult> Match(GammaEngine* engine, const graph::Pattern& q,
                                bool break_symmetry) {
  auto plan = PatternCompiler(&engine->graph())
                  .CompileMatch(q, {.break_symmetry = break_symmetry});
  if (!plan.ok()) return plan.status();
  return CompiledEngine(engine).Run(plan.value());
}

TEST(BreakSymmetryTest, TriangleGivesTotalOrder) {
  graph::Pattern tri = graph::Pattern::Triangle();
  std::vector<int> order = tri.DefaultMatchingOrder();
  auto restrictions = BreakSymmetry(tri, order);
  // S3 needs exactly the 3 pairwise restrictions (or an equivalent set
  // implying a total order); at minimum |restrictions| >= 2.
  EXPECT_GE(restrictions.size(), 2u);
  for (const auto& r : restrictions) {
    EXPECT_NE(r.smaller_pos, r.larger_pos);
  }
}

TEST(BreakSymmetryTest, AsymmetricQueryNeedsNone) {
  graph::Pattern q = graph::Pattern::Triangle();
  q.SetLabel(0, 0);
  q.SetLabel(1, 1);
  q.SetLabel(2, 2);  // labels kill all automorphisms
  auto restrictions = BreakSymmetry(q, q.DefaultMatchingOrder());
  EXPECT_TRUE(restrictions.empty())
      << RestrictionsDebugString(restrictions);
}

TEST(BreakSymmetryTest, DebugStringFormat) {
  auto restrictions = BreakSymmetry(graph::Pattern::Triangle(),
                                    {0, 1, 2});
  std::string s = RestrictionsDebugString(restrictions);
  EXPECT_EQ(s.front(), '[');
  EXPECT_EQ(s.back(), ']');
  EXPECT_NE(s.find('<'), std::string::npos);
}

// The decisive property: restricted enumeration yields exactly one row per
// instance, i.e. restricted_count * |Aut| == unrestricted embeddings.
class SymmetricMatchTest : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricMatchTest, OneRowPerInstance) {
  Rng rng(100 + GetParam());
  graph::Graph g = graph::ErdosRenyi(50, 220, &rng);
  graph::AssignLabelsZipf(&g, 2, 0.2, &rng);

  std::vector<graph::Pattern> queries = {
      graph::Pattern::Triangle(),     graph::Pattern::Path(3),
      graph::Pattern::Path(4),        graph::Pattern::Cycle(4),
      graph::Pattern::Diamond(),      graph::Pattern::Star(3),
      graph::Pattern::Clique(4),      graph::Pattern::TailedTriangle(),
  };
  for (const graph::Pattern& q : queries) {
    gpusim::Device device(TestParams());
    GammaEngine engine(&device, &g, {});
    ASSERT_TRUE(engine.Prepare().ok());
    auto sym = Match(&engine, q, /*break_symmetry=*/true);
    ASSERT_TRUE(sym.ok()) << q.DebugString();
    uint64_t expected_instances = graph::CountInstances(g, q);
    EXPECT_EQ(sym.value().instances, expected_instances)
        << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymmetricMatchTest,
                         ::testing::Values(1, 2, 3));

TEST(SymmetricMatchTest, RestrictedRowsAreSortedRepresentatives) {
  Rng rng(7);
  graph::Graph g = graph::ErdosRenyi(30, 120, &rng);
  gpusim::Device device(TestParams());
  GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());

  // For the fully symmetric triangle, the surviving representative per
  // instance is the ascending tuple.
  auto order = graph::Pattern::Triangle().DefaultMatchingOrder();
  auto restrictions = BreakSymmetry(graph::Pattern::Triangle(), order);
  ASSERT_GE(restrictions.size(), 2u);
  auto sym = Match(&engine, graph::Pattern::Triangle(), true);
  ASSERT_TRUE(sym.ok());
  // Re-run and materialize through a fresh engine to inspect rows.
  gpusim::Device device2(TestParams());
  GammaEngine engine2(&device2, &g, {});
  ASSERT_TRUE(engine2.Prepare().ok());
  auto table = engine2.InitVertexTable();
  ASSERT_TRUE(table.ok());
  // Emulate symmetric extension: ascending clique enumeration must yield
  // the same set of rows the symmetric plan counted.
  CompiledLevel level;
  level.intersect_positions = {0};
  level.require_ascending = true;
  ASSERT_TRUE(engine2.VertexExtension(table.value().get(), level).ok());
  CompiledLevel level2;
  level2.intersect_positions = {0, 1};
  level2.require_ascending = true;
  ASSERT_TRUE(engine2.VertexExtension(table.value().get(), level2).ok());
  EXPECT_EQ(sym.value().instances, table.value()->num_embeddings());
}

TEST(SymmetricMatchTest, FasterOrEqualWorkThanPlainWoj) {
  Rng rng(8);
  graph::Graph g = graph::PowerLaw(200, 1200, 0.8, &rng);
  gpusim::Device d1(TestParams()), d2(TestParams());
  GammaEngine e1(&d1, &g, {}), e2(&d2, &g, {});
  ASSERT_TRUE(e1.Prepare().ok());
  ASSERT_TRUE(e2.Prepare().ok());
  auto plain = Match(&e1, graph::Pattern::Clique(4), false);
  auto sym = Match(&e2, graph::Pattern::Clique(4), true);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(sym.value().instances, plain.value().instances);
  // 24x fewer rows materialized => less simulated time.
  EXPECT_LT(sym.value().sim_millis, plain.value().sim_millis);
}

}  // namespace
}  // namespace gpm::core
