// Property-style parameterized sweeps over random graphs: every GAMMA
// configuration must produce identical results, and the framework's counts
// must equal the reference oracle's on each sampled graph.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/cpu_ref.h"
#include "baselines/presets.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "graph/reorder.h"

namespace gpm {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 16 << 20;
  p.um_device_buffer_bytes = 2 << 20;
  return p;
}

graph::Graph SampleGraph(uint64_t seed) {
  Rng rng(seed);
  // Vary the family with the seed for diversity.
  graph::Graph g;
  switch (seed % 3) {
    case 0:
      g = graph::ErdosRenyi(50 + seed % 40, 200 + 10 * (seed % 13), &rng);
      break;
    case 1:
      g = graph::PowerLaw(60 + seed % 30, 250, 0.8, &rng);
      break;
    default:
      g = graph::Rmat(6, 220, &rng);
      break;
  }
  graph::AssignLabelsZipf(&g, 3, 0.4, &rng);
  g.EnsureEdgeIndex();
  return g;
}

Result<core::CompiledRunResult> RunPlan(core::GammaEngine* engine,
                                        const Result<core::CompiledPlan>& plan) {
  if (!plan.ok()) return plan.status();
  return core::CompiledEngine(engine).Run(plan.value());
}

Result<core::CompiledPlan> KClique(const graph::Graph& g, int k) {
  return core::PatternCompiler(&g).CompileKClique(k, false);
}

Result<core::CompiledPlan> Woj(const graph::Graph& g, const graph::Pattern& q,
                               bool break_symmetry = false) {
  return core::PatternCompiler(&g).CompileMatch(
      q, {.break_symmetry = break_symmetry});
}

// ---- Strategy-equivalence sweep -------------------------------------------

using StrategyParam =
    std::tuple<uint64_t /*seed*/, core::WriteStrategy, bool /*pre_merge*/>;

class StrategyEquivalence
    : public ::testing::TestWithParam<StrategyParam> {};

TEST_P(StrategyEquivalence, TriangleCountInvariant) {
  auto [seed, strategy, pre_merge] = GetParam();
  graph::Graph g = SampleGraph(seed);
  uint64_t expected =
      graph::CountInstances(g, graph::Pattern::Triangle());

  gpusim::Device device(TestParams());
  core::GammaOptions options;
  options.extension.write_strategy = strategy;
  options.extension.pre_merge = pre_merge;
  core::GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto r = RunPlan(&engine, KClique(g, 3));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().embeddings, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyEquivalence,
    ::testing::Combine(
        ::testing::Values(11, 22, 33),
        ::testing::Values(core::WriteStrategy::kNaiveTwoPass,
                          core::WriteStrategy::kPreAlloc,
                          core::WriteStrategy::kDynamicAlloc),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<StrategyParam>& info) {
      std::string name =
          core::WriteStrategyName(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             name + (std::get<2>(info.param) ? "_grouped" : "_plain");
    });

// ---- Access-mode equivalence sweep -----------------------------------------

using AccessParam = std::tuple<uint64_t, core::GraphPlacement>;

class AccessEquivalence : public ::testing::TestWithParam<AccessParam> {};

TEST_P(AccessEquivalence, SmCountInvariant) {
  auto [seed, placement] = GetParam();
  graph::Graph g = SampleGraph(seed);
  graph::Pattern q = graph::Pattern::SmQuery(1, g.num_labels());
  uint64_t expected = graph::CountEmbeddings(g, q);

  gpusim::Device device(TestParams());
  core::GammaOptions options;
  options.access.placement = placement;
  core::GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  auto r = RunPlan(&engine, Woj(g, q));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().embeddings, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AccessEquivalence,
    ::testing::Combine(
        ::testing::Values(7, 14),
        ::testing::Values(core::GraphPlacement::kHybridAdaptive,
                          core::GraphPlacement::kUnifiedOnly,
                          core::GraphPlacement::kZeroCopyOnly,
                          core::GraphPlacement::kDeviceResident)),
    [](const ::testing::TestParamInfo<AccessParam>& info) {
      std::string name =
          core::GraphPlacementName(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             name;
    });

// ---- FPM threshold sweep ----------------------------------------------------

class FpmProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(FpmProperty, MatchesReferenceForThreshold) {
  auto [seed, min_support] = GetParam();
  graph::Graph g = SampleGraph(seed);
  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto r = RunPlan(&engine,
               core::PatternCompiler(&g).CompileFpm(2, min_support));
  ASSERT_TRUE(r.ok());
  auto ref = baselines::CpuFpmEmbeddingCentric(
      g, 2, min_support, baselines::CpuModel{});
  EXPECT_EQ(r.value().patterns.size(), ref.patterns.size());
  for (const auto& e : ref.patterns.entries()) {
    const core::PatternEntry* mine = r.value().patterns.Find(e.code);
    ASSERT_NE(mine, nullptr);
    EXPECT_EQ(mine->support, e.support);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FpmProperty,
    ::testing::Combine(::testing::Values(5, 6),
                       ::testing::Values(1, 3, 10)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, uint64_t>>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_sup" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Invariants -------------------------------------------------------------

class InvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvariantTest, CliqueMonotoneInK) {
  graph::Graph g = SampleGraph(GetParam());
  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  // C(k) * something >= C(k+1): any (k+1)-clique contains k-cliques.
  auto c3 = RunPlan(&engine, KClique(g, 3));
  ASSERT_TRUE(c3.ok());
  gpusim::Device device2(TestParams());
  core::GammaEngine engine2(&device2, &g, {});
  ASSERT_TRUE(engine2.Prepare().ok());
  auto c4 = RunPlan(&engine2, KClique(g, 4));
  ASSERT_TRUE(c4.ok());
  if (c4.value().embeddings > 0) {
    EXPECT_GE(c3.value().embeddings, c4.value().embeddings);
  }
}

TEST_P(InvariantTest, SimulatedTimeMonotone) {
  graph::Graph g = SampleGraph(GetParam());
  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  double before = device.ElapsedSeconds();
  ASSERT_TRUE(RunPlan(&engine, KClique(g, 3)).ok());
  EXPECT_GT(device.ElapsedSeconds(), before);
}

INSTANTIATE_TEST_SUITE_P(Sweep, InvariantTest,
                         ::testing::Values(101, 202, 303));

// ---- Cross-feature invariants ------------------------------------------------

class CrossFeatureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossFeatureTest, ReorderingPreservesCounts) {
  graph::Graph g = SampleGraph(GetParam());
  uint64_t expected = graph::CountInstances(g, graph::Pattern::Triangle());
  for (graph::ReorderStrategy strategy :
       {graph::ReorderStrategy::kDegreeDescending,
        graph::ReorderStrategy::kBfs, graph::ReorderStrategy::kRandom,
        graph::ReorderStrategy::kDegeneracy}) {
    graph::Graph r = graph::Reorder(g, strategy, 5);
    gpusim::Device device(TestParams());
    core::GammaEngine engine(&device, &r, {});
    ASSERT_TRUE(engine.Prepare().ok());
    auto run = RunPlan(&engine, KClique(r, 3));
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().embeddings, expected)
        << graph::ReorderStrategyName(strategy);
  }
}

TEST_P(CrossFeatureTest, FpmInvariantAcrossWriteStrategies) {
  graph::Graph g = SampleGraph(GetParam());
  core::PatternTable reference;
  bool first = true;
  for (core::WriteStrategy strategy :
       {core::WriteStrategy::kDynamicAlloc,
        core::WriteStrategy::kNaiveTwoPass,
        core::WriteStrategy::kPreAlloc}) {
    gpusim::Device device(TestParams());
    core::GammaOptions options;
    options.extension.write_strategy = strategy;
    core::GammaEngine engine(&device, &g, options);
    ASSERT_TRUE(engine.Prepare().ok());
    auto r = RunPlan(&engine, core::PatternCompiler(&g).CompileFpm(2, 3));
    ASSERT_TRUE(r.ok()) << core::WriteStrategyName(strategy);
    if (first) {
      reference = std::move(r.value().patterns);
      first = false;
      continue;
    }
    EXPECT_EQ(r.value().patterns.size(), reference.size());
    for (const auto& e : reference.entries()) {
      const core::PatternEntry* mine = r.value().patterns.Find(e.code);
      ASSERT_NE(mine, nullptr);
      EXPECT_EQ(mine->support, e.support);
    }
  }
}

TEST_P(CrossFeatureTest, SymmetricTimesAutEqualsPlainEmbeddings) {
  graph::Graph g = SampleGraph(GetParam());
  for (const graph::Pattern& q :
       {graph::Pattern::Triangle(), graph::Pattern::Diamond()}) {
    gpusim::Device d1(TestParams()), d2(TestParams());
    core::GammaEngine e1(&d1, &g, {}), e2(&d2, &g, {});
    ASSERT_TRUE(e1.Prepare().ok());
    ASSERT_TRUE(e2.Prepare().ok());
    auto plain = RunPlan(&e1, Woj(g, q));
    auto sym = RunPlan(&e2, Woj(g, q, /*break_symmetry=*/true));
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(sym.ok());
    EXPECT_EQ(sym.value().instances *
                  static_cast<uint64_t>(q.CountAutomorphisms()),
              plain.value().embeddings)
        << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossFeatureTest,
                         ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace gpm
