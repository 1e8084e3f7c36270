// End-to-end integration tests on the Table II dataset proxies: the whole
// pipeline (dataset generation -> staging -> primitives -> algorithms)
// against the reference oracles, plus cross-system count agreement — the
// invariants the benchmark harness relies on.
#include <gtest/gtest.h>

#include "baselines/presets.h"
#include "baselines/systems.h"
#include "core/compiled_engine.h"
#include "core/pattern_compiler.h"
#include "graph/datasets.h"
#include "graph/isomorphism.h"
#include "graph/metrics.h"
#include "graph/reorder.h"

namespace gpm {
namespace {

gpusim::SimParams BenchLikeParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 4ull << 20;
  p.um_device_buffer_bytes = 256ull << 10;
  return p;
}

core::GammaOptions BenchLikeOptions() {
  core::GammaOptions o = baselines::GammaDefaultOptions();
  o.extension.pool_bytes = 2ull << 20;
  return o;
}

// Runs `plan` on a fresh engine over `g` with the bench-like setup.
Result<core::CompiledRunResult> RunOnDevice(
    gpusim::Device* device, const graph::Graph& g,
    const Result<core::CompiledPlan>& plan) {
  if (!plan.ok()) return plan.status();
  core::GammaEngine engine(device, &g, BenchLikeOptions());
  if (Status st = engine.Prepare(); !st.ok()) return st;
  return core::CompiledEngine(&engine).Run(plan.value());
}

TEST(EndToEndTest, TrianglesOnSmallProxiesMatchMetrics) {
  for (const char* name : {"ER", "EA"}) {
    graph::Graph g = graph::MakeDataset(name);
    graph::GraphMetrics m = graph::ComputeMetrics(g);
    gpusim::Device device(BenchLikeParams());
    auto r = RunOnDevice(&device, g,
                         core::PatternCompiler(&g).CompileKClique(3, false));
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_EQ(r.value().embeddings, m.triangles) << name;
  }
}

TEST(EndToEndTest, AllGpuSystemsAgreeWhereTheyRun) {
  graph::Graph g = graph::MakeDataset("ER");
  g.EnsureEdgeIndex();
  graph::Pattern q = graph::Pattern::SmQuery(1, g.num_labels());
  uint64_t oracle = graph::CountEmbeddings(g, q);

  gpusim::Device d1(BenchLikeParams());
  auto gamma = baselines::GammaMatch(&d1, g, q, BenchLikeOptions());
  ASSERT_TRUE(gamma.ok());
  EXPECT_EQ(gamma.value().count, oracle);

  gpusim::SimParams in_core = BenchLikeParams();
  in_core.um_device_buffer_bytes = 0;
  gpusim::Device d2(in_core);
  auto gsi = baselines::GsiMatch(&d2, g, q);
  if (gsi.ok()) {
    EXPECT_EQ(gsi.value().count, oracle);
  } else {
    EXPECT_EQ(gsi.status().code(), ErrorCode::kDeviceOutOfMemory);
  }
}

TEST(EndToEndTest, CpuAndGpuFpmAgreeOnProxy) {
  graph::Graph g = graph::MakeDataset("ER");
  g.EnsureEdgeIndex();
  uint64_t minsup = g.num_edges() / 4;
  gpusim::Device device(BenchLikeParams());
  auto gamma = baselines::GammaFpm(&device, g, 2, minsup,
                                   BenchLikeOptions());
  ASSERT_TRUE(gamma.ok());
  auto cpu = baselines::GraphMinerFpm(g, 2, minsup);
  EXPECT_EQ(gamma.value().count, cpu.patterns.size());
}

TEST(EndToEndTest, ProxyFamiliesCarryExpectedSkew) {
  // Web/social proxies must be markedly more skewed than email ones —
  // that is what makes the hybrid access policy's job non-trivial.
  graph::GraphMetrics social =
      graph::ComputeMetrics(graph::MakeDataset("CL"));
  graph::GraphMetrics email =
      graph::ComputeMetrics(graph::MakeDataset("ER"));
  EXPECT_GT(social.skew, email.skew);
  EXPECT_GT(social.skew, 20.0);
}

TEST(EndToEndTest, SymmetricAndOrientedAgreeOnProxy) {
  graph::Graph g = graph::MakeDataset("EA");
  graph::Graph oriented_g =
      graph::Reorder(g, graph::ReorderStrategy::kDegeneracy);
  gpusim::Device d1(BenchLikeParams()), d2(BenchLikeParams());
  auto plain = RunOnDevice(
      &d1, g, core::PatternCompiler(&g).CompileKClique(4, false));
  auto oriented = RunOnDevice(
      &d2, oriented_g,
      core::PatternCompiler(&oriented_g).CompileKClique(4, false));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(oriented.ok());
  EXPECT_EQ(plain.value().embeddings, oriented.value().embeddings);

  gpusim::Device d3(BenchLikeParams());
  auto sym = RunOnDevice(&d3, g,
                         core::PatternCompiler(&g).CompileMatch(
                             graph::Pattern::Clique(4), {.break_symmetry = true}));
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(sym.value().instances, plain.value().embeddings);
}

TEST(EndToEndTest, UpscaledProxyKeepsPerCloneCounts) {
  // CL8 is CL upscaled 8x with per-edge random matchings; its triangle
  // count need not be exactly 8x, but its density matches the base.
  graph::Graph base = graph::MakeDataset("CL");
  graph::Graph scaled = graph::MakeDataset("CL8");
  EXPECT_NEAR(scaled.average_degree(), base.average_degree(),
              base.average_degree() * 0.15);
  EXPECT_EQ(scaled.num_vertices(), 8 * base.num_vertices());
}

TEST(EndToEndTest, DeterministicAcrossProcessRestarts) {
  // Dataset generation and the whole pipeline are seeded: two runs in the
  // same process must agree bit-for-bit on counts and simulated time.
  double times[2];
  uint64_t counts[2];
  for (int run = 0; run < 2; ++run) {
    graph::Graph g = graph::MakeDataset("EA");
    gpusim::Device device(BenchLikeParams());
    auto r = RunOnDevice(&device, g,
                         core::PatternCompiler(&g).CompileKClique(4, false));
    ASSERT_TRUE(r.ok());
    counts[run] = r.value().embeddings;
    times[run] = r.value().sim_millis;
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_DOUBLE_EQ(times[0], times[1]);
}

}  // namespace
}  // namespace gpm
