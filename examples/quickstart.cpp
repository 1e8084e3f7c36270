// Quickstart: count triangles in a small synthetic graph with GAMMA.
//
// Demonstrates the basic lifecycle: build a simulated device, stage a
// graph, construct the engine, and run the extension primitive twice to
// grow vertex embeddings into triangles.
#include <cstdio>

#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "graph/generators.h"
#include "gpusim/device.h"

int main() {
  using namespace gpm;

  // 1. A data graph: R-MAT with 2^12 vertices, ~40k edges.
  Rng rng(42);
  graph::Graph g = graph::Rmat(12, 40000, &rng);
  std::printf("data graph: %s\n", g.DebugString().c_str());

  // 2. A simulated GPU (Tesla-class ratios, scaled-down capacity).
  gpusim::SimParams params;
  params.device_memory_bytes = 64ull << 20;
  gpusim::Device device(params);

  // 3. The GAMMA engine with default (out-of-core, self-adaptive) options.
  core::GammaEngine engine(&device, &g, {});
  if (Status st = engine.Prepare(); !st.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 4. Compile the k-clique plan (k = 3: triangles) and run it on the
  //    compiled engine, which verifies the plan before interpreting it.
  auto plan = core::PatternCompiler(&g).CompileKClique(
      3, /*count_only_last=*/false);
  if (!plan.ok()) return 1;
  auto result = core::CompiledEngine(&engine).Run(plan.value());
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("triangles: %llu\n",
              static_cast<unsigned long long>(result.value().embeddings));
  std::printf("simulated GPU time: %.3f ms\n", result.value().sim_millis);
  std::printf("device counters: %s\n", device.stats().ToString().c_str());

  // 5. The same thing spelled out with the Fig. 3 primitives.
  auto table = engine.InitVertexTable();
  if (!table.ok()) return 1;
  for (int depth = 1; depth < 3; ++depth) {
    core::CompiledLevel level;
    for (int j = 0; j < depth; ++j) level.intersect_positions.push_back(j);
    level.require_ascending = true;
    auto stats = engine.VertexExtension(table.value().get(), level);
    if (!stats.ok()) return 1;
    std::printf("extension %d: %zu -> %zu embeddings (%zu kernels)\n",
                depth, stats.value().input_rows, stats.value().results,
                stats.value().chunks);
  }
  std::printf("%s\n",
              engine.OutputResults(table.value().get(), nullptr).c_str());
  return 0;
}
