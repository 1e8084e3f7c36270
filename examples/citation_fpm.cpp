// Frequent pattern mining on a citation-graph proxy (Algorithm 2): mines
// all patterns of up to three edges whose instance count clears the
// support threshold, then prints the surviving pattern table.
#include <cstdio>

#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "graph/datasets.h"
#include "gpusim/device.h"

int main(int argc, char** argv) {
  using namespace gpm;

  uint64_t min_support = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                  : 500;
  graph::Graph g = graph::MakeDataset("CP");  // cit-Patent proxy
  g.EnsureEdgeIndex();
  std::printf("citation graph proxy: %s\n", g.DebugString().c_str());
  std::printf("mining <=3-edge patterns with support >= %llu\n\n",
              static_cast<unsigned long long>(min_support));

  gpusim::SimParams params;
  params.device_memory_bytes = 32ull << 20;
  gpusim::Device device(params);
  core::GammaEngine engine(&device, &g, {});
  if (Status st = engine.Prepare(); !st.ok()) {
    std::fprintf(stderr, "prepare: %s\n", st.ToString().c_str());
    return 1;
  }

  auto plan = core::PatternCompiler(&g).CompileFpm(/*max_edges=*/3,
                                                   min_support);
  if (!plan.ok()) return 1;
  auto result = core::CompiledEngine(&engine).Run(plan.value());
  if (!result.ok()) {
    std::fprintf(stderr, "FPM: %s\n", result.status().ToString().c_str());
    return 1;
  }

  auto top = result.value().patterns.TopPatterns();
  std::printf("%zu frequent patterns (simulated %.3f ms):\n", top.size(),
              result.value().sim_millis);
  for (const core::PatternEntry& e : top) {
    std::printf("  sup=%8llu  %s\n",
                static_cast<unsigned long long>(e.support),
                e.exemplar.DebugString().c_str());
  }

  std::printf("\nper-iteration aggregation stats:\n");
  for (std::size_t i = 0; i < result.value().aggregations.size(); ++i) {
    const core::AggregationResult& a = result.value().aggregations[i];
    std::printf("  iteration %zu: %zu embeddings, %zu distinct patterns, "
                "%zu sort segments\n",
                i + 1, a.codes.size(), a.distinct_patterns,
                a.sort_stats.segments);
  }
  std::printf("\ndevice counters: %s\n", device.stats().ToString().c_str());
  return 0;
}
