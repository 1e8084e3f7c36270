// Subgraph matching on a social-network proxy: the motivating workload of
// the paper's introduction. Runs the three Fig. 13 queries with GAMMA's
// worst-case-optimal join and compares against the binary-join plan.
#include <cstdio>

#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "graph/datasets.h"
#include "gpusim/device.h"

int main() {
  using namespace gpm;

  graph::Graph g = graph::MakeDataset("CL");  // com-lj proxy
  g.EnsureEdgeIndex();
  std::printf("social graph proxy: %s\n", g.DebugString().c_str());

  gpusim::SimParams params;
  params.device_memory_bytes = 32ull << 20;
  params.um_device_buffer_bytes = 8ull << 20;

  for (int q = 1; q <= 3; ++q) {
    graph::Pattern query = graph::Pattern::SmQuery(q, g.num_labels());
    std::printf("\nquery q%d: %s\n", q, query.DebugString().c_str());

    gpusim::Device device(params);
    core::GammaEngine engine(&device, &g, {});
    if (Status st = engine.Prepare(); !st.ok()) {
      std::fprintf(stderr, "prepare: %s\n", st.ToString().c_str());
      return 1;
    }
    core::PatternCompiler compiler(&g);
    auto woj_plan = compiler.CompileMatch(query, {});
    if (!woj_plan.ok()) return 1;
    auto woj = core::CompiledEngine(&engine).Run(woj_plan.value());
    if (!woj.ok()) {
      std::fprintf(stderr, "WOJ: %s\n", woj.status().ToString().c_str());
      return 1;
    }
    std::printf("  WOJ: %llu embeddings (%llu instances), %.3f ms "
                "simulated\n",
                static_cast<unsigned long long>(woj.value().embeddings),
                static_cast<unsigned long long>(woj.value().instances),
                woj.value().sim_millis);
    for (std::size_t s = 0; s < woj.value().steps.size(); ++s) {
      const core::ExtensionStats& step = woj.value().steps[s];
      std::printf("    step %zu: %zu -> %zu rows, %zu groups\n", s + 1,
                  step.input_rows, step.results, step.groups);
    }

    // The binary-join plan for the triangle query (edge extension). The
    // BJ plan enumerates far more partial matches than WOJ on larger
    // queries, so the example only runs it for q1 — which is exactly the
    // contrast between query-edge-at-a-time and query-vertex-at-a-time
    // plans GAMMA's two extension primitives expose.
    if (q == 1) {
      gpusim::Device device2(params);
      core::GammaEngine engine2(&device2, &g, {});
      if (Status st = engine2.Prepare(); !st.ok()) return 1;
      auto bj_plan = compiler.CompileEdgeJoin(query);
      if (!bj_plan.ok()) return 1;
      auto bj = core::CompiledEngine(&engine2).Run(bj_plan.value());
      if (bj.ok()) {
        std::printf("  binary join: %llu instances, %.3f ms simulated\n",
                    static_cast<unsigned long long>(bj.value().instances),
                    bj.value().sim_millis);
      } else {
        std::printf("  binary join: %s\n", bj.status().ToString().c_str());
      }
    }
  }
  return 0;
}
