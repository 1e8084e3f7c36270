#include "baselines/systems.h"

#include <algorithm>

#include "baselines/presets.h"
#include "core/compiled_engine.h"

namespace gpm::baselines {
namespace {

// Runs `plan` on a fresh engine over `g` and snapshots the device. In-core
// systems (`fit_pool`) size their write buffers from whatever device
// memory the graph left free — they have no host spill to fall back on.
Result<GpuRunResult> RunGpuSystem(gpusim::Device* device,
                                  const graph::Graph& g,
                                  const core::GammaOptions& options,
                                  bool fit_pool,
                                  const Result<core::CompiledPlan>& plan) {
  if (!plan.ok()) return plan.status();
  core::GammaEngine engine(device, &g, options);
  Status st = engine.Prepare();
  if (!st.ok()) return st;
  if (fit_pool) {
    std::size_t free_bytes = device->memory().available_bytes();
    std::size_t pool = std::max<std::size_t>(64 << 10, free_bytes / 2);
    engine.mutable_options().extension.pool_bytes =
        std::min(engine.options().extension.pool_bytes, pool);
  }
  auto run = core::CompiledEngine(&engine).Run(plan.value());
  if (!run.ok()) return run.status();

  GpuRunResult r;
  r.count = plan.value().kind == core::PlanKind::kFrequentMining
                ? run.value().patterns.size()
                : run.value().embeddings;
  r.sim_millis = run.value().sim_millis;
  r.peak_device_bytes = device->PeakDeviceBytes();
  r.peak_host_bytes = device->host_tracker().peak_bytes();
  if (engine.audit() != nullptr) r.adaptivity = engine.audit()->Summary();
  if (engine.plan_profiler() != nullptr) {
    r.planprof = engine.plan_profiler()->Summary();
  }
  r.plan = plan.value().Summary();
  return r;
}

}  // namespace

CpuModel PangolinStModel() { return {.threads = 1, .cycles_per_op = 8.0}; }

CpuModel PeregrineModel() {
  return {.threads = 32, .cycles_per_op = 8.0, .efficiency = 0.8};
}

CpuModel GraphMinerModel() {
  return {.threads = 32, .cycles_per_op = 4.0, .efficiency = 0.85};
}

Result<GpuRunResult> PangolinGpuKClique(gpusim::Device* device,
                                        const graph::Graph& g, int k) {
  return RunGpuSystem(device, g, PangolinGpuOptions(), /*fit_pool=*/true,
                      core::PatternCompiler(&g).CompileKClique(k, false));
}

Result<GpuRunResult> PangolinGpuFpm(gpusim::Device* device,
                                    const graph::Graph& g, int max_edges,
                                    uint64_t min_support) {
  return RunGpuSystem(device, g, PangolinGpuOptions(), /*fit_pool=*/true,
                      core::PatternCompiler(&g).CompileFpm(max_edges,
                                                           min_support));
}

Result<GpuRunResult> GsiMatch(gpusim::Device* device, const graph::Graph& g,
                              const graph::Pattern& query) {
  return RunGpuSystem(device, g, GsiOptions(), /*fit_pool=*/true,
                      core::PatternCompiler(&g).CompileMatch(query, {}));
}

Result<GpuRunResult> GammaKClique(gpusim::Device* device,
                                  const graph::Graph& g, int k,
                                  const core::GammaOptions& options) {
  return RunGpuSystem(device, g, options, /*fit_pool=*/false,
                      core::PatternCompiler(&g).CompileKClique(k, false));
}

Result<GpuRunResult> GammaMatch(gpusim::Device* device,
                                const graph::Graph& g,
                                const graph::Pattern& query,
                                const core::GammaOptions& options) {
  return RunGpuSystem(device, g, options, /*fit_pool=*/false,
                      core::PatternCompiler(&g).CompileMatch(query, {}));
}

Result<GpuRunResult> GammaFpm(gpusim::Device* device, const graph::Graph& g,
                              int max_edges, uint64_t min_support,
                              const core::GammaOptions& options) {
  return RunGpuSystem(device, g, options, /*fit_pool=*/false,
                      core::PatternCompiler(&g).CompileFpm(max_edges,
                                                           min_support));
}

CpuRunResult PeregrineKClique(const graph::Graph& g, int k) {
  return CpuKClique(g, k, PeregrineModel());
}

CpuRunResult PeregrineMatch(const graph::Graph& g,
                            const graph::Pattern& query) {
  return CpuSubgraphMatch(g, query, PeregrineModel(),
                          /*symmetry_breaking=*/true);
}

CpuFpmResult PeregrineFpm(const graph::Graph& g, int max_edges,
                          uint64_t min_support) {
  return CpuFpmPatternCentric(g, max_edges, min_support, PeregrineModel());
}

CpuRunResult PangolinStKClique(const graph::Graph& g, int k) {
  return CpuKClique(g, k, PangolinStModel());
}

CpuFpmResult PangolinStFpm(const graph::Graph& g, int max_edges,
                           uint64_t min_support) {
  return CpuFpmEmbeddingCentric(g, max_edges, min_support,
                                PangolinStModel());
}

CpuFpmResult GraphMinerFpm(const graph::Graph& g, int max_edges,
                           uint64_t min_support) {
  return CpuFpmEmbeddingCentric(g, max_edges, min_support,
                                GraphMinerModel());
}

}  // namespace gpm::baselines
