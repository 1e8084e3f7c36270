#include "baselines/systems.h"

#include "baselines/presets.h"
#include "core/compiled_engine.h"

namespace gpm::baselines {
namespace {

// Runs `plan` on a fresh engine over `g` and snapshots the device. In-core
// presets get their write pool fitted to free device memory by Prepare.
Result<GpuRunResult> RunGpuSystem(gpusim::Device* device,
                                  const graph::Graph& g,
                                  const core::GammaOptions& options,
                                  const Result<core::CompiledPlan>& plan) {
  if (!plan.ok()) return plan.status();
  core::GammaEngine engine(device, &g, options);
  Status st = engine.Prepare();
  if (!st.ok()) return st;
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
  return RunGpuSystem(device, g, PangolinGpuOptions(),
                      core::PatternCompiler(&g).CompileKClique(k, false));
}

Result<GpuRunResult> PangolinGpuFpm(gpusim::Device* device,
                                    const graph::Graph& g, int max_edges,
                                    uint64_t min_support) {
  return RunGpuSystem(device, g, PangolinGpuOptions(),
                      core::PatternCompiler(&g).CompileFpm(max_edges,
                                                           min_support));
}

Result<GpuRunResult> GsiMatch(gpusim::Device* device, const graph::Graph& g,
                              const graph::Pattern& query) {
  return RunGpuSystem(device, g, GsiOptions(),
                      core::PatternCompiler(&g).CompileMatch(query, {}));
}

Result<GpuRunResult> GammaKClique(gpusim::Device* device,
                                  const graph::Graph& g, int k,
                                  const core::GammaOptions& options) {
  return RunGpuSystem(device, g, options,
                      core::PatternCompiler(&g).CompileKClique(k, false));
}

Result<GpuRunResult> GammaMatch(gpusim::Device* device,
                                const graph::Graph& g,
                                const graph::Pattern& query,
                                const core::GammaOptions& options) {
  return RunGpuSystem(device, g, options,
                      core::PatternCompiler(&g).CompileMatch(query, {}));
}

Result<GpuRunResult> GammaFpm(gpusim::Device* device, const graph::Graph& g,
                              int max_edges, uint64_t min_support,
                              const core::GammaOptions& options) {
  return RunGpuSystem(device, g, options,
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
