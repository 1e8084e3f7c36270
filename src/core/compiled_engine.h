#ifndef GAMMA_CORE_COMPILED_ENGINE_H_
#define GAMMA_CORE_COMPILED_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "core/plan_verifier.h"
#include "graph/pattern.h"

namespace gpm::core {

/// What CompiledEngine::Run produces — the one result type of every
/// mining task. Which fields are meaningful depends on the plan kind.
struct CompiledRunResult {
  uint64_t embeddings = 0;  ///< matched rows (vertex plans, edge join)
  uint64_t instances = 0;   ///< deduplicated instances
  double sim_millis = 0;
  std::vector<ExtensionStats> steps;
  /// kMotifCensus: (exemplar shape, instance count), sorted by edge count.
  std::vector<std::pair<graph::Pattern, uint64_t>> motifs;
  /// kFrequentMining: frequent patterns and the per-iteration aggregation
  /// results (Algorithm 2 outputs).
  PatternTable patterns;
  std::vector<AggregationResult> aggregations;
};

/// The one generic execution loop all four mining workloads run on: a
/// CompiledPlan interpreter over GammaEngine primitives. Vertex plans hand
/// each CompiledLevel to VertexExtension unchanged (the primitive applies
/// its strategy overrides for that call only); edge plans build an
/// EdgeExtensionSpec per step. The interpreter never writes engine state.
class CompiledEngine {
 public:
  explicit CompiledEngine(GammaEngine* engine) : engine_(engine) {}

  /// Verifies `plan` through the static PlanVerifier (against this
  /// engine's graph and extension options), then interprets it. A refuted
  /// plan never reaches the interpreter: the call fails with
  /// kFailedPrecondition naming the violated obligation. Verification is
  /// pure host-side analysis and charges no simulated cycles.
  Result<CompiledRunResult> Run(const CompiledPlan& plan);

  /// Interprets an already-verified plan (skips re-verification).
  Result<CompiledRunResult> Run(const VerifiedPlan& plan);

  /// The verifier configuration Run() gates plans with.
  VerifyOptions MakeVerifyOptions() const;

 private:
  Result<CompiledRunResult> RunVertexPlan(const CompiledPlan& plan);
  Result<CompiledRunResult> RunFrequentMining(const CompiledPlan& plan);
  Result<CompiledRunResult> RunEdgeJoin(const CompiledPlan& plan);

  GammaEngine* engine_;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_COMPILED_ENGINE_H_
