#ifndef GAMMA_CORE_PATTERN_COMPILER_H_
#define GAMMA_CORE_PATTERN_COMPILER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/extension.h"
#include "core/plan.h"
#include "graph/csr.h"
#include "graph/pattern.h"

namespace gpm::core {

/// What a compiled plan computes. All four of the repo's mining workloads
/// lower to one of these shapes over the same engine primitives.
enum class PlanKind : uint8_t {
  kSubgraphMatch,   ///< v-ET, one WOJ vertex extension per level
  kMotifCensus,     ///< v-ET union extensions + shape aggregation
  kFrequentMining,  ///< e-ET aggregate/filter/extend loop (Algorithm 2)
  kEdgeJoin,        ///< e-ET query-edge-at-a-time binary join
};

const char* PlanKindName(PlanKind kind);

/// How the first embedding-table column is produced.
enum class StartMode : uint8_t {
  kVertexParallel,  ///< label-selective vertex scan (one column)
  kEdgeParallel,    ///< edge-list scan seeding the first two columns
};

const char* StartModeName(StartMode mode);

/// Input-aware write-strategy cutover: levels whose estimated row count
/// reaches this threshold pre-allocate (two-pass); smaller levels allocate
/// dynamically. Serialized into gamma.plan.v1 rationale objects so plan
/// documents stay auditable if the cutover moves.
inline constexpr double kPreAllocRowsThreshold = 1e5;

/// Compact per-run plan descriptor embedded in gamma.bench.v1 documents.
struct PlanSummary {
  bool enabled = false;
  std::string kind;
  std::vector<int> order;
  int levels = 0;
  bool symmetry_broken = false;
};

/// A complete, data-only execution plan for one mining workload: matching
/// order, per-level intersection sets and filters, automatically derived
/// symmetry restrictions, and strategy choices. CompiledEngine::Run
/// interprets it over GammaEngine primitives; ToJson() serializes it as a
/// `gamma.plan.v1` document.
struct CompiledPlan {
  PlanKind kind = PlanKind::kSubgraphMatch;
  /// The query (subgraph match / edge join). Unused for the motif census
  /// (which aggregates every shape) and FPM.
  graph::Pattern pattern;
  /// Vertex matching order (vertex plans); order[d] is the query vertex
  /// matched at depth d.
  std::vector<int> order;
  StartMode start = StartMode::kVertexParallel;
  graph::Label start_label = graph::Pattern::kAnyLabel;
  /// Edge-parallel start only: label filter for the second column and
  /// whether the seeded pairs are ascending (folded (0,1) restriction).
  graph::Label second_label = graph::Pattern::kAnyLabel;
  bool start_ascending = false;
  /// One entry per extension step. Vertex plans: depth = first_depth + i
  /// where first_depth is 1 (vertex-parallel) or 2 (edge-parallel).
  std::vector<CompiledLevel> levels;
  /// Connected query-edge order (kEdgeJoin).
  std::vector<std::pair<int, int>> edge_order;
  bool symmetry_broken = false;
  uint64_t automorphisms = 1;
  double estimated_cost = 0;
  /// kFrequentMining parameters. A connected pattern with e edges can
  /// span e + 1 vertices, and every mined pattern must fit in a Pattern.
  static constexpr int kMaxFpmEdges = graph::Pattern::kMaxVertices - 1;
  int max_edges = 0;
  uint64_t min_support = 0;

  /// Planner rationale (audit fields; gamma.plan.v1 "rationale" objects).
  /// The raw cardinality estimates that drove — or, with input_aware off,
  /// would have driven — the start-mode decision, so plan documents are
  /// auditable without a run. Zero for kinds without a cardinality model.
  bool input_aware = false;
  double est_start_rows = 0;  ///< estimated start-vertex candidates
  double est_pair_rows = 0;   ///< estimated depth-1 (pair) rows
  /// Depth-1 restrictions were absent or exactly the foldable (0,1) pair,
  /// making an edge-parallel start legal.
  bool edge_parallel_foldable = false;

  /// Depth of the first extension level (vertex plans).
  int first_depth() const {
    return start == StartMode::kEdgeParallel ? 2 : 1;
  }

  PlanSummary Summary() const;
  std::string DebugString() const;
  /// Serializes the full plan as a `gamma.plan.v1` JSON document.
  std::string ToJson() const;
};

/// Compiler configuration. The defaults reproduce the legacy
/// hand-specialized algorithms bit-for-bit (structural order, engine-
/// inherited strategies); `input_aware` turns on statistics-driven
/// selection for user-supplied patterns.
struct CompileOptions {
  PlanStrategy plan_strategy = PlanStrategy::kStructural;
  /// Derive symmetry-breaking restrictions from the pattern's
  /// automorphisms (one embedding-table row per instance).
  bool break_symmetry = false;
  /// When a level's applicable restrictions form the full ascending chain
  /// {M_j < M_d for all j < d}, fold them into the extension's
  /// require_ascending flag instead of a per-candidate post-filter. The
  /// k-clique preset requires this (it reproduces the hand-written spec
  /// exactly); the legacy symmetric-SM preset leaves it off because the
  /// hand path always used a post-filter.
  bool fold_ascending = false;
  /// Count-only final extension (counting workloads never read the last
  /// column).
  bool count_only_last = false;
  /// Choose start mode, write strategy, and grouped intersection per
  /// level from pattern + input-graph statistics instead of inheriting
  /// the engine's options (see docs: strategy selection rules).
  bool input_aware = false;
};

/// Pattern compiler: arbitrary (optionally labeled) pattern in, complete
/// CompiledPlan out. Pure host-side analysis — compiling charges no
/// simulated cycles. Invalid inputs (empty/disconnected patterns, bad
/// parameter ranges) return kInvalidArgument instead of aborting, so
/// untrusted queries fail as structured errors.
class PatternCompiler {
 public:
  explicit PatternCompiler(const graph::Graph* g) : g_(g) {}

  /// WOJ subgraph matching over `query` (<= Pattern::kMaxVertices
  /// vertices, connected, optional labels).
  Result<CompiledPlan> CompileMatch(const graph::Pattern& query,
                                    const CompileOptions& options) const;

  /// CompileMatch with a caller-supplied matching order (bypasses
  /// BuildWojPlan).
  Result<CompiledPlan> CompileMatchWithPlan(
      const graph::Pattern& query, const WojPlan& plan,
      const CompileOptions& options) const;

  /// k-clique counting: CompileMatch over Clique(k) with symmetry folding
  /// (reproduces the hand-written ascending-intersection spec).
  Result<CompiledPlan> CompileKClique(int k, bool count_only_last) const;

  /// k-vertex motif census: union extensions + unlabeled-shape
  /// aggregation.
  Result<CompiledPlan> CompileMotifCensus(int k) const;

  /// Frequent pattern mining (Algorithm 2) parameters; max_edges must lie
  /// in [1, CompiledPlan::kMaxFpmEdges].
  Result<CompiledPlan> CompileFpm(int max_edges, uint64_t min_support) const;

  /// Binary-join matching: one query edge per extension.
  Result<CompiledPlan> CompileEdgeJoin(const graph::Pattern& query) const;

 private:
  const graph::Graph* g_;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_PATTERN_COMPILER_H_
