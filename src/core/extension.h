#ifndef GAMMA_CORE_EXTENSION_H_
#define GAMMA_CORE_EXTENSION_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/adaptive_access.h"
#include "core/embedding_table.h"
#include "core/memory_pool.h"
#include "core/symmetry.h"
#include "graph/pattern.h"

namespace gpm::core {

/// How a kernel resolves the parallel-write conflict (§V-B, Challenge 1).
enum class WriteStrategy : uint8_t {
  /// Pangolin: run the extension twice — count, scan, then re-extend and
  /// write at exact offsets. No extra space, double compute.
  kNaiveTwoPass,
  /// GSI: preallocate worst-case space (rows x d_max) per kernel; chunks
  /// shrink to fit, wasting bandwidth on the sparse result buffer, and the
  /// kernel fails outright when even one row's worst case does not fit.
  kPreAlloc,
  /// GAMMA Optimization 1: warp-owned blocks from a device memory pool.
  kDynamicAlloc,
};

const char* WriteStrategyName(WriteStrategy strategy);

/// Tuning knobs shared by both extension primitives.
struct ExtensionOptions {
  WriteStrategy write_strategy = WriteStrategy::kDynamicAlloc;
  /// Optimization 2: group embeddings sharing a parent and hoist the
  /// prefix adjacency intersection out of the per-row loop.
  bool pre_merge = true;
  /// Rows per warp task when not grouping by prefix. Fine granularity
  /// keeps the warp-slot makespan balanced on skewed graphs (hub rows
  /// cluster together in the table).
  std::size_t rows_per_warp = 16;
  /// Embedding rows processed per kernel launch (out-of-core chunking).
  std::size_t chunk_rows = 1 << 16;
  /// Execution streams for the chunk pipeline. 1 = the historical fully
  /// synchronous path (bit-identical cycle totals). >= 2 enables the
  /// double-buffered pipeline: chunk i+1's extension kernels run on a
  /// compute stream while chunk i's column flush (and host append) drains
  /// on a copy stream, with events guarding buffer-half reuse. Functional
  /// results are identical either way; only the simulated timeline
  /// changes.
  std::size_t num_streams = 1;
  /// Device write buffer (the memory pool).
  std::size_t pool_bytes = 4ull << 20;
  /// Pool block size (paper: 8 KB).
  std::size_t block_bytes = 8192;
  /// Fault injection for the sanitizer's racecheck tests: skips the event
  /// wait that guards buffer-half reuse in the double-buffered pipeline,
  /// recreating the bug class the guard exists to prevent (compute stream
  /// writes a half whose flush is still in flight on the copy stream).
  /// Never set outside tests; results stay correct (the simulation is
  /// functional), only the simulated ordering becomes unsound.
  bool unsafe_skip_buffer_guard = false;
};

/// Outcome of one extension primitive call.
struct ExtensionStats {
  std::size_t input_rows = 0;
  std::size_t candidates = 0;  ///< before filtering
  std::size_t results = 0;     ///< rows appended
  std::size_t chunks = 0;      ///< kernel launches
  std::size_t groups = 0;      ///< pre-merge groups processed
  double kernel_cycles = 0;
};

/// One vertex-extension step (v-ET): what a compiled plan's level holds
/// and what VertexExtend takes. The strategy fields override the engine's
/// ExtensionOptions for this step only; unset inherits them, the
/// bit-compatible preset mode.
struct CompiledLevel {
  /// Matched positions whose adjacency lists are intersected to form the
  /// candidate set. Empty means the union of every column's neighborhood
  /// (Definition 3.1's N_v(M), the motif census) instead.
  std::vector<int> intersect_positions;
  /// Candidate must carry this label (kAnyLabel = no constraint).
  graph::Label candidate_label = graph::Pattern::kAnyLabel;
  /// Folded full-chain symmetry restriction: candidate id must exceed
  /// every matched vertex.
  bool require_ascending = false;
  /// Candidate must differ from every matched vertex.
  bool enforce_injective = true;
  /// Symmetry-breaking restrictions checked per candidate, which sits at
  /// position table->length(); each pairs that position with a matched
  /// one, the candidate on either side. Empty when folded into
  /// require_ascending or when the plan does not break symmetry.
  std::vector<SymmetryRestriction> restrictions;
  /// Count-only final level: the extension tallies surviving candidates
  /// but materializes no new column (no pool traffic, no flush). The
  /// embedding table is only needed when a further extension or
  /// aggregation reads it.
  bool count_only = false;
  /// Input-aware strategy choices; nullopt inherits the engine options.
  std::optional<WriteStrategy> write_strategy;
  std::optional<bool> pre_merge;
  /// Estimated rows after this level (planner cardinality model).
  double est_rows = 0;

  /// `engine` with this level's strategy overrides applied.
  ExtensionOptions Resolve(const ExtensionOptions& engine) const;
};

/// One extension result: the new column's unit and the row it extends.
struct ExtensionEmit {
  Unit unit;
  RowIndex parent;
};

/// VertexExtend's filter for one row: appends to `out`, in order, each
/// candidate of the sorted list `cands` that `level` accepts for the row
/// `emb` (ascending order, injectivity, label, restrictions), paired with
/// `row`. The charge is one warp-parallel compare of every candidate with
/// every matched unit when order or injectivity is required, a batched
/// label fetch when a label is, and a fixed cost for each candidate that
/// reaches the restriction check. Under `require_ascending` the survivors
/// are the suffix of `cands` above the row's largest unit, found by one
/// binary search; they exceed every unit, so need no injectivity test.
void FilterVertexCandidates(gpusim::WarpCtx& warp, GraphAccessor* accessor,
                            const CompiledLevel& level, RowIndex row,
                            std::span<const Unit> emb,
                            std::span<const graph::VertexId> cands,
                            std::vector<ExtensionEmit>* out);

/// Candidate specification for edge extension (e-ET).
struct EdgeExtensionSpec {
  /// Keep only canonical insertion sequences, so every connected edge set
  /// is produced exactly once (Arabesque-style canonicality).
  bool canonical_only = true;
  /// Edge-at-a-time matching (binary join): when set, a candidate survives
  /// only if the row plus the candidate maps onto the first row-length + 1
  /// `query_edges` of `query` (graph::MatchesQueryPrefix). Null for FPM.
  const graph::Pattern* query = nullptr;
  std::span<const std::pair<int, int>> query_edges;
};

/// Extends every embedding of the v-ET by one vertex as `level` describes
/// (Ext_v, Def. 3.1), under `options` with the level's overrides applied,
/// and appends the new column unless the level is count-only. Fails with
/// kDeviceOutOfMemory when the write strategy cannot reserve its device
/// buffers.
Result<ExtensionStats> VertexExtend(EmbeddingTable* table,
                                    GraphAccessor* accessor,
                                    const CompiledLevel& level,
                                    const ExtensionOptions& options);

/// Extends every embedding of the e-ET by one adjacent edge (Ext_e) and
/// appends the new column. Requires the graph's edge index.
Result<ExtensionStats> EdgeExtend(EmbeddingTable* table,
                                  GraphAccessor* accessor,
                                  const EdgeExtensionSpec& spec,
                                  const ExtensionOptions& options);

/// True when appending edge `e` to the insertion sequence `edges` yields
/// the canonical sequence of the extended edge set: start at the smallest
/// edge id, then repeatedly append the smallest id sharing a vertex with
/// the prefix. The reference definition, run once per candidate by the CPU
/// oracle and the tests; EdgeExtend decides the same question per row
/// through CanonicalRowContext.
bool IsCanonicalEdgeExtension(const graph::Graph& g,
                              std::span<const Unit> edges, Unit e);

/// IsCanonicalEdgeExtension for one row against many candidates. Reset
/// summarizes the row once: whether the row is itself canonical, the
/// prefix length s (1-based) at which each row vertex first appears, and
/// the suffix maxima of the row's edge ids. A candidate c that is not in
/// the row is then canonical iff the row is, c > row[0], c touches the row
/// first at some prefix length s, and c > max(row[s..k-1]): the canonical
/// sequence of the extended set picks every row edge before c, and c last.
/// A non-canonical row has no canonical extension, since dropping the last
/// edge of a canonical sequence leaves one.
class CanonicalRowContext {
 public:
  explicit CanonicalRowContext(const graph::Graph& g) : g_(&g) {}

  void Reset(std::span<const Unit> row);

  /// Equals IsCanonicalEdgeExtension(g, row, c) for every c not in the row.
  bool Accepts(Unit c) const;

 private:
  // Prefix length at which `v` first appears; len_ + 1 when it never does.
  int FirstSeen(graph::VertexId v) const;

  const graph::Graph* g_;
  int len_ = 0;
  bool canonical_ = false;
  Unit first_ = 0;
  std::vector<std::pair<graph::VertexId, int>> first_seen_;
  // suffix_max_[s] = max(row[s..len_-1]) for s in [1, len_); 0 at len_.
  std::vector<Unit> suffix_max_;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_EXTENSION_H_
