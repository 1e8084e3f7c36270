#ifndef GAMMA_GRAPH_PATTERN_H_
#define GAMMA_GRAPH_PATTERN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/csr.h"

namespace gpm::graph {

/// A small pattern / query graph (≤ kMaxVertices vertices), stored as an
/// adjacency bit matrix plus per-vertex labels.
///
/// Patterns play two roles in GAMMA: as the query graph G_q in subgraph
/// matching (filtering constraint, Fig. 3), and as the canonical shape an
/// embedding maps to during aggregation (FPM pattern table, §III-B2).
class Pattern {
 public:
  static constexpr int kMaxVertices = 8;
  /// Wildcard label: matches any data-vertex label.
  static constexpr Label kAnyLabel = 0xffffffffu;

  Pattern() = default;
  explicit Pattern(int num_vertices);

  int num_vertices() const { return n_; }
  int num_edges() const;

  void AddEdge(int i, int j);
  bool HasEdge(int i, int j) const {
    return (adj_[i] >> j) & 1u;
  }
  int degree(int i) const;

  void SetLabel(int i, Label l) { labels_[i] = l; }
  Label label(int i) const { return labels_[i]; }
  bool labeled() const;

  /// Edges as (i, j) with i < j, lexicographic.
  std::vector<std::pair<int, int>> EdgeList() const;

  /// A connected matching order: starts at the max-degree vertex, then
  /// repeatedly appends the unmatched vertex with most matched neighbors
  /// (ties: higher degree). Every prefix is connected, which WOJ-style
  /// vertex extension requires (Algorithm 1).
  std::vector<int> DefaultMatchingOrder() const;

  /// Returns the pattern with vertices renumbered by `perm`
  /// (new index perm[i] = old i).
  Pattern Permuted(const std::vector<int>& perm) const;

  /// Number of automorphisms (label-preserving). Used to convert embedding
  /// counts to instance counts.
  int CountAutomorphisms() const;

  /// Every label-preserving automorphism, in lexicographic order; each
  /// permutation maps vertex i to perm[i]. Symmetry breaking walks this
  /// group; callers that only need its size use CountAutomorphisms().
  std::vector<std::vector<int>> Automorphisms() const;

  /// True when this pattern maps injectively into `other` preserving edges
  /// and labels (subgraph containment between patterns; used to compute
  /// maximal frequent patterns).
  bool ContainedIn(const Pattern& other) const;

  bool ConnectedPrefix(const std::vector<int>& order) const;

  std::string DebugString() const;

  friend bool operator==(const Pattern& a, const Pattern& b) {
    if (a.n_ != b.n_) return false;
    for (int i = 0; i < a.n_; ++i) {
      if (a.adj_[i] != b.adj_[i] || a.labels_[i] != b.labels_[i])
        return false;
    }
    return true;
  }

  // -- Canned shapes (unlabeled unless noted) -------------------------------
  static Pattern Triangle();
  static Pattern Clique(int k);
  static Pattern Path(int k);    // k vertices, k-1 edges
  static Pattern Cycle(int k);   // k vertices, k edges
  static Pattern Star(int k);    // center + k leaves
  static Pattern Diamond();      // 4-cycle plus one chord
  static Pattern TailedTriangle();

  /// The three SM queries of the paper's Fig. 13 over `num_labels` labels:
  /// q1 = labeled triangle, q2 = labeled 4-path, q3 = labeled diamond.
  static Pattern SmQuery(int which, uint32_t num_labels);

 private:
  int n_ = 0;
  std::array<uint8_t, kMaxVertices> adj_{};
  std::array<Label, kMaxVertices> labels_{};
};

/// Parses a pattern from a compact text form: an edge list
/// "0-1,1-2,2-0", optionally followed by ";labels=a,b,c" with one label
/// per vertex ("*" = wildcard). Vertex ids must be 0..kMaxVertices-1 and
/// form a contiguous range (every id below the maximum must appear in
/// some edge). Self-loops, duplicate edges, non-integer or out-of-range
/// labels (a label must fit in 32 bits and may not collide with the
/// kAnyLabel sentinel), and trailing garbage are rejected with
/// kInvalidArgument. Example: "0-1,1-2,2-0;labels=0,1,*".
Result<Pattern> ParsePattern(const std::string& text);

/// Parses a pattern file: '#' comments, one 'u v' edge per line over
/// vertices 0..k-1, and an optional 'labels l0 l1 ...' line ('*' =
/// wildcard, one label per vertex). Enforces the same hardening rules as
/// ParsePattern (no self-loops, duplicates, gaps, or malformed numbers).
Result<Pattern> ParsePatternFile(const std::string& path);

}  // namespace gpm::graph

#endif  // GAMMA_GRAPH_PATTERN_H_
