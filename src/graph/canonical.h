#ifndef GAMMA_GRAPH_CANONICAL_H_
#define GAMMA_GRAPH_CANONICAL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/pattern.h"

namespace gpm::graph {

/// Exact canonical byte encoding of a small labeled pattern: the
/// lexicographically smallest encoding over all vertex permutations.
/// Two patterns are isomorphic (label-preserving) iff their canonical
/// encodings are equal.
std::vector<uint8_t> CanonicalEncoding(const Pattern& p);

/// 64-bit hash of CanonicalEncoding — the canonical label used as the
/// aggregation key (§III-B2). Patterns are tiny (≤ 8 vertices), so the
/// permutation search is cheap; embedding-rate callers should memoize via
/// CanonicalCache.
uint64_t CanonicalCode(const Pattern& p);

/// Order-*dependent* 64-bit hash of a pattern as currently numbered, taken
/// straight from its vertex count, adjacency bits and labels. Much cheaper
/// than CanonicalCode: identical patterns have equal raw codes, and distinct
/// ones collide only as a 64-bit hash can.
uint64_t RawCode(const Pattern& p);

/// Memoizes raw code → canonical code. The aggregation primitive maps every
/// embedding to its pattern's canonical label; embeddings overwhelmingly
/// share a handful of shapes, so this cache reduces per-embedding cost to a
/// hash lookup.
class CanonicalCache {
 public:
  uint64_t Get(const Pattern& p) {
    uint64_t raw = RawCode(p);
    auto it = memo_.find(raw);
    if (it != memo_.end()) return it->second;
    uint64_t canon = CanonicalCode(p);
    memo_.emplace(raw, canon);
    return canon;
  }

  std::size_t size() const { return memo_.size(); }

 private:
  std::unordered_map<uint64_t, uint64_t> memo_;
};

}  // namespace gpm::graph

#endif  // GAMMA_GRAPH_CANONICAL_H_
