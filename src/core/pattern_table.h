#ifndef GAMMA_CORE_PATTERN_TABLE_H_
#define GAMMA_CORE_PATTERN_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/pattern.h"

namespace gpm::core {

/// One aggregated pattern: canonical code, an exemplar shape, and support.
struct PatternEntry {
  uint64_t code = 0;
  graph::Pattern exemplar;
  uint64_t support = 0;
  bool valid = true;
};

/// The pattern table PT (§III-B2): embeddings map to canonical pattern
/// codes; the table accumulates per-pattern support across iterations and
/// records which patterns survive the support threshold.
class PatternTable {
 public:
  PatternTable() = default;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Adds `count` to `code`'s support, creating the entry (with `exemplar`)
  /// on first sight.
  void Accumulate(uint64_t code, const graph::Pattern& exemplar,
                  uint64_t count);

  const PatternEntry* Find(uint64_t code) const;

  /// Marks entries with support < `min_support` invalid; returns how many
  /// were invalidated.
  std::size_t InvalidateBelow(uint64_t min_support);

  /// Codes currently invalid (used to filter their instances out of ET).
  std::unordered_set<uint64_t> InvalidCodes() const;

  /// Drops invalid entries from the table.
  void EraseInvalid();

  const std::vector<PatternEntry>& entries() const { return entries_; }

  /// Valid entries sorted by descending support (stable for ties).
  std::vector<PatternEntry> TopPatterns() const;

  /// Valid entries whose exemplar is not contained in any other valid
  /// entry's exemplar — the maximal frequent patterns (a standard compact
  /// FPM output; an extension beyond the paper's interface).
  std::vector<PatternEntry> MaximalPatterns() const;

  /// Total bytes of the table (for peak-memory accounting).
  std::size_t StorageBytes() const;

  std::string DebugString() const;

 private:
  std::vector<PatternEntry> entries_;
  std::unordered_map<uint64_t, std::size_t> index_;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_PATTERN_TABLE_H_
