#ifndef GAMMA_CORE_AGGREGATION_H_
#define GAMMA_CORE_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/adaptive_access.h"
#include "core/embedding_table.h"
#include "core/multimerge_sort.h"
#include "core/pattern_table.h"

namespace gpm::core {

struct AggregationResult {
  /// codes[r] = canonical pattern code of embedding r (aligned with the
  /// last column). Retained so Filtering can drop instances of invalid
  /// patterns without recomputing the map.
  std::vector<uint64_t> codes;
  std::size_t distinct_patterns = 0;
  SortStats sort_stats;
  double kernel_cycles = 0;
};

/// The aggregation primitive (§III-B2): maps every embedding of `table` to
/// its pattern's canonical label (with data labels when `use_labels`),
/// sorts the label column with `sort` (out-of-core when needed), counts
/// each pattern's instances as its support, and accumulates into `pt`.
Result<AggregationResult> Aggregate(const EmbeddingTable& table,
                                    GraphAccessor* accessor,
                                    PatternTable* pt, bool use_labels,
                                    const SortOptions& sort);

}  // namespace gpm::core

#endif  // GAMMA_CORE_AGGREGATION_H_
