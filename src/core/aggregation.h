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

/// Support measure used when aggregating embeddings into patterns.
enum class SupportMeasure : uint8_t {
  /// Number of instances of the pattern (the paper's definition, §III).
  kInstanceCount,
  /// Minimum node image: min over pattern positions of the number of
  /// distinct data vertices appearing there (anti-monotone; common in
  /// other FPM systems, provided as an extension).
  kMni,
};

struct AggregationOptions {
  /// Map embeddings to labeled patterns (true for FPM over labeled data).
  bool use_labels = true;
  SupportMeasure support = SupportMeasure::kInstanceCount;
  /// Sorting backend for the canonical-code table; the pattern table can
  /// exceed device memory, which is what Optimization 3 addresses.
  SortOptions sort;
};

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
/// its pattern's canonical label, sorts the label column (out-of-core when
/// needed), counts support per pattern, and accumulates into `pt`.
Result<AggregationResult> Aggregate(const EmbeddingTable& table,
                                    GraphAccessor* accessor,
                                    PatternTable* pt,
                                    const AggregationOptions& options);

}  // namespace gpm::core

#endif  // GAMMA_CORE_AGGREGATION_H_
