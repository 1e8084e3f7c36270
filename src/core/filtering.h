#ifndef GAMMA_CORE_FILTERING_H_
#define GAMMA_CORE_FILTERING_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/compaction.h"
#include "core/embedding_table.h"
#include "core/pattern_table.h"

namespace gpm::core {

struct FilterStats {
  std::size_t checked = 0;
  std::size_t removed = 0;
  double kernel_cycles = 0;
  CompactionResult compaction;
};

/// The filtering primitive over embeddings: marks rows failing `keep`,
/// then compacts the table (Fig. 6(c)), pruning ancestors left without
/// descendants. `keep` sees the fully reconstructed embedding (oldest unit
/// first).
FilterStats FilterEmbeddings(
    EmbeddingTable* table,
    const std::function<bool(std::span<const Unit>)>& keep);

/// FPM-style filtering: drops embeddings whose pattern (per `codes`, as
/// returned by Aggregate) is invalid in `pt` (Algorithm 2, line 4).
FilterStats FilterByPattern(EmbeddingTable* table,
                            const std::vector<uint64_t>& codes,
                            const PatternTable& pt);

}  // namespace gpm::core

#endif  // GAMMA_CORE_FILTERING_H_
