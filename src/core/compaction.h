#ifndef GAMMA_CORE_COMPACTION_H_
#define GAMMA_CORE_COMPACTION_H_

#include <cstdint>
#include <vector>

#include "core/embedding_table.h"

namespace gpm::core {

/// Result of one compaction pass.
struct CompactionResult {
  std::size_t removed_last = 0;       ///< rows removed from the last column
  std::size_t removed_ancestors = 0;  ///< orphan rows removed upstream
  double kernel_cycles = 0;           ///< simulated cost of the pass
};

/// Compresses the embedding table after filtering (§V-A, Fig. 6(c)).
///
/// `keep_last[r]` says whether row r of the last column survives. The pass
/// follows the paper's three stages — mark, prefix-scan for new positions,
/// parallel collection — charged as GPU kernels; rows of earlier columns
/// that lost all descendants are removed too and parent pointers are
/// remapped (the space compression "ignored in existing GPM frameworks").
CompactionResult CompactTable(EmbeddingTable* table,
                              const std::vector<uint8_t>& keep_last);

}  // namespace gpm::core

#endif  // GAMMA_CORE_COMPACTION_H_
