#include "core/filtering.h"

#include <unordered_set>

#include "common/logging.h"
#include "gpusim/device.h"

namespace gpm::core {
namespace {

constexpr std::size_t kRowsPerWarp = 256;
// Cycles charged per predicate evaluation.
constexpr double kPredicateCycles = 4.0;

FilterStats MarkAndCompact(EmbeddingTable* table,
                           const std::vector<uint8_t>& keep,
                           std::size_t predicate_rows, double mark_cycles) {
  FilterStats stats;
  stats.checked = predicate_rows;
  for (uint8_t k : keep) {
    if (!k) ++stats.removed;
  }
  stats.compaction = CompactTable(table, keep);
  stats.kernel_cycles = mark_cycles + stats.compaction.kernel_cycles;
  return stats;
}

}  // namespace

FilterStats FilterEmbeddings(
    EmbeddingTable* table,
    const std::function<bool(std::span<const Unit>)>& keep) {
  const std::size_t rows = table->num_embeddings();
  const int len = table->length();
  std::vector<uint8_t> marks(rows, 1);
  gpusim::Device* device = table->device();

  double cycles = 0;
  if (rows > 0) {
    std::size_t tasks = (rows + kRowsPerWarp - 1) / kRowsPerWarp;
    cycles = device->LaunchKernel(tasks, [&](gpusim::WarpCtx& w,
                                             std::size_t t) {
      std::size_t lo = t * kRowsPerWarp;
      std::size_t hi = std::min(rows, lo + kRowsPerWarp);
      table->ChargeColumnRead(w, len - 1, lo, hi - lo);
      w.ChargeSimtWork(hi - lo, kPredicateCycles);
      for (std::size_t r = lo; r < hi; ++r) {
        std::vector<Unit> emb =
            table->GetEmbedding(len - 1, static_cast<RowIndex>(r));
        marks[r] = keep(emb) ? 1 : 0;
      }
      w.DeviceWrite(hi - lo);
    },
    "filter-mark");
  }
  return MarkAndCompact(table, marks, rows, cycles);
}

FilterStats FilterByPattern(EmbeddingTable* table,
                            const std::vector<uint64_t>& codes,
                            const PatternTable& pt) {
  GAMMA_CHECK(codes.size() == table->num_embeddings())
      << "codes misaligned with table";
  std::unordered_set<uint64_t> invalid = pt.InvalidCodes();
  const std::size_t rows = codes.size();
  std::vector<uint8_t> marks(rows, 1);
  gpusim::Device* device = table->device();

  double cycles = 0;
  if (rows > 0 && !invalid.empty()) {
    std::size_t tasks = (rows + kRowsPerWarp - 1) / kRowsPerWarp;
    cycles = device->LaunchKernel(tasks, [&](gpusim::WarpCtx& w,
                                             std::size_t t) {
      std::size_t lo = t * kRowsPerWarp;
      std::size_t hi = std::min(rows, lo + kRowsPerWarp);
      w.DeviceRead((hi - lo) * sizeof(uint64_t));
      w.ChargeSimtWork(hi - lo, kPredicateCycles);
      for (std::size_t r = lo; r < hi; ++r) {
        marks[r] = invalid.count(codes[r]) ? 0 : 1;
      }
      w.DeviceWrite(hi - lo);
    },
    "filter-mark-pattern");
  }
  return MarkAndCompact(table, marks, rows, cycles);
}

}  // namespace gpm::core
