#include "core/compaction.h"

#include "common/logging.h"
#include "common/scan.h"
#include "gpusim/device.h"

namespace gpm::core {
namespace {

// Rows handled by one warp task in the compaction kernels.
constexpr std::size_t kRowsPerWarp = 1024;

// Charges a mark/scan/scatter pass over `rows` rows (units + parents are
// read and the survivors rewritten) and returns the kernel cycles.
double ChargeCompactKernel(gpusim::Device* device, std::size_t rows,
                           std::size_t kept) {
  if (rows == 0) return 0;
  std::size_t tasks = (rows + kRowsPerWarp - 1) / kRowsPerWarp;
  return device->LaunchKernel(tasks, [&](gpusim::WarpCtx& w,
                                         std::size_t t) {
    std::size_t lo = t * kRowsPerWarp;
    std::size_t hi = std::min(rows, lo + kRowsPerWarp);
    std::size_t n = hi - lo;
    // Read marks + (unit, parent) pairs, warp-scan for positions, write the
    // survivors' share of this chunk.
    w.DeviceRead(n * sizeof(uint8_t));
    w.DeviceRead(n * (sizeof(Unit) + sizeof(RowIndex)));
    w.ChargeSimtWork(n);
    w.ChargeWarpScan();
    std::size_t chunk_kept = kept * n / rows;  // proportional estimate
    w.DeviceWrite(chunk_kept * (sizeof(Unit) + sizeof(RowIndex)));
  },
  "compact");
}

}  // namespace

CompactionResult CompactTable(EmbeddingTable* table,
                              const std::vector<uint8_t>& keep_last) {
  CompactionResult result;
  const int ncols = table->length();
  GAMMA_CHECK(ncols > 0) << "compaction of empty table";
  GAMMA_CHECK(keep_last.size() == table->num_embeddings())
      << "keep mask size mismatch";

  gpusim::Device* device = table->device();
  std::vector<uint8_t> keep = keep_last;

  for (int j = ncols - 1; j >= 0; --j) {
    auto& col = table->column(j);
    const std::vector<Unit>& units = col.units.host_data();
    const std::vector<RowIndex>& parents = col.parents.host_data();
    const std::size_t rows = units.size();

    // Prefix scan of the keep marks gives each survivor its new position.
    std::vector<RowIndex> new_pos(rows);
    RowIndex kept = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      new_pos[r] = kept;
      kept += keep[r] ? 1 : 0;
    }
    result.kernel_cycles += ChargeCompactKernel(device, rows, kept);

    std::vector<Unit> new_units(kept);
    std::vector<RowIndex> new_parents(kept);
    std::vector<uint8_t> keep_parent;
    if (j > 0) keep_parent.assign(table->column(j - 1).size(), 0);
    for (std::size_t r = 0; r < rows; ++r) {
      if (!keep[r]) continue;
      new_units[new_pos[r]] = units[r];
      new_parents[new_pos[r]] = parents[r];
      if (!keep_parent.empty()) keep_parent[parents[r]] = 1;
    }
    std::size_t removed = rows - kept;
    if (j == ncols - 1) {
      result.removed_last = removed;
    } else {
      result.removed_ancestors += removed;
    }

    col.units.Assign(std::move(new_units));
    col.parents.Assign(std::move(new_parents));

    if (j == 0) break;

    // Remap the just-written parents after the previous column compacts:
    // compute the previous column's new positions first, then rewrite.
    const std::size_t prev_rows = keep_parent.size();
    std::vector<RowIndex> prev_new_pos(prev_rows);
    RowIndex prev_kept = 0;
    for (std::size_t r = 0; r < prev_rows; ++r) {
      prev_new_pos[r] = prev_kept;
      prev_kept += keep_parent[r] ? 1 : 0;
    }
    auto& parents_vec = col.parents.mutable_host_data();
    for (auto& p : parents_vec) p = prev_new_pos[p];
    keep = std::move(keep_parent);
  }
  table->SyncDeviceColumnSizes();
  return result;
}

}  // namespace gpm::core
