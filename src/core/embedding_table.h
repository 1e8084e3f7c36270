#ifndef GAMMA_CORE_EMBEDDING_TABLE_H_
#define GAMMA_CORE_EMBEDDING_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gpusim/host_array.h"
#include "graph/csr.h"

namespace gpm::core {

/// Unit stored in one embedding-table cell: a vertex id (v-ET) or an
/// undirected edge id (e-ET).
using Unit = uint32_t;
/// Row index within a column; kNoParent for the first column.
using RowIndex = uint32_t;
inline constexpr RowIndex kNoParent = 0xffffffffu;
/// Bytes of one new-column entry an extension writes: the candidate unit
/// plus its parent row index.
inline constexpr std::size_t kEntryBytes = sizeof(Unit) + sizeof(RowIndex);

enum class TableKind : uint8_t { kVertex, kEdge };

/// Columnar embedding table with prefix sharing (§V-A).
///
/// Column j holds the j-th unit of every partial embedding plus a pointer to
/// its predecessor row in column j-1; embeddings extended from the same
/// parent share that parent row, so the table is a prefix tree stored
/// column-first ("each column ... stored consecutively for coalesced reading
/// and writing, and each vertex has a pointer to its predecessor").
///
/// Columns are host-resident (the table can exceed device memory); each
/// column's unit and parent arrays are unified-memory regions, matching the
/// paper's choice of unified memory for the embedding table since extension
/// reads it in continuous batches.
class EmbeddingTable {
 public:
  struct Column {
    explicit Column(gpusim::Device* device)
        : units(device), parents(device) {}
    gpusim::HostArray<Unit> units;
    gpusim::HostArray<RowIndex> parents;
    std::size_t size() const { return units.size(); }
  };

  /// `device_resident` models in-core frameworks (Pangolin, GSI): every
  /// column is also allocated in device memory, so AppendColumn fails with
  /// kDeviceOutOfMemory once the intermediate results outgrow the card —
  /// the crash mode the paper reports for those systems. GAMMA itself keeps
  /// the table host-resident (false).
  EmbeddingTable(gpusim::Device* device, TableKind kind,
                 bool device_resident = false)
      : device_(device), kind_(kind), device_resident_(device_resident) {}

  EmbeddingTable(const EmbeddingTable&) = delete;
  EmbeddingTable& operator=(const EmbeddingTable&) = delete;

  bool device_resident() const { return device_resident_; }

  TableKind kind() const { return kind_; }
  gpusim::Device* device() const { return device_; }

  /// Number of columns (current embedding length).
  int length() const { return static_cast<int>(columns_.size()); }

  /// Number of (partial) embeddings = rows of the last column.
  std::size_t num_embeddings() const {
    return columns_.empty() ? 0 : columns_.back()->size();
  }

  bool empty() const { return num_embeddings() == 0; }

  Column& column(int j) { return *columns_[j]; }
  const Column& column(int j) const { return *columns_[j]; }
  Column& last_column() { return *columns_.back(); }
  const Column& last_column() const { return *columns_.back(); }

  /// Appends a fully formed column. `parents` must reference rows of the
  /// previous column (or be kNoParent for the first column). Fails with
  /// kDeviceOutOfMemory for device-resident tables that no longer fit.
  Status AppendColumn(std::vector<Unit> units, std::vector<RowIndex> parents);

  /// Initializes a one-column table (parents all kNoParent).
  Status InitFirstColumn(std::vector<Unit> units);

  /// Charges `warp` for a device-side read of `count` cells (unit +
  /// parent) of column `col` starting at row `first`, using device reads
  /// for device-resident tables and unified reads otherwise.
  void ChargeColumnRead(gpusim::WarpCtx& warp, int col, std::size_t first,
                        std::size_t count) const;

  /// Drops the last column (used when an extension is rolled back).
  void PopColumn();

  /// Shrinks the device allocations of an in-core table to the current
  /// column sizes (called after compaction; shrinking never fails).
  void SyncDeviceColumnSizes();

  /// Host-side reconstruction of row `row` of column `col` as a full
  /// embedding, oldest unit first. Un-charged; for host logic and tests.
  std::vector<Unit> GetEmbedding(int col, RowIndex row) const;

  /// All embeddings of the last column (host-side, for tests/output).
  std::vector<std::vector<Unit>> Materialize() const;

  /// Total host bytes of all columns (peak-memory accounting, Fig. 10).
  std::size_t StorageBytes() const;

  std::string DebugString() const;

 private:
  gpusim::Device* device_;
  TableKind kind_;
  bool device_resident_ = false;
  std::vector<std::unique_ptr<Column>> columns_;
  // Device allocations backing the columns of in-core tables.
  std::vector<gpusim::DeviceBuffer> device_columns_;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_EMBEDDING_TABLE_H_
