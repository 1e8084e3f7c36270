#include "core/embedding_table.h"

#include <sstream>
#include <string>

#include "common/logging.h"
#include "gpusim/sanitizer.h"

namespace gpm::core {

Status EmbeddingTable::AppendColumn(std::vector<Unit> units,
                                    std::vector<RowIndex> parents) {
  GAMMA_CHECK(units.size() == parents.size())
      << "column arrays must have equal length";
  if (!columns_.empty()) {
    const std::size_t prev = columns_.back()->size();
    for (RowIndex p : parents) {
      GAMMA_CHECK(p < prev) << "parent row out of range";
    }
  } else {
    for (RowIndex p : parents) {
      GAMMA_CHECK(p == kNoParent) << "first column must have no parents";
    }
  }
  if (device_resident_) {
    std::size_t bytes = units.size() * (sizeof(Unit) + sizeof(RowIndex));
    auto buf = gpusim::DeviceBuffer::Make(&device_->memory(), bytes);
    if (!buf.ok()) return buf.status();
    gpusim::DeviceBuffer dbuf = std::move(buf).value();
    if (gpusim::Sanitizer* san = device_->sanitizer()) {
      san->LabelObject(dbuf.id(),
                       "et-column-" + std::to_string(columns_.size()));
      // The column is materialized with its data: the flush that filled it
      // is the pool's business, not a read-before-write hazard here.
      san->MarkInitialized(dbuf.id());
    }
    device_columns_.push_back(std::move(dbuf));
  }
  auto col = std::make_unique<Column>(device_);
  col->units.Assign(std::move(units));
  col->parents.Assign(std::move(parents));
  columns_.push_back(std::move(col));
  return Status::Ok();
}

Status EmbeddingTable::InitFirstColumn(std::vector<Unit> units) {
  GAMMA_CHECK(columns_.empty()) << "table already initialized";
  std::vector<RowIndex> parents(units.size(), kNoParent);
  return AppendColumn(std::move(units), std::move(parents));
}

void EmbeddingTable::PopColumn() {
  GAMMA_CHECK(!columns_.empty()) << "pop from empty table";
  columns_.pop_back();
  if (device_resident_ && !device_columns_.empty()) {
    device_columns_.pop_back();
  }
}

void EmbeddingTable::SyncDeviceColumnSizes() {
  if (!device_resident_) return;
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    std::size_t bytes =
        columns_[j]->size() * (sizeof(Unit) + sizeof(RowIndex));
    if (bytes < device_columns_[j].bytes()) {
      GAMMA_CHECK_OK(device_columns_[j].Resize(bytes));
    }
  }
}

void EmbeddingTable::ChargeColumnRead(gpusim::WarpCtx& warp, int col,
                                      std::size_t first,
                                      std::size_t count) const {
  const Column& c = *columns_[col];
  if (device_resident_) {
    warp.DeviceRead(device_columns_[col].id(), first * kEntryBytes,
                    count * kEntryBytes);
  } else {
    warp.UnifiedRead(c.units.region(), first * sizeof(Unit),
                     count * sizeof(Unit));
    warp.UnifiedRead(c.parents.region(), first * sizeof(RowIndex),
                     count * sizeof(RowIndex));
  }
}

std::vector<Unit> EmbeddingTable::GetEmbedding(int col, RowIndex row) const {
  GAMMA_CHECK(col >= 0 && col < length()) << "column out of range";
  std::vector<Unit> out(col + 1);
  RowIndex r = row;
  for (int j = col; j >= 0; --j) {
    GAMMA_CHECK(r < columns_[j]->size()) << "row out of range";
    out[j] = columns_[j]->units.host_data()[r];
    r = columns_[j]->parents.host_data()[r];
  }
  return out;
}

std::vector<std::vector<Unit>> EmbeddingTable::Materialize() const {
  std::vector<std::vector<Unit>> out;
  if (columns_.empty()) return out;
  const int last = length() - 1;
  out.reserve(num_embeddings());
  for (RowIndex r = 0; r < num_embeddings(); ++r) {
    out.push_back(GetEmbedding(last, r));
  }
  return out;
}

std::size_t EmbeddingTable::StorageBytes() const {
  std::size_t bytes = 0;
  for (const auto& c : columns_) {
    bytes += c->units.ByteSize() + c->parents.ByteSize();
  }
  return bytes;
}

std::string EmbeddingTable::DebugString() const {
  std::ostringstream os;
  os << "EmbeddingTable(kind="
     << (kind_ == TableKind::kVertex ? "vertex" : "edge") << ", cols=[";
  for (int j = 0; j < length(); ++j) {
    if (j > 0) os << ",";
    os << columns_[j]->size();
  }
  os << "])";
  return os.str();
}

}  // namespace gpm::core
