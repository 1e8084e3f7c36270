#include "core/adaptive_access.h"

#include <algorithm>

#include "common/logging.h"
#include "core/adaptivity_audit.h"
#include "gpusim/sanitizer.h"

namespace gpm::core {
namespace {

// Fraction of the UM page buffer the graph may claim as "hot" pages (the
// rest serves the embedding table and label regions).
constexpr double kUmBufferFraction = 0.75;

}  // namespace

const char* GraphPlacementName(GraphPlacement placement) {
  switch (placement) {
    case GraphPlacement::kHybridAdaptive:
      return "hybrid-adaptive";
    case GraphPlacement::kUnifiedOnly:
      return "unified-only";
    case GraphPlacement::kZeroCopyOnly:
      return "zero-copy-only";
    case GraphPlacement::kDeviceResident:
      return "device-resident";
    case GraphPlacement::kExplicitTransfer:
      return "explicit-transfer";
  }
  return "?";
}

GraphAccessor::GraphAccessor(gpusim::Device* device,
                             const graph::Graph* graph,
                             const Options& options)
    : device_(device),
      graph_(graph),
      options_(options),
      col_(device),
      labels_(device),
      edges_packed_(device),
      arc_eids_(device),
      heat_(graph->col().size() * sizeof(graph::VertexId),
            device->params().um_page_bytes) {}

Status GraphAccessor::Prepare() {
  GAMMA_CHECK(!prepared_) << "Prepare called twice";
  switch (options_.placement) {
    case GraphPlacement::kDeviceResident: {
      // The whole CSR (row pointers + columns + labels) must fit on device.
      std::size_t bytes = graph_->StorageBytes();
      auto buf = gpusim::DeviceBuffer::Make(&device_->memory(), bytes);
      if (!buf.ok()) return buf.status();
      device_csr_ = std::move(buf).value();
      if (gpusim::Sanitizer* san = device_->sanitizer()) {
        san->LabelObject(device_csr_.id(), "device-csr");
        // The upload below materializes the whole CSR; mark it initialized
        // up front rather than modelling the copy as a write (which would
        // pin a default-stream access into the race history).
        san->MarkInitialized(device_csr_.id());
      }
      device_->CopyHostToDevice(bytes);
      break;
    }
    case GraphPlacement::kHybridAdaptive:
    case GraphPlacement::kUnifiedOnly:
    case GraphPlacement::kZeroCopyOnly:
    case GraphPlacement::kExplicitTransfer: {
      // Host-resident duplicates in the unified and zero-copy spaces (the
      // paper duplicates the CSR in both; functionally one copy suffices
      // here because zero-copy reads are stateless).
      col_.Assign(graph_->col());
      std::vector<graph::Label> labels = graph_->labels();
      if (labels.empty()) labels.assign(graph_->num_vertices(), 0);
      labels_.Assign(std::move(labels));
      if (!graph_->edge_list().empty()) {
        std::vector<uint64_t> packed;
        packed.reserve(graph_->edge_list().size());
        for (const graph::Edge& e : graph_->edge_list()) {
          packed.push_back((static_cast<uint64_t>(e.u) << 32) | e.v);
        }
        edges_packed_.Assign(std::move(packed));
      }
      if (!graph_->arc_edge_ids().empty()) {
        // The edge-id mirror of the column array gets its own unified
        // region: its pages fault and occupy page-buffer slots
        // independently of the column pages they mirror.
        arc_eids_.Assign(graph_->arc_edge_ids());
      }
      if (options_.placement == GraphPlacement::kHybridAdaptive) {
        // Account the second copy's host footprint (duplication, §IV).
        device_->host_tracker().Add(col_.ByteSize());
      }
      page_unified_.assign(heat_.num_pages(), 0);
      break;
    }
  }
  prepared_ = true;
  return Status::Ok();
}

void GraphAccessor::PlanExtension(
    const std::vector<std::pair<graph::VertexId, uint64_t>>& frontier) {
  if (options_.placement == GraphPlacement::kExplicitTransfer) {
    // Subway-style staging: gather the frontier's adjacency lists into a
    // compacted buffer on the host, then transfer it explicitly. Gathering
    // and reorganizing is host work proportional to the gathered bytes
    // (§II-B: "data extraction and reorganization ... are costly"); the
    // staged buffer must also fit in device memory.
    std::size_t gather_bytes = 0;
    for (auto [v, times] : frontier) {
      (void)times;  // explicit staging copies each list once
      gather_bytes += graph_->adjacency_bytes(v);
    }
    // ~1 cycle per gathered byte of host-side extraction + reorganization.
    device_->ChargeHostWork(static_cast<double>(gather_bytes));
    device_->CopyHostToDevice(gather_bytes);
    return;
  }
  if (audit_ != nullptr) {
    // One audit record per extension under every audited placement, so
    // pure runs line up record-for-record with a hybrid run. Planned
    // bytes are recomputed here because the pure placements skip the heat
    // tracker entirely (the hybrid branch overwrites this with the heat
    // tracker's exact A_i below).
    double planned = 0;
    for (auto [v, times] : frontier) {
      planned += static_cast<double>(graph_->adjacency_bytes(v)) *
                 static_cast<double>(times);
    }
    audit_->BeginExtension(frontier.size(), planned);
  }
  if (options_.placement != GraphPlacement::kHybridAdaptive) return;
  const double plan_start_cycles = device_->now_cycles();
  heat_.BeginExtension();
  for (auto [v, times] : frontier) {
    heat_.AddPlannedAccess(graph_->adjacency_offset_bytes(v),
                           graph_->adjacency_bytes(v), times);
  }
  heat_.FinalizeExtension();

  std::size_t n_u = static_cast<std::size_t>(
      kUmBufferFraction *
      static_cast<double>(device_->unified().capacity_pages()));
  std::vector<uint32_t> hot = heat_.TopPages(n_u);
  std::fill(page_unified_.begin(), page_unified_.end(), 0);
  // The access list is known before the extension, so the hot pages are
  // prefetched in bulk (no per-page fault penalty) — this is the payoff
  // of planning: unified-only pays demand faults for the same pages.
  std::size_t migrate_bytes = 0;
  const std::size_t page_bytes = device_->params().um_page_bytes;
  for (uint32_t p : hot) {
    page_unified_[p] = 1;
    migrate_bytes +=
        device_->unified().PrefetchPage(col_.region(), p * page_bytes);
  }
  if (migrate_bytes > 0) device_->CopyHostToDevice(migrate_bytes);
  unified_page_count_ = hot.size();

  // Planning runs on the host between kernels: one pass over the frontier
  // plus the top-N selection. Charged at ~1 cycle per frontier entry and
  // per page, which is generous to the baselines (they skip this step).
  device_->ChargeHostWork(static_cast<double>(frontier.size()) +
                          static_cast<double>(heat_.num_pages()));

  // Gauge is maintained with or without an audit so metrics sampling can
  // plot N_u from any hybrid run; zero-cost when metrics are off.
  device_->adaptivity_gauges().unified_page_count = unified_page_count_;
  if (audit_ != nullptr) {
    audit_->RecordHybridPlan(heat_, unified_page_count_,
                             heat_.HotPageOverlap(n_u),
                             device_->now_cycles() - plan_start_cycles);
  }
}

bool GraphAccessor::PageIsUnified(std::size_t page) const {
  switch (options_.placement) {
    case GraphPlacement::kUnifiedOnly:
      return true;
    case GraphPlacement::kZeroCopyOnly:
      return false;
    case GraphPlacement::kHybridAdaptive:
      return page < page_unified_.size() && page_unified_[page] != 0;
    case GraphPlacement::kDeviceResident:
    case GraphPlacement::kExplicitTransfer:
      return false;  // Unreachable through ChargeSpan.
  }
  return false;
}

void GraphAccessor::ChargeSpan(gpusim::WarpCtx& warp, std::size_t offset,
                               std::size_t bytes,
                               gpusim::UnifiedMemory::RegionId region) {
  if (bytes == 0) return;
  if (options_.placement == GraphPlacement::kDeviceResident ||
      options_.placement == GraphPlacement::kExplicitTransfer) {
    // Explicit transfer staged the frontier to device memory up front, so
    // kernel reads hit device memory directly. device_csr_.id() is 0 for
    // explicit transfer (no persistent CSR buffer), which skips the
    // sanitizer attribution.
    warp.DeviceRead(device_csr_.id(), offset, bytes);
    return;
  }
  // One charge per page, each naming its region and offset in either mode,
  // so an access observer can cost the page under the other placement.
  const std::size_t page_bytes = device_->params().um_page_bytes;
  std::size_t first = offset / page_bytes;
  std::size_t last = (offset + bytes - 1) / page_bytes;
  for (std::size_t p = first; p <= last; ++p) {
    std::size_t lo = std::max(offset, p * page_bytes);
    std::size_t hi = std::min(offset + bytes, (p + 1) * page_bytes);
    if (PageIsUnified(p)) {
      warp.UnifiedRead(region, lo, hi - lo);
    } else {
      warp.ZeroCopyRead(region, lo, hi - lo);
    }
  }
}

graph::VertexSet GraphAccessor::ReadAdjacency(gpusim::WarpCtx& warp,
                                              graph::VertexId v) {
  GAMMA_CHECK(prepared_) << "GraphAccessor used before Prepare";
  ChargeSpan(warp, graph_->adjacency_offset_bytes(v),
             graph_->adjacency_bytes(v), col_.region());
  return {graph_->neighbors(v), graph_->neighbor_bits(v)};
}

std::pair<std::span<const graph::VertexId>, std::span<const graph::EdgeId>>
GraphAccessor::ReadAdjacencyWithEids(gpusim::WarpCtx& warp,
                                     graph::VertexId v) {
  GAMMA_CHECK(prepared_) << "GraphAccessor used before Prepare";
  GAMMA_CHECK(!graph_->arc_edge_ids().empty())
      << "edge index required for edge ids";
  // The edge-id array mirrors the column array page-for-page, but it is a
  // distinct allocation: both spans go through the same per-page policy,
  // and the mirror's pages fault and compete for the page buffer on their
  // own (charging the column region twice would land the edge-id traffic
  // on already-resident pages and model it as free).
  ChargeSpan(warp, graph_->adjacency_offset_bytes(v),
             graph_->adjacency_bytes(v), col_.region());
  ChargeSpan(warp, graph_->adjacency_offset_bytes(v),
             graph_->adjacency_bytes(v), arc_eids_.region());
  return {graph_->neighbors(v), graph_->neighbor_edge_ids(v)};
}

graph::Edge GraphAccessor::ReadEdgeEndpoints(gpusim::WarpCtx& warp,
                                             graph::EdgeId e) {
  GAMMA_CHECK(e < graph_->edge_list().size()) << "edge id out of range";
  if (options_.placement == GraphPlacement::kDeviceResident) {
    warp.DeviceRead(device_csr_.id(), e * sizeof(uint64_t),
                    sizeof(uint64_t));
  } else {
    warp.UnifiedRead(edges_packed_.region(), e * sizeof(uint64_t),
                     sizeof(uint64_t));
  }
  return graph_->edge_list()[e];
}

void GraphAccessor::ChargeLabelsBatch(
    gpusim::WarpCtx& warp, std::span<const graph::VertexId> vertices) {
  const std::size_t width =
      static_cast<std::size_t>(device_->params().warp_size);
  for (std::size_t i = 0; i < vertices.size(); i += width) {
    const std::size_t lanes = std::min(width, vertices.size() - i);
    if (options_.placement == GraphPlacement::kDeviceResident) {
      warp.DeviceRead(lanes * sizeof(graph::Label));
    } else {
      // Gathered read: each lane fetches the label of its own vertex,
      // which may live on a different page, so the traffic is charged per
      // lane at each vertex's offset — not one label per batch.
      for (std::size_t j = 0; j < lanes; ++j) {
        warp.UnifiedRead(labels_.region(),
                         vertices[i + j] * sizeof(graph::Label),
                         sizeof(graph::Label));
      }
    }
  }
}

void GraphAccessor::ChargeEdgeEndpointsBatch(gpusim::WarpCtx& warp,
                                             graph::EdgeId first,
                                             std::size_t count) {
  const std::size_t width =
      static_cast<std::size_t>(device_->params().warp_size);
  for (std::size_t lane0 = 0; lane0 < count; lane0 += width) {
    const std::size_t lanes = std::min(width, count - lane0);
    if (options_.placement == GraphPlacement::kDeviceResident) {
      warp.DeviceRead(lanes * sizeof(uint64_t));
    } else {
      // Each warp-wide batch reads its own span of the packed edge array;
      // the offset advances with the batch so that spans past the first
      // page are charged where they actually land.
      warp.UnifiedRead(
          edges_packed_.region(),
          (static_cast<std::size_t>(first) + lane0) * sizeof(uint64_t),
          lanes * sizeof(uint64_t));
    }
  }
}

}  // namespace gpm::core
