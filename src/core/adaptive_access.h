#ifndef GAMMA_CORE_ADAPTIVE_ACCESS_H_
#define GAMMA_CORE_ADAPTIVE_ACCESS_H_

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/access_heat.h"
#include "gpusim/device.h"
#include "gpusim/host_array.h"
#include "graph/csr.h"

namespace gpm::core {

class AdaptivityAudit;

/// How the data graph is reached from device code.
enum class GraphPlacement : uint8_t {
  /// GAMMA's self-adaptive hybrid: per page, unified or zero-copy, chosen
  /// by AccHeat before every extension (§IV). The CSR is duplicated in both
  /// spaces, as in the paper.
  kHybridAdaptive,
  /// Ablation baselines for Fig. 20.
  kUnifiedOnly,
  kZeroCopyOnly,
  /// In-core systems (Pangolin, GSI): the whole CSR must fit in device
  /// memory; Prepare() fails with kDeviceOutOfMemory otherwise.
  kDeviceResident,
  /// Subway-style explicit transfer (§II-B): before each extension the
  /// frontier's adjacency lists are gathered and reorganized on the host
  /// and shipped to the device in one batch; kernel reads then hit device
  /// memory. Pays host gather work + a full frontier transfer every
  /// extension — the overhead implicit access avoids.
  kExplicitTransfer,
};

const char* GraphPlacementName(GraphPlacement placement);

/// Charged access path to a CSR graph for simulated kernels.
///
/// Owns the host-side copies of the column/label arrays (registered as
/// unified-memory regions) and, for kDeviceResident, the device allocation.
/// Frontier planning (`PlanExtension`) implements the page-heat policy:
/// the N_u hottest pages are flagged for unified access, everything else
/// goes through zero-copy.
class GraphAccessor {
 public:
  struct Options {
    GraphPlacement placement = GraphPlacement::kHybridAdaptive;
  };

  GraphAccessor(gpusim::Device* device, const graph::Graph* graph,
                const Options& options);

  GraphAccessor(const GraphAccessor&) = delete;
  GraphAccessor& operator=(const GraphAccessor&) = delete;

  /// Stages the graph: device allocation (+ explicit H2D copy) for
  /// kDeviceResident; host-pinning cost for the host-resident modes.
  /// Must be called once before kernels run.
  Status Prepare();

  /// Declares the next extension's frontier: (vertex, access count) pairs.
  /// Only meaningful for kHybridAdaptive (no-op otherwise, kept cheap so
  /// callers need not branch). Charges the host-side planning work.
  void PlanExtension(
      const std::vector<std::pair<graph::VertexId, uint64_t>>& frontier);

  /// Charged read of `v`'s adjacency list.
  std::span<const graph::VertexId> ReadAdjacency(gpusim::WarpCtx& warp,
                                                 graph::VertexId v);

  /// Charged read of `v`'s adjacency list together with the aligned
  /// undirected edge ids (2x the bytes; used by edge extension). Requires
  /// the graph's edge index.
  std::pair<std::span<const graph::VertexId>, std::span<const graph::EdgeId>>
  ReadAdjacencyWithEids(gpusim::WarpCtx& warp, graph::VertexId v);

  /// Charged read of the endpoints of undirected edge `e`. Requires the
  /// edge index.
  graph::Edge ReadEdgeEndpoints(gpusim::WarpCtx& warp, graph::EdgeId e);

  /// Charged warp-coalesced read of the labels of `vertices`: one label
  /// transaction per warp-width batch (32 threads fetch 32 labels in
  /// parallel). Returns nothing — callers read labels through the graph;
  /// this only models the traffic.
  void ChargeLabelsBatch(gpusim::WarpCtx& warp,
                         std::span<const graph::VertexId> vertices);

  /// Charged warp-coalesced read of `count` edge-endpoint records starting
  /// around `first` (edge ids of one embedding are read by parallel lanes).
  void ChargeEdgeEndpointsBatch(gpusim::WarpCtx& warp, graph::EdgeId first,
                                std::size_t count);

  const graph::Graph& graph() const { return *graph_; }
  const Options& options() const { return options_; }
  const AccessHeatTracker& heat() const { return heat_; }
  AccessHeatTracker& heat() { return heat_; }

  /// Pages currently flagged for unified access (hybrid mode).
  std::size_t unified_page_count() const { return unified_page_count_; }

  /// The unified-memory ids of the column array and its edge-id mirror:
  /// the regions whose pages the placement serves unified or zero-copy.
  /// Every read of them names its region, in either mode.
  std::array<gpusim::UnifiedMemory::RegionId, 2> adjacency_regions() const {
    return {col_.region(), arc_eids_.region()};
  }

  /// Attaches an adaptivity audit (owned by the engine). The accessor then
  /// opens one audit record per PlanExtension. Pass nullptr to detach.
  void set_audit(AdaptivityAudit* audit) { audit_ = audit; }
  AdaptivityAudit* audit() const { return audit_; }

 private:
  bool PageIsUnified(std::size_t page) const;
  void ChargeSpan(gpusim::WarpCtx& warp, std::size_t offset,
                  std::size_t bytes, gpusim::UnifiedMemory::RegionId region);

  gpusim::Device* device_;
  const graph::Graph* graph_;
  Options options_;
  bool prepared_ = false;

  // Host-resident duplicates of the CSR payload (unified regions).
  gpusim::HostArray<graph::VertexId> col_;
  gpusim::HostArray<graph::Label> labels_;
  gpusim::HostArray<uint64_t> edges_packed_;  // edge id -> (u << 32 | v)
  // Per-arc edge ids, mirroring col_ page-for-page but faulting and
  // occupying page-buffer slots as its own region.
  gpusim::HostArray<graph::EdgeId> arc_eids_;

  // Device-resident placement.
  gpusim::DeviceBuffer device_csr_;

  // Hybrid policy state.
  AccessHeatTracker heat_;
  std::vector<uint8_t> page_unified_;
  std::size_t unified_page_count_ = 0;

  // Optional decision/counterfactual audit (not owned).
  AdaptivityAudit* audit_ = nullptr;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_ADAPTIVE_ACCESS_H_
