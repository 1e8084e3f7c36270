#ifndef GAMMA_CORE_ADAPTIVITY_AUDIT_H_
#define GAMMA_CORE_ADAPTIVITY_AUDIT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/access_heat.h"
#include "core/adaptive_access.h"
#include "gpusim/access_observer.h"
#include "gpusim/device.h"
#include "gpusim/sim_params.h"
#include "gpusim/stats.h"
#include "gpusim/unified_memory.h"

namespace gpm::core {

/// What one counterfactual placement would have paid: the host-memory
/// counters of its page buffer and zero-copy charges (the other
/// DeviceStats fields stay 0) and the warp-stall cycles of those charges.
struct ShadowCounters {
  double cycles = 0;
  gpusim::DeviceStats stats;

  /// Per-field difference `*this - since` (counters saturate at zero).
  ShadowCounters Diff(const ShadowCounters& since) const {
    return {cycles - since.cycles, stats.Diff(since.stats)};
  }
};

/// Number of buckets in the per-record heat histogram: bucket 0 counts
/// pages within 2x of the hottest page, bucket i pages in
/// (max/2^(i+1), max/2^i], and the last bucket everything colder.
inline constexpr std::size_t kHeatHistogramBuckets = 8;

/// One per-extension audit record: why the plan chose what it chose, what
/// the run actually paid, and what each pure placement would have paid for
/// the same access stream. The record's window runs from its plan until
/// the next extension's plan (or Finalize), so aggregation/filter traffic
/// between extensions lands in the preceding record.
struct AdaptivityRecord {
  int extension = 0;  ///< 1-based extension index
  std::size_t frontier_vertices = 0;
  double planned_bytes = 0;  ///< A_i: planned bytes x times for the window

  // Hybrid decision snapshot (zeroed under pure placements, which plan
  // nothing).
  double w_spatial = 0;           ///< Def. 4.3 weight w_s
  std::size_t unified_pages = 0;  ///< N_u pages flagged unified
  double top_page_overlap = 0;    ///< Fig. 5 top-N_u overlap vs previous
  std::size_t heat_nonzero_pages = 0;
  double heat_max = 0;
  double heat_mean_nonzero = 0;
  std::array<uint64_t, kHeatHistogramBuckets> heat_histogram{};
  double plan_cycles = 0;  ///< host planning + prefetch transfer cycles

  /// Actual traffic of the window (full DeviceStats delta) and the actual
  /// warp-stall cycles of the observed host-memory accesses.
  gpusim::DeviceStats actual;
  double actual_access_cycles = 0;

  /// Counterfactual costs of the same window's access stream.
  ShadowCounters est_unified;
  ShadowCounters est_zerocopy;

  /// (actual_access_cycles + plan_cycles) - min(est cycles): positive
  /// means the best pure mode would have beaten the hybrid this window.
  double regret_cycles = 0;
};

/// Whole-run aggregate of an audit, for one-line summaries and the bench
/// export. All cycle fields count observed host-memory access charges
/// (plus plan overhead where named), not end-to-end makespans.
struct AdaptivitySummary {
  bool enabled = false;
  uint64_t extensions = 0;
  double mean_unified_pages = 0;
  double plan_cycles = 0;
  double actual_access_cycles = 0;
  double est_unified_cycles = 0;
  double est_zerocopy_cycles = 0;
  /// (actual + plan) - min(est_unified, est_zerocopy) over run totals:
  /// the committed-mode regret (one pure mode for the whole run).
  double regret_cycles = 0;
};

/// Per-extension decision explainability + counterfactual shadow costing
/// for the self-adaptive hybrid (the paper's §IV / Fig. 20 claim).
///
/// Attached as the device's AccessObserver, the audit sees every real
/// unified/zero-copy charge and replays it into two counterfactual
/// placements, each a private gpusim::UnifiedMemory page buffer with its
/// own DeviceStats. A read of a graph adjacency region (the regions whose
/// pages the placement decides) is replayed as a unified access into the
/// unified-only shadow and as a zero-copy charge into the zero-copy-only
/// one, whichever way the run served it. Every other read is replayed as
/// it ran into both: labels, packed edges and embedding-table columns stay
/// unified under every host placement and contend for buffer capacity
/// exactly as in the pure runs, and unattributed zero-copy reads stay
/// zero-copy.
///
/// Because functional execution is placement-independent, a pure run
/// observes the same access stream the hybrid run replays — so the
/// hybrid's counterfactual totals match the pure runs' actual counters
/// exactly, and their cycle sums bit-for-bit (tests/adaptivity_audit_test
/// enforces this). Observing is strictly read-only: simulated cycles and
/// counters are identical with or without an audit attached.
class AdaptivityAudit : public gpusim::AccessObserver {
 public:
  /// `device` must outlive the audit. `placement` is recorded in the
  /// export; shadow models are meaningful for the host placements only.
  /// `graph_regions` are the adjacency regions the placement decides
  /// (GraphAccessor::adjacency_regions).
  AdaptivityAudit(
      gpusim::Device* device, GraphPlacement placement,
      std::array<gpusim::UnifiedMemory::RegionId, 2> graph_regions);
  ~AdaptivityAudit() override;

  AdaptivityAudit(const AdaptivityAudit&) = delete;
  AdaptivityAudit& operator=(const AdaptivityAudit&) = delete;

  // -- GraphAccessor hooks ---------------------------------------------------

  /// Opens the next extension's record (closing the previous one). Called
  /// from PlanExtension under every audited placement, so pure runs carry
  /// one record per extension too.
  void BeginExtension(std::size_t frontier_vertices, double planned_bytes);

  /// Fills the open record's decision snapshot after a hybrid plan and
  /// emits the trace marker. `plan_cycles` is the simulated time the plan
  /// itself consumed (host work + prefetch transfer).
  void RecordHybridPlan(const AccessHeatTracker& heat,
                        std::size_t unified_pages, double top_page_overlap,
                        double plan_cycles);

  // -- AccessObserver taps ---------------------------------------------------

  void OnUnifiedAccess(uint32_t region, std::size_t offset,
                       std::size_t bytes, double cycles) override;
  void OnZeroCopy(uint32_t region, std::size_t offset, std::size_t bytes,
                  double cycles) override;
  void OnRegionResized(uint32_t region, std::size_t old_bytes,
                       std::size_t new_bytes) override;
  void OnRegionInvalidated(uint32_t region) override;

  // -- Export ----------------------------------------------------------------

  /// Closes the last open record. Idempotent; called implicitly by
  /// Summary()/ToJson(). Call once the workload is done.
  void Finalize();

  const std::vector<AdaptivityRecord>& records() const { return records_; }
  GraphPlacement placement() const { return placement_; }

  /// Cumulative shadow totals from attach — the counter counterpart of
  /// Summary()'s est_*_cycles (which are these structs' cycles fields).
  const ShadowCounters& unified_shadow_totals() const {
    return unified_.totals;
  }
  const ShadowCounters& zerocopy_shadow_totals() const {
    return zerocopy_.totals;
  }

  /// Whole-run totals (accumulated from attach, so traffic before the
  /// first extension counts toward totals but no record).
  AdaptivitySummary Summary();

  /// Renders the audit as a `gamma.adaptivity.v1` JSON document.
  std::string ToJson();

 private:
  /// One counterfactual placement: a page buffer counting into its own
  /// totals. Charges are summed per access and added once, the same
  /// accumulation order as a real warp's.
  struct Shadow {
    explicit Shadow(const gpusim::SimParams& p)
        : params(p), buffer(p, &totals.stats) {}
    void Unified(uint32_t region, std::size_t offset, std::size_t bytes);
    void ZeroCopy(std::size_t bytes);

    const gpusim::SimParams& params;
    ShadowCounters totals;
    gpusim::UnifiedMemory buffer;
  };

  bool IsGraphRegion(uint32_t region) const {
    return region == graph_regions_[0] || region == graph_regions_[1];
  }
  void CloseOpenRecord();
  double TotalRegretCycles() const;

  gpusim::Device* device_;
  GraphPlacement placement_;
  std::array<gpusim::UnifiedMemory::RegionId, 2> graph_regions_;
  Shadow unified_;
  Shadow zerocopy_;

  double actual_access_cycles_ = 0;  // cumulative observed charges
  double plan_cycles_total_ = 0;

  bool extension_open_ = false;
  int num_extensions_ = 0;
  AdaptivityRecord open_;
  gpusim::DeviceStats stats_at_begin_;
  double actual_cycles_at_begin_ = 0;
  ShadowCounters est_unified_at_begin_;
  ShadowCounters est_zerocopy_at_begin_;
  std::vector<AdaptivityRecord> records_;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_ADAPTIVITY_AUDIT_H_
