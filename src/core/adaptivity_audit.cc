#include "core/adaptivity_audit.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/json.h"

namespace gpm::core {

void AdaptivityAudit::Shadow::Unified(uint32_t region, std::size_t offset,
                                      std::size_t bytes) {
  totals.cycles += buffer.Access(region, offset, bytes).cycles;
}

void AdaptivityAudit::Shadow::ZeroCopy(std::size_t bytes) {
  // The counting of WarpCtx::ZeroCopyRead, on the same SimParams formula.
  const std::size_t ntx = params.ZeroCopyTransactions(bytes);
  totals.stats.zc_transactions += ntx;
  totals.stats.zc_bytes += ntx * params.zc_transaction_bytes;
  totals.cycles += params.ZeroCopyCycles(ntx);
}

AdaptivityAudit::AdaptivityAudit(
    gpusim::Device* device, GraphPlacement placement,
    std::array<gpusim::UnifiedMemory::RegionId, 2> graph_regions)
    : device_(device),
      placement_(placement),
      graph_regions_(graph_regions),
      unified_(device->params()),
      zerocopy_(device->params()) {}

AdaptivityAudit::~AdaptivityAudit() {
  if (device_ != nullptr && device_->access_observer() == this) {
    device_->set_access_observer(nullptr);
  }
}

void AdaptivityAudit::BeginExtension(std::size_t frontier_vertices,
                                     double planned_bytes) {
  CloseOpenRecord();
  open_ = AdaptivityRecord{};
  open_.extension = ++num_extensions_;
  open_.frontier_vertices = frontier_vertices;
  open_.planned_bytes = planned_bytes;
  stats_at_begin_ = device_->stats().Snapshot();
  actual_cycles_at_begin_ = actual_access_cycles_;
  est_unified_at_begin_ = unified_.totals;
  est_zerocopy_at_begin_ = zerocopy_.totals;
  extension_open_ = true;
}

void AdaptivityAudit::RecordHybridPlan(const AccessHeatTracker& heat,
                                       std::size_t unified_pages,
                                       double top_page_overlap,
                                       double plan_cycles) {
  if (!extension_open_) return;
  open_.planned_bytes = heat.current_total();  // exact A_i, clamped to space
  open_.w_spatial = heat.last_w_spatial();
  open_.unified_pages = unified_pages;
  open_.top_page_overlap = top_page_overlap;
  open_.plan_cycles = plan_cycles;
  plan_cycles_total_ += plan_cycles;

  const std::vector<double>& h = heat.heat();
  double max = 0;
  double sum = 0;
  std::size_t nonzero = 0;
  for (double v : h) {
    if (v <= 0) continue;
    ++nonzero;
    sum += v;
    max = std::max(max, v);
  }
  open_.heat_nonzero_pages = nonzero;
  open_.heat_max = max;
  open_.heat_mean_nonzero = nonzero > 0 ? sum / static_cast<double>(nonzero) : 0;
  if (max > 0) {
    for (double v : h) {
      if (v <= 0) continue;
      // Bucket by power-of-two distance from the hottest page; everything
      // colder than max/2^(kBuckets-1) lands in the last bucket.
      std::size_t b = 0;
      double threshold = max / 2;
      while (b + 1 < kHeatHistogramBuckets && v <= threshold) {
        ++b;
        threshold /= 2;
      }
      ++open_.heat_histogram[b];
    }
  }

  if (device_->trace().enabled()) {
    device_->trace().RecordAdaptivity(device_->now_cycles(),
                                      static_cast<uint32_t>(open_.extension),
                                      unified_pages);
  }
}

void AdaptivityAudit::OnUnifiedAccess(uint32_t region, std::size_t offset,
                                      std::size_t bytes, double cycles) {
  actual_access_cycles_ += cycles;
  unified_.Unified(region, offset, bytes);
  if (IsGraphRegion(region)) {
    zerocopy_.ZeroCopy(bytes);
  } else {
    zerocopy_.Unified(region, offset, bytes);
  }
}

void AdaptivityAudit::OnZeroCopy(uint32_t region, std::size_t offset,
                                 std::size_t bytes, double cycles) {
  actual_access_cycles_ += cycles;
  if (IsGraphRegion(region)) {
    unified_.Unified(region, offset, bytes);
  } else {
    unified_.ZeroCopy(bytes);
  }
  zerocopy_.ZeroCopy(bytes);
}

void AdaptivityAudit::OnRegionResized(uint32_t region, std::size_t old_bytes,
                                      std::size_t new_bytes) {
  unified_.buffer.DropPagesPast(region, old_bytes, new_bytes);
  zerocopy_.buffer.DropPagesPast(region, old_bytes, new_bytes);
}

void AdaptivityAudit::OnRegionInvalidated(uint32_t region) {
  unified_.buffer.InvalidateRegion(region);
  zerocopy_.buffer.InvalidateRegion(region);
}

void AdaptivityAudit::CloseOpenRecord() {
  if (!extension_open_) return;
  extension_open_ = false;
  open_.actual = device_->stats().Snapshot().Diff(stats_at_begin_);
  open_.actual_access_cycles = actual_access_cycles_ - actual_cycles_at_begin_;
  open_.est_unified = unified_.totals.Diff(est_unified_at_begin_);
  open_.est_zerocopy = zerocopy_.totals.Diff(est_zerocopy_at_begin_);
  open_.regret_cycles =
      open_.actual_access_cycles + open_.plan_cycles -
      std::min(open_.est_unified.cycles, open_.est_zerocopy.cycles);
  records_.push_back(open_);
  device_->adaptivity_gauges().regret_cycles = TotalRegretCycles();
}

double AdaptivityAudit::TotalRegretCycles() const {
  // Committed-mode regret: a real counterfactual run picks ONE pure mode
  // for the whole workload, so the baseline is the min of the run totals
  // (not the sum of per-record minima, which would grant the baseline an
  // oracle that re-picks the mode every extension).
  return actual_access_cycles_ + plan_cycles_total_ -
         std::min(unified_.totals.cycles, zerocopy_.totals.cycles);
}

void AdaptivityAudit::Finalize() { CloseOpenRecord(); }

AdaptivitySummary AdaptivityAudit::Summary() {
  Finalize();
  AdaptivitySummary s;
  s.enabled = true;
  s.extensions = static_cast<uint64_t>(records_.size());
  std::size_t unified_pages_sum = 0;
  for (const AdaptivityRecord& r : records_) {
    unified_pages_sum += r.unified_pages;
  }
  s.mean_unified_pages =
      records_.empty() ? 0
                       : static_cast<double>(unified_pages_sum) /
                             static_cast<double>(records_.size());
  s.plan_cycles = plan_cycles_total_;
  s.actual_access_cycles = actual_access_cycles_;
  s.est_unified_cycles = unified_.totals.cycles;
  s.est_zerocopy_cycles = zerocopy_.totals.cycles;
  s.regret_cycles = TotalRegretCycles();
  return s;
}

namespace {

void WriteShadow(JsonWriter& w, const char* key, const ShadowCounters& c) {
  w.Key(key).BeginObject();
  w.Key("cycles").Value(c.cycles);
  w.Key("um_page_faults").Value(c.stats.um_page_faults);
  w.Key("um_page_hits").Value(c.stats.um_page_hits);
  w.Key("um_migrated_bytes").Value(c.stats.um_migrated_bytes);
  w.Key("um_evictions").Value(c.stats.um_evictions);
  w.Key("zc_transactions").Value(c.stats.zc_transactions);
  w.Key("zc_bytes").Value(c.stats.zc_bytes);
  w.EndObject();
}

}  // namespace

std::string AdaptivityAudit::ToJson() {
  AdaptivitySummary s = Summary();
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("gamma.adaptivity.v1");
  w.Key("placement").Value(GraphPlacementName(placement_));
  w.Key("page_bytes").Value(device_->params().um_page_bytes);
  w.Key("capacity_pages").Value(device_->unified().capacity_pages());
  w.Key("extensions").Value(s.extensions);

  w.Key("totals").BeginObject();
  w.Key("actual_access_cycles").Value(s.actual_access_cycles);
  w.Key("plan_cycles").Value(s.plan_cycles);
  w.Key("est_unified_cycles").Value(s.est_unified_cycles);
  w.Key("est_zerocopy_cycles").Value(s.est_zerocopy_cycles);
  w.Key("best_pure")
      .Value(s.est_unified_cycles <= s.est_zerocopy_cycles ? "unified"
                                                           : "zerocopy");
  w.Key("regret_cycles").Value(s.regret_cycles);
  w.Key("mean_unified_pages").Value(s.mean_unified_pages);
  w.EndObject();

  w.Key("records").BeginArray();
  for (const AdaptivityRecord& r : records_) {
    w.BeginObject();
    w.Key("extension").Value(r.extension);
    w.Key("frontier_vertices").Value(r.frontier_vertices);
    w.Key("planned_bytes").Value(r.planned_bytes);
    w.Key("w_spatial").Value(r.w_spatial);
    w.Key("unified_pages").Value(r.unified_pages);
    w.Key("top_page_overlap").Value(r.top_page_overlap);
    w.Key("heat").BeginObject();
    w.Key("nonzero_pages").Value(r.heat_nonzero_pages);
    w.Key("max").Value(r.heat_max);
    w.Key("mean_nonzero").Value(r.heat_mean_nonzero);
    w.Key("histogram").BeginArray();
    for (uint64_t b : r.heat_histogram) w.Value(b);
    w.EndArray();
    w.EndObject();
    w.Key("plan_cycles").Value(r.plan_cycles);
    w.Key("actual").BeginObject();
    w.Key("access_cycles").Value(r.actual_access_cycles);
    gpusim::WriteStatsFields(w, r.actual);
    w.EndObject();
    WriteShadow(w, "est_unified", r.est_unified);
    WriteShadow(w, "est_zerocopy", r.est_zerocopy);
    w.Key("regret_cycles").Value(r.regret_cycles);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  os << '\n';
  return std::move(os).str();
}

}  // namespace gpm::core
