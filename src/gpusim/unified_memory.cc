#include "gpusim/unified_memory.h"

#include <algorithm>

#include "common/logging.h"
#include "gpusim/access_observer.h"
#include "gpusim/sanitizer.h"
#include "gpusim/trace.h"

namespace gpm::gpusim {

namespace {

constexpr uint64_t kPageMask = (uint64_t{1} << 48) - 1;

// Emits one page-level timeline event when a recorder is bound and
// enabled. The timestamp has kernel-boundary resolution: all events of
// one kernel share its start time.
void TracePage(TraceRecorder* trace, const double* now_cycles,
               TraceRecorder::Kind kind, uint32_t region, uint64_t page) {
  if (trace == nullptr || !trace->enabled()) return;
  trace->RecordUmEvent(kind, now_cycles != nullptr ? *now_cycles : 0.0,
                       region, page);
}

}  // namespace

UnifiedMemory::RegionId UnifiedMemory::Register(std::size_t bytes) {
  RegionId id = next_region_++;
  region_bytes_.emplace(id, bytes);
  if (sanitizer_ != nullptr) sanitizer_->OnRegionRegister(id, bytes);
  return id;
}

void UnifiedMemory::ResizeRegion(RegionId region, std::size_t new_bytes) {
  auto it = region_bytes_.find(region);
  GAMMA_CHECK(it != region_bytes_.end()) << "resize of unknown UM region";
  std::size_t old_bytes = it->second;
  it->second = new_bytes;
  if (sanitizer_ != nullptr) sanitizer_->OnRegionResize(region, new_bytes);
  if (observer_ != nullptr) {
    observer_->OnRegionResized(region, old_bytes, new_bytes);
  }
  DropPagesPast(region, old_bytes, new_bytes);
}

void UnifiedMemory::DropPagesPast(RegionId region, std::size_t old_bytes,
                                  std::size_t new_bytes) {
  if (new_bytes >= old_bytes) return;
  uint64_t first_stale =
      (new_bytes + params_.um_page_bytes - 1) / params_.um_page_bytes;
  uint64_t last = old_bytes / params_.um_page_bytes;
  for (uint64_t p = first_stale; p <= last; ++p) {
    auto it = resident_.find(PageKey(region, p));
    if (it != resident_.end()) {
      lru_.erase(it->second);
      resident_.erase(it);
    }
  }
}

std::size_t UnifiedMemory::PrefetchPage(RegionId region,
                                        std::size_t offset) {
  uint64_t page = offset / params_.um_page_bytes;
  uint64_t key = PageKey(region, page);
  if (auto it = resident_.find(key); it != resident_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return 0;
  }
  InsertPage(key);
  stats_->um_migrated_bytes += params_.um_page_bytes;
  TracePage(trace_, now_cycles_, TraceRecorder::Kind::kUmPrefetch, region,
            page);
  return params_.um_page_bytes;
}

void UnifiedMemory::InvalidateRegion(RegionId region) {
  if (observer_ != nullptr) observer_->OnRegionInvalidated(region);
  for (auto it = resident_.begin(); it != resident_.end();) {
    if ((it->first >> 48) == region) {
      lru_.erase(it->second);
      it = resident_.erase(it);
    } else {
      ++it;
    }
  }
}

bool UnifiedMemory::IsResident(RegionId region, std::size_t offset) const {
  return resident_.count(PageKey(region, offset / params_.um_page_bytes)) >
         0;
}

void UnifiedMemory::InsertPage(uint64_t key) {
  if (capacity_pages_ == 0) return;  // No buffer: behaves like re-faulting.
  while (lru_.size() >= capacity_pages_) {
    uint64_t victim = lru_.back();
    resident_.erase(victim);
    lru_.pop_back();
    ++stats_->um_evictions;
    TracePage(trace_, now_cycles_, TraceRecorder::Kind::kUmEviction,
              static_cast<RegionId>(victim >> 48), victim & kPageMask);
  }
  lru_.push_front(key);
  resident_.emplace(key, lru_.begin());
}

AccessCharge UnifiedMemory::Access(RegionId region, std::size_t offset,
                                   std::size_t bytes) {
  AccessCharge charge;
  if (bytes == 0) return charge;
  const std::size_t page_bytes = params_.um_page_bytes;
  uint64_t first_page = offset / page_bytes;
  uint64_t last_page = (offset + bytes - 1) / page_bytes;
  for (uint64_t p = first_page; p <= last_page; ++p) {
    uint64_t key = PageKey(region, p);
    std::size_t lo = std::max<std::size_t>(offset, p * page_bytes);
    std::size_t hi =
        std::min<std::size_t>(offset + bytes, (p + 1) * page_bytes);
    std::size_t span = hi - lo;
    auto it = resident_.find(key);
    if (it != resident_.end()) {
      // Buffered page: device-memory cost only.
      ++stats_->um_page_hits;
      charge.cycles += params_.device_mem_latency_cycles +
                       static_cast<double>(span) /
                           params_.device_bytes_per_cycle;
      charge.hit_cycles += params_.device_mem_latency_cycles +
                           static_cast<double>(span) /
                               params_.device_bytes_per_cycle;
      lru_.splice(lru_.begin(), lru_, it->second);
      TracePage(trace_, now_cycles_, TraceRecorder::Kind::kUmHit, region, p);
    } else {
      // Page fault: fault handling plus whole-page migration.
      ++stats_->um_page_faults;
      stats_->um_migrated_bytes += page_bytes;
      charge.cycles += params_.page_fault_cycles +
                       static_cast<double>(page_bytes) /
                           params_.pcie_bytes_per_cycle;
      charge.fault_cycles += params_.page_fault_cycles +
                             static_cast<double>(page_bytes) /
                                 params_.pcie_bytes_per_cycle;
      charge.pcie_bytes += page_bytes;
      TracePage(trace_, now_cycles_, TraceRecorder::Kind::kUmFault, region,
                p);
      InsertPage(key);
    }
  }
  if (observer_ != nullptr) {
    observer_->OnUnifiedAccess(region, offset, bytes, charge.cycles);
  }
  return charge;
}

}  // namespace gpm::gpusim
