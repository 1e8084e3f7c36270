#include "gpusim/unified_memory.h"

#include <algorithm>
#include <bit>
#include <utility>

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
    if (uint32_t n = Find(PageKey(region, p)); n != kNil) Remove(n);
  }
}

std::size_t UnifiedMemory::PrefetchPage(RegionId region,
                                        std::size_t offset) {
  uint64_t page = offset / params_.um_page_bytes;
  uint64_t key = PageKey(region, page);
  if (uint32_t n = Find(key); n != kNil) {
    MoveToFront(n);
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
  for (uint32_t n = head_; n != kNil;) {
    const uint32_t next = nodes_[n].next;
    if ((nodes_[n].key >> 48) == region) Remove(n);
    n = next;
  }
}

bool UnifiedMemory::IsResident(RegionId region, std::size_t offset) const {
  return Find(PageKey(region, offset / params_.um_page_bytes)) != kNil;
}

uint32_t UnifiedMemory::Find(uint64_t key) const {
  if (slots_.empty()) return kNil;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = HomeSlot(key);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.node == kNil || slot.key == key) return slot.node;
  }
}

std::size_t UnifiedMemory::HomeSlot(uint64_t key) const {
  // Fibonacci hashing: consecutive pages of one region spread out.
  constexpr uint64_t kGoldenRatio = 0x9e3779b97f4a7c15;
  return static_cast<std::size_t>((key * kGoldenRatio) >> slot_shift_);
}

void UnifiedMemory::IndexInsert(uint64_t key, uint32_t node) {
  auto place = [this](Slot slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = HomeSlot(slot.key);
    while (slots_[i].node != kNil) i = (i + 1) & mask;
    slots_[i] = slot;
  };
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, 2 * old.size()), Slot{});
    slot_shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.node != kNil) place(slot);
    }
  }
  place({key, node});
}

void UnifiedMemory::IndexErase(uint64_t key) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = HomeSlot(key);
  while (slots_[hole].key != key || slots_[hole].node == kNil) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move one before its home slot.
  for (std::size_t j = (hole + 1) & mask; slots_[j].node != kNil;
       j = (j + 1) & mask) {
    const std::size_t home = HomeSlot(slots_[j].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].node = kNil;
}

void UnifiedMemory::Unlink(uint32_t node) {
  const Node& n = nodes_[node];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void UnifiedMemory::PushFront(uint32_t node) {
  nodes_[node].prev = kNil;
  nodes_[node].next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = node;
  } else {
    tail_ = node;
  }
  head_ = node;
}

void UnifiedMemory::MoveToFront(uint32_t node) {
  if (node == head_) return;
  Unlink(node);
  PushFront(node);
}

void UnifiedMemory::Remove(uint32_t node) {
  Unlink(node);
  IndexErase(nodes_[node].key);
  nodes_[node].next = free_;
  free_ = node;
  --size_;
}

void UnifiedMemory::InsertPage(uint64_t key) {
  if (capacity_pages_ == 0) return;  // No buffer: behaves like re-faulting.
  while (size_ >= capacity_pages_) {
    const uint64_t victim = nodes_[tail_].key;
    Remove(tail_);
    ++stats_->um_evictions;
    TracePage(trace_, now_cycles_, TraceRecorder::Kind::kUmEviction,
              static_cast<RegionId>(victim >> 48), victim & kPageMask);
  }
  uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
  } else {
    GAMMA_CHECK(nodes_.size() < kNil) << "UM page buffer index overflow";
    node = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[node].key = key;
  PushFront(node);
  IndexInsert(key, node);
  ++size_;
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
    if (uint32_t n = Find(key); n != kNil) {
      // Buffered page: device-memory cost only.
      ++stats_->um_page_hits;
      charge.cycles += params_.device_mem_latency_cycles +
                       static_cast<double>(span) /
                           params_.device_bytes_per_cycle;
      charge.hit_cycles += params_.device_mem_latency_cycles +
                           static_cast<double>(span) /
                               params_.device_bytes_per_cycle;
      MoveToFront(n);
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
