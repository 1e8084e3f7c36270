#ifndef GAMMA_GPUSIM_UNIFIED_MEMORY_H_
#define GAMMA_GPUSIM_UNIFIED_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gpusim/sim_params.h"
#include "gpusim/stats.h"

namespace gpm::gpusim {

class AccessObserver;
class Sanitizer;
class TraceRecorder;

/// Charge produced by a memory access: warp stall cycles plus bytes that
/// must cross the PCIe link (added to the current kernel's link traffic).
///
/// `hit_cycles` and `fault_cycles` split `cycles` by resource class for
/// gamma-prof (page-buffer hits are device-memory time, faults are
/// migration time). They are accumulated with the same expressions in the
/// same order as `cycles`, so `hit_cycles + fault_cycles == cycles` holds
/// exactly whenever an access is all-hit or all-fault, and to within the
/// usual fold reordering otherwise; attribution closes any residual.
struct AccessCharge {
  double cycles = 0;
  std::size_t pcie_bytes = 0;
  double hit_cycles = 0;
  double fault_cycles = 0;
};

/// Simulated CUDA unified (managed) memory.
///
/// Host-resident regions are addressable from device code; the first access
/// to a page triggers a page fault and a 4 KB migration into a device-side
/// page buffer (LRU). Subsequent accesses to a buffered page cost only a
/// device-memory access. The buffer capacity models the portion of device
/// memory the runtime dedicates to migrated pages; pages persist across
/// kernels, which is what gives GAMMA's extensions their exploitable
/// temporal locality (paper Fig. 5).
class UnifiedMemory {
 public:
  using RegionId = uint32_t;

  UnifiedMemory(const SimParams& params, DeviceStats* stats)
      : params_(params),
        stats_(stats),
        capacity_pages_(params.um_device_buffer_bytes / params.um_page_bytes) {
  }

  UnifiedMemory(const UnifiedMemory&) = delete;
  UnifiedMemory& operator=(const UnifiedMemory&) = delete;

  /// Routes page-level fault/hit/eviction/prefetch events to `trace`,
  /// timestamped by `*now_cycles` (the owning device's clock). Both
  /// pointers must outlive this object; the Device wires this up at
  /// construction.
  void BindTrace(TraceRecorder* trace, const double* now_cycles) {
    trace_ = trace;
    now_cycles_ = now_cycles;
  }

  /// Attaches a read-only tap on the access stream (see AccessObserver);
  /// nullptr detaches. Set through `Device::set_access_observer`, which
  /// keeps the warp-level zero-copy tap in sync. Observers never alter
  /// charges or counters, so results are identical with one attached.
  void set_observer(AccessObserver* observer) { observer_ = observer; }
  AccessObserver* observer() const { return observer_; }

  /// Mirrors region register/resize into the checker so it can bounds-check
  /// unified reads; nullptr detaches. Like observers, the sanitizer never
  /// alters charges.
  void set_sanitizer(Sanitizer* sanitizer) { sanitizer_ = sanitizer; }

  /// Registered regions by id; Device::EnableSanitizer snapshots this to
  /// shadow regions that predate the sanitizer.
  const std::unordered_map<RegionId, std::size_t>& region_sizes() const {
    return region_bytes_;
  }

  /// Registers a managed region of `bytes` bytes; returns its id.
  RegionId Register(std::size_t bytes);

  /// Grows or shrinks a region. Shrinking invalidates buffered pages that
  /// fall beyond the new size (DropPagesPast).
  void ResizeRegion(RegionId region, std::size_t new_bytes);

  /// Drops the buffered pages of `region` that a shrink from `old_bytes`
  /// to `new_bytes` leaves wholly outside it; a no-op unless the region
  /// shrank. No eviction is counted.
  void DropPagesPast(RegionId region, std::size_t old_bytes,
                     std::size_t new_bytes);

  /// Simulates a device-side access of `[offset, offset + bytes)` within
  /// `region`. Faults and migrates non-resident pages.
  AccessCharge Access(RegionId region, std::size_t offset, std::size_t bytes);

  /// Prefetches the page holding `offset` into the device buffer
  /// (cudaMemPrefetchAsync-style: bulk migration, no per-page fault
  /// penalty). Returns the bytes that actually had to migrate (0 when the
  /// page was already resident). The caller charges the link transfer.
  std::size_t PrefetchPage(RegionId region, std::size_t offset);

  /// Drops every buffered page of `region` (e.g., data rewritten by host).
  void InvalidateRegion(RegionId region);

  /// True when the page holding `offset` is resident in the device buffer.
  bool IsResident(RegionId region, std::size_t offset) const;

  std::size_t resident_pages() const { return size_; }
  std::size_t capacity_pages() const { return capacity_pages_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // One resident page: its key and its neighbours in LRU order (a freed
  // node links the free list through `next`).
  struct Node {
    uint64_t key = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  // One open-addressed index slot; `node == kNil` marks it empty.
  struct Slot {
    uint64_t key = 0;
    uint32_t node = kNil;
  };

  // Region id in the top 16 bits, page number in the low 48.
  static uint64_t PageKey(RegionId region, uint64_t page) {
    return (static_cast<uint64_t>(region) << 48) | page;
  }

  // The node of a resident page, or kNil.
  uint32_t Find(uint64_t key) const;
  std::size_t HomeSlot(uint64_t key) const;
  void IndexInsert(uint64_t key, uint32_t node);
  void IndexErase(uint64_t key);
  void Unlink(uint32_t node);
  void PushFront(uint32_t node);
  void MoveToFront(uint32_t node);
  // Unlinks, unindexes and frees a resident page's node.
  void Remove(uint32_t node);
  void InsertPage(uint64_t key);

  const SimParams& params_;
  DeviceStats* stats_;
  AccessObserver* observer_ = nullptr;
  Sanitizer* sanitizer_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  const double* now_cycles_ = nullptr;
  const std::size_t capacity_pages_;
  RegionId next_region_ = 1;
  std::unordered_map<RegionId, std::size_t> region_bytes_;

  // LRU over resident pages, linked by index through `nodes_`: head_ is
  // the most recent, tail_ the next victim. `slots_` maps page keys to
  // nodes by linear probing, at most half full, with a power-of-two size.
  // Both grow with the resident set, never ahead of it.
  std::vector<Node> nodes_;
  std::vector<Slot> slots_;
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  uint32_t free_ = kNil;
  std::size_t size_ = 0;
  int slot_shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_UNIFIED_MEMORY_H_
