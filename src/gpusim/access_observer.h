#ifndef GAMMA_GPUSIM_ACCESS_OBSERVER_H_
#define GAMMA_GPUSIM_ACCESS_OBSERVER_H_

#include <cstddef>
#include <cstdint>

namespace gpm::gpusim {

/// Read-only tap on the device's host-memory access stream.
///
/// An observer attached via `Device::set_access_observer` is notified of
/// every charged unified-memory access, every zero-copy charge, and every
/// region lifecycle event that drops buffered pages. Observers never feed
/// anything back into the cost model — the simulated cycle totals and
/// counters are bit-identical whether an observer is attached or not —
/// which is what lets `core::AdaptivityAudit` replay the same stream
/// through counterfactual page buffers while the real run proceeds.
///
/// Notifications carry the charge the real access produced so an observer
/// can accumulate actual access cycles without re-deriving the cost model.
/// On a parallel launch the taps fire while the launching thread replays
/// each task's log, so an observer sees the serial order at any thread
/// count.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;

  /// One completed unified-memory access of `[offset, offset + bytes)` in
  /// `region` (zero-byte accesses are not reported). `cycles` is the warp
  /// stall the access charged (fault/hit mix over the touched pages).
  virtual void OnUnifiedAccess(uint32_t region, std::size_t offset,
                               std::size_t bytes, double cycles) = 0;

  /// One completed zero-copy charge of `bytes` (zero-byte charges are not
  /// reported) at `[offset, offset + bytes)` of the host array whose
  /// unified-memory id is `region`; region 0 is an unattributed access.
  /// `cycles` is the warp stall charged for the rounded-up transactions.
  virtual void OnZeroCopy(uint32_t region, std::size_t offset,
                          std::size_t bytes, double cycles) = 0;

  /// `region` was resized from `old_bytes` to `new_bytes`; pages past the
  /// new size were dropped from the page buffer. Shadow buffers must drop
  /// the same pages (UnifiedMemory::DropPagesPast) to stay coherent with
  /// the real LRU.
  virtual void OnRegionResized(uint32_t region, std::size_t old_bytes,
                               std::size_t new_bytes) = 0;

  /// Every buffered page of `region` was dropped (host rewrote the data).
  virtual void OnRegionInvalidated(uint32_t region) = 0;
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_ACCESS_OBSERVER_H_
