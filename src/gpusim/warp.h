#ifndef GAMMA_GPUSIM_WARP_H_
#define GAMMA_GPUSIM_WARP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "gpusim/device_memory.h"
#include "gpusim/resource_class.h"
#include "gpusim/sim_params.h"
#include "gpusim/unified_memory.h"

namespace gpm::gpusim {

class Device;
class WarpCtx;

/// One recorded side effect of a warp task. When a kernel executes its task
/// functions on the host thread pool, every charge is appended here instead
/// of touching simulator state; the launching thread then replays the logs
/// in ascending task order through the exact immediate-mode implementations,
/// so DeviceStats, cycle arithmetic (double addition is not associative —
/// ops are never coalesced), UM page state, traces, and sanitizer findings
/// are bit-identical to the serial schedule.
struct WarpOp {
  enum Kind : uint8_t {
    kChargeCompute,   // d = cycles
    kChargeSimtWork,  // a = elems, d = cycles_per_step
    kChargeWarpScan,
    kChargeAtomic,
    kChargeBlockSync,
    kDeviceRead,      // id = alloc (0 = unattributed), a = offset, b = bytes
    kDeviceWrite,     // id = alloc (0 = unattributed), a = offset, b = bytes
    kZeroCopyRead,    // id = region (0 = unattributed), a = offset,
                      // b = bytes (writes share the symmetric cost model)
    kUnifiedRead,     // id = region, a = offset, b = bytes
    kAddPcieBytes,    // b = bytes
    kCallback,        // a = index into WarpTaskLog::callbacks
  };
  Kind kind;
  uint64_t id = 0;
  std::size_t a = 0;
  std::size_t b = 0;
  double d = 0;
};

/// The ordered side-effect log of one warp task: typed charges plus deferred
/// host callbacks (`WarpCtx::Defer`) interleaved in call order.
struct WarpTaskLog {
  std::vector<WarpOp> ops;
  std::vector<std::function<void(WarpCtx&)>> callbacks;
};

/// Execution context of one warp task inside a kernel.
///
/// Warps are the simulation granularity (paper §II-A: SIMT threads inside a
/// warp synchronize for free). Intra-warp data parallelism is modeled by
/// `ChargeSimtWork`, which charges ceil(n / warp_size) element-steps instead
/// of per-thread events. All memory traffic flows through the typed charge
/// methods so that the cost model stays in one place.
///
/// A context is either *immediate* (the historical mode: every charge lands
/// on the device at once) or *recording* (constructed with a WarpTaskLog:
/// charges append ops and mutate nothing — the mode parallel launches use
/// while task functions run concurrently). Task functions that need to
/// mutate host state the context cannot see route it through `Defer`, which
/// preserves the same record-then-ordered-replay discipline. While
/// recording, `cycles()` and `pcie_bytes()` stay 0 — kernels must not
/// branch on them mid-task.
class WarpCtx {
 public:
  WarpCtx(Device* device, std::size_t task_id);
  WarpCtx(Device* device, std::size_t task_id, WarpTaskLog* log);

  std::size_t task_id() const { return task_id_; }
  double cycles() const { return cycles_; }
  Device* device() { return device_; }

  /// True when charges are being recorded for later ordered replay instead
  /// of applied immediately. Components with side effects beyond the typed
  /// charges (e.g. MemoryPool) check this and defer themselves.
  bool recording() const { return log_ != nullptr; }

  /// Raw ALU work (already warp-parallel): adds `cycles` directly.
  void ChargeCompute(double cycles);

  /// Warp-parallel loop over `elems` elements at `cycles_per_step` per
  /// 32-wide step.
  void ChargeSimtWork(std::size_t elems, double cycles_per_step = 1.0);

  /// Warp-level inclusive/exclusive prefix scan over one value per thread
  /// (log2(warp_size) shuffle rounds).
  void ChargeWarpScan();

  /// One global-memory atomic (e.g., grabbing a memory-pool block).
  void ChargeAtomic();

  /// Thread-block barrier.
  void ChargeBlockSync();

  /// Coalesced read of `bytes` from device memory.
  void DeviceRead(std::size_t bytes);

  /// Coalesced write of `bytes` to device memory.
  void DeviceWrite(std::size_t bytes);

  /// Attributed variants: identical charge to the byte-only forms, plus —
  /// when a sanitizer is attached — validation of [offset, offset+bytes)
  /// against allocation `alloc`. `alloc` 0 means "unattributed" and skips
  /// the check (e.g. a DeviceBuffer::id() of an invalid buffer), so call
  /// sites never need their own sanitizer conditionals.
  void DeviceRead(DeviceMemory::AllocId alloc, std::size_t offset,
                  std::size_t bytes);
  void DeviceWrite(DeviceMemory::AllocId alloc, std::size_t offset,
                   std::size_t bytes);

  /// Read of `bytes` from host memory over zero-copy (128 B transactions).
  void ZeroCopyRead(std::size_t bytes);

  /// Attributed variant: identical charge, plus the host array it reads
  /// (`region`, its unified-memory id; 0 = unattributed) and the byte
  /// offset, which the access observer receives.
  void ZeroCopyRead(UnifiedMemory::RegionId region, std::size_t offset,
                    std::size_t bytes);

  /// Write of `bytes` to host memory over zero-copy.
  void ZeroCopyWrite(std::size_t bytes);

  /// Read of `[offset, offset+bytes)` in a unified-memory region (page
  /// faults + migrations on miss, device cost on hit).
  void UnifiedRead(UnifiedMemory::RegionId region, std::size_t offset,
                   std::size_t bytes);

  /// Runs `fn(*this)` now in immediate mode, or records it for ordered
  /// replay on the launching thread when recording. This is the escape
  /// hatch for side effects the typed ops cannot express (memory-pool
  /// bookkeeping); the callback executes interleaved with the replayed
  /// charges exactly where the call sat in the task.
  void Defer(std::function<void(WarpCtx&)> fn);

  /// Applies every op in `log` to this (immediate-mode) context, in order.
  /// Called by the launching thread once per task, ascending.
  void Replay(const WarpTaskLog& log);

  /// PCIe traffic this warp task generated (zero-copy transactions, UM
  /// migrations, mid-kernel pool drains). The kernel sums it per launch and
  /// overlaps the total with its compute makespan — scoping the accumulator
  /// to the task keeps interleaved transfers on other streams from being
  /// attributed to the wrong kernel's overlap credit.
  void AddPcieBytes(std::size_t bytes) {
    if (log_ != nullptr) {
      log_->ops.push_back({WarpOp::kAddPcieBytes, 0, 0, bytes, 0});
      return;
    }
    pcie_bytes_ += bytes;
  }
  std::size_t pcie_bytes() const { return pcie_bytes_; }

  /// gamma-prof: this task's stall cycles split by resource class. Each
  /// typed charge adds the exact amount it added to `cycles()` under the
  /// class consumed (compute charges follow the device's sort-activity
  /// remap); the kernel folds the per-slot sums into its command record.
  /// Like `cycles()`, stays 0 while recording — filled at replay.
  const ResourceCycles& class_cycles() const { return class_cycles_; }

 private:
  /// Tags `amount` stall cycles (already added to cycles_) with `cls`.
  void AddClassCycles(ResourceClass cls, double amount) {
    class_cycles_[static_cast<std::size_t>(cls)] += amount;
  }

  Device* device_;
  std::size_t task_id_;
  WarpTaskLog* log_ = nullptr;
  double cycles_ = 0;
  std::size_t pcie_bytes_ = 0;
  ResourceCycles class_cycles_{};
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_WARP_H_
