#ifndef GAMMA_GPUSIM_STATS_H_
#define GAMMA_GPUSIM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace gpm {
class JsonWriter;
}  // namespace gpm

namespace gpm::gpusim {

/// Hardware event counters accumulated over the lifetime of a Device.
/// Benches read these to report memory traffic and fault behaviour;
/// Snapshot()/Diff() attribute them to phases or code regions.
struct DeviceStats {
  uint64_t kernel_launches = 0;
  uint64_t warp_tasks = 0;

  // Unified memory.
  uint64_t um_page_faults = 0;
  uint64_t um_page_hits = 0;
  uint64_t um_migrated_bytes = 0;
  uint64_t um_evictions = 0;

  // Zero-copy memory.
  uint64_t zc_transactions = 0;
  uint64_t zc_bytes = 0;

  // Device memory traffic.
  uint64_t device_reads = 0;
  uint64_t device_read_bytes = 0;
  uint64_t device_writes = 0;
  uint64_t device_write_bytes = 0;

  // Explicit host<->device copies (cudaMemcpy-style, used by baselines).
  uint64_t explicit_h2d_bytes = 0;
  uint64_t explicit_d2h_bytes = 0;

  // Memory-pool behaviour (Optimization 1).
  uint64_t pool_block_requests = 0;
  uint64_t pool_blocks_wasted = 0;

  /// One named counter; Fields() enumerates every counter exactly once, so
  /// Diff(), WriteStatsFields(), and the tests cannot drift from the
  /// struct.
  struct Field {
    const char* name;
    uint64_t DeviceStats::*member;
  };
  static std::span<const Field> Fields();

  /// Copy of the counters at this instant (the live object keeps
  /// accumulating).
  DeviceStats Snapshot() const { return *this; }

  /// Per-field difference `*this - since`, saturating at zero. Taking a
  /// Snapshot() before a region and Diff()ing after it yields the traffic
  /// attributable to that region.
  DeviceStats Diff(const DeviceStats& since) const;

  void Reset() { *this = DeviceStats(); }
  std::string ToString() const;
};

/// Writes every DeviceStats counter as a `"name": value` member, in
/// Fields() order, into the JSON object `w` has open. The one writer of
/// counters in every document.
void WriteStatsFields(JsonWriter& w, const DeviceStats& stats);

/// Tracks simulated host-memory footprint (embedding tables, graph copies).
/// Fig. 10 reports peak host+device memory; device peak comes from the
/// DeviceMemory allocator, host peak from this tracker.
class HostMemoryTracker {
 public:
  void Add(std::size_t bytes) {
    current_ += bytes;
    if (current_ > peak_) peak_ = current_;
  }
  void Sub(std::size_t bytes) {
    current_ = bytes > current_ ? 0 : current_ - bytes;
  }

  std::size_t current_bytes() const { return current_; }
  std::size_t peak_bytes() const { return peak_; }
  void ResetPeak() { peak_ = current_; }

 private:
  std::size_t current_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_STATS_H_
