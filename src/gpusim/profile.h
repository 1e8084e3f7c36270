#ifndef GAMMA_GPUSIM_PROFILE_H_
#define GAMMA_GPUSIM_PROFILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/stats.h"

namespace gpm::gpusim {

class Device;

/// One named slice of a run: simulated cycles spent inside the phase and
/// the hardware-counter deltas (UM faults/hits, ZC transactions, pool
/// traffic, ...) attributed to it. Same-named scopes accumulate.
struct PhaseRecord {
  std::string name;
  uint64_t invocations = 0;
  double cycles = 0;
  DeviceStats delta;
};

/// Per-run attribution of simulated time and memory traffic to named
/// phases (extension / filtering / aggregation / ...).
///
/// GAMMA's claims are about memory traffic per phase — page faults vs
/// 128 B zero-copy transactions during extension, pool behaviour during
/// writes — so the engine records every primitive call here via PhaseScope,
/// and ToJson() exports the breakdown (plus run totals and the per-kernel
/// trace) for offline diffing.
class RunProfile {
 public:
  /// Merges `cycles` and `delta` into the phase named `name` (created on
  /// first use; insertion order is preserved).
  void Record(std::string_view name, double cycles, const DeviceStats& delta);

  const std::vector<PhaseRecord>& phases() const { return phases_; }

  /// The record for `name`, or nullptr if that phase never ran.
  const PhaseRecord* Find(std::string_view name) const;

  void Clear() { phases_.clear(); }

  /// Full JSON document: run totals (clock, counters, peak memory), the
  /// per-phase breakdown, and the per-kernel trace rendered from the
  /// kernel records of `device`'s command log (empty unless the log is
  /// enabled). Pass the device the phases ran on.
  std::string ToJson(const Device& device) const;

 private:
  std::vector<PhaseRecord> phases_;
};

/// RAII phase marker and the only source of phases: snapshots the device
/// clock and counters at construction and attributes the difference to
/// `name` in the device's RunProfile at destruction. It also opens the
/// phase on the device's phase stack, which names it for the sanitizer,
/// and brackets it in the command log, whose markers the critpath
/// analyzer and the timeline pair into the same phase.
class PhaseScope {
 public:
  PhaseScope(Device* device, std::string name);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Device* device_;
  std::string name_;
  double start_cycles_ = 0;
  DeviceStats start_stats_;
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_PROFILE_H_
