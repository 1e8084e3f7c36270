#ifndef GAMMA_GPUSIM_TRACE_H_
#define GAMMA_GPUSIM_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/critpath.h"
#include "gpusim/sim_params.h"

namespace gpm::gpusim {

/// Timeline view of the simulated device (`gamma.trace.v1`).
///
/// Where `DeviceStats` answers *how much* (aggregate counters) and
/// `RunProfile` answers *which phase* (per-phase deltas), the timeline
/// answers *when*. Its spans — kernels, explicit copies, PhaseScope
/// phases and per-warp-slot occupancy — are drawn from the bound command
/// log (`prof::CommandLog`), the device's one record of its commands. The
/// recorder itself stores only what the log does not carry: instants for
/// unified-memory page-buffer events (fault / hit / eviction / prefetch
/// with page ids) and the adaptive hybrid's placement decisions.
/// `ToChromeTraceJson()` renders both as Chrome trace-event JSON, loadable
/// in Perfetto (ui.perfetto.dev) or chrome://tracing, with kernels,
/// phases, UM page events, and each warp slot as separate tracks.
///
/// The instant buffer is bounded: once `capacity()` instants are stored,
/// further ones are dropped and counted in `dropped_events()` (the
/// earliest win, so the stored instants are a prefix of the run). Spans
/// are bounded by the log's own capacity. Recording is off by default;
/// enabling it also enables the bound log, and costs one branch per
/// instant source when idle.
class TraceRecorder {
 public:
  /// Default instant bound: 2 MiB of stored events.
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  enum class Kind : uint8_t {
    kUmFault,     // page fault + migration (region/page)
    kUmHit,       // access to a resident page (region/page)
    kUmEviction,  // LRU eviction from the page buffer
    kUmPrefetch,  // bulk migration without fault penalty
    kAdaptivity,  // one hybrid placement decision (see RecordAdaptivity)
  };

  /// One recorded instant at `ts` simulated cycles; `region`/`page`
  /// identify the page for UM events.
  struct Event {
    Kind kind;
    double ts = 0;
    uint32_t region = 0;
    uint64_t page = 0;
  };

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The command log the spans are drawn from; the Device binds its own
  /// at construction. Unbound, the timeline holds instants only.
  void BindLog(prof::CommandLog* log) { log_ = log; }

  bool enabled() const { return enabled_; }
  /// Enabling also enables the bound log: the spans are a view of it.
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (enabled && log_ != nullptr) log_->set_enabled(true);
  }

  std::size_t capacity() const { return capacity_; }
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }

  /// The stored instants, and how many more were dropped at capacity.
  const std::vector<Event>& events() const { return events_; }
  uint64_t dropped_events() const { return dropped_; }

  void Clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Records an instantaneous unified-memory page event at `ts_cycles`.
  /// No-op (uncounted) while disabled; counted as dropped when the buffer
  /// is full.
  void RecordUmEvent(Kind kind, double ts_cycles, uint32_t region,
                     uint64_t page);

  /// Records one per-extension placement decision of the adaptive hybrid
  /// at `ts_cycles` on the dedicated "adaptivity" track: `extension` is
  /// the 1-based extension index, `unified_pages` the N_u pages the plan
  /// flagged for unified access. Reuses the Event region/page slots.
  void RecordAdaptivity(double ts_cycles, uint32_t extension,
                        uint64_t unified_pages) {
    RecordUmEvent(Kind::kAdaptivity, ts_cycles, extension, unified_pages);
  }

  /// Renders the timeline as a Chrome trace-event JSON document
  /// (`gamma.trace.v1`). Timestamps convert from cycles to microseconds
  /// via `params`; `otherData` reports the instant capacity and, as
  /// `dropped_events`, the dropped instants plus the log's dropped
  /// commands. Kernel, copy, phase and warp-slot spans are emitted as
  /// balanced "B"/"E" pairs per track, UM page events as instants with
  /// region/page args. Kernel/copy spans from the default stream
  /// land on the classic "kernels" track; each further stream gets its
  /// own "stream N" track, so overlapped work renders as parallel lanes
  /// in Perfetto.
  std::string ToChromeTraceJson(const SimParams& params) const;

 private:
  bool enabled_ = false;
  std::size_t capacity_;
  uint64_t dropped_ = 0;
  std::vector<Event> events_;
  prof::CommandLog* log_ = nullptr;
};

/// Human-readable name of an instant kind ("um-fault", ...).
const char* TraceKindName(TraceRecorder::Kind kind);

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_TRACE_H_
