#ifndef GAMMA_GPUSIM_DEVICE_H_
#define GAMMA_GPUSIM_DEVICE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/access_observer.h"
#include "gpusim/critpath.h"
#include "gpusim/device_memory.h"
#include "gpusim/host_executor.h"
#include "gpusim/metrics.h"
#include "gpusim/profile.h"
#include "gpusim/resource_class.h"
#include "gpusim/sanitizer.h"
#include "gpusim/sim_params.h"
#include "gpusim/stats.h"
#include "gpusim/stream.h"
#include "gpusim/trace.h"
#include "gpusim/unified_memory.h"
#include "gpusim/warp.h"

namespace gpm::gpusim {

/// The simulated CPU-GPU heterogeneous platform.
///
/// A Device owns: a capacity-enforcing device-memory allocator, the unified
/// memory subsystem (page buffer carved out of device memory at
/// construction), hardware counters, a host-memory footprint tracker, a set
/// of execution streams sharing one PCIe link, and a simulated clock that is
/// the join of all stream clocks. Kernels execute warp tasks functionally on
/// the host while accumulating simulated cycles; kernel latency is the
/// makespan of warp tasks over `num_warp_slots` concurrent slots, overlapped
/// with the PCIe traffic the kernel generated (threads waiting on host
/// memory are switched out, §II-B).
///
/// The synchronous APIs (`LaunchKernel`, `CopyHostToDevice`, ...) are thin
/// wrappers over the default stream and behave exactly like the historical
/// single-clock model; the `*Async` APIs schedule on an explicit stream so
/// engine code can overlap compute with transfers (see StreamSet for the
/// contention rules).
class Device {
 public:
  explicit Device(SimParams params = SimParams());
  /// Runs the sanitizer's end-of-life leak sweep (and, in GPUSIM_CHECK
  /// abort-on-finding mode, prints the report and aborts on any finding).
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const SimParams& params() const { return params_; }
  DeviceMemory& memory() { return memory_; }
  const DeviceMemory& memory() const { return memory_; }
  UnifiedMemory& unified() { return unified_; }
  const UnifiedMemory& unified() const { return unified_; }
  DeviceStats& stats() { return stats_; }
  const DeviceStats& stats() const { return stats_; }
  HostMemoryTracker& host_tracker() { return host_tracker_; }
  const HostMemoryTracker& host_tracker() const { return host_tracker_; }

  /// Per-run phase attribution, filled by PhaseScope (the engine opens one
  /// per primitive call). Lives on the device so that any component that
  /// can charge traffic can also be profiled against it.
  RunProfile& profile() { return profile_; }
  const RunProfile& profile() const { return profile_; }

  /// Timeline recorder (kernel/copy/phase/warp-slot spans, UM page events).
  /// Disabled by default; see TraceRecorder for the Chrome-trace export.
  TraceRecorder& trace() { return trace_recorder_; }
  const TraceRecorder& trace() const { return trace_recorder_; }

  /// Periodic DeviceStats/occupancy sampler (gamma.metrics.v1 export).
  /// Disabled until an interval is set; fed on every clock advance.
  MetricsSampler& metrics() { return metrics_; }
  const MetricsSampler& metrics() const { return metrics_; }

  /// Attaches a read-only tap on every unified-memory / zero-copy charge
  /// (see AccessObserver); nullptr detaches. One observer at a time; the
  /// adaptivity audit uses this to run counterfactual shadow models
  /// alongside the real charges without perturbing them.
  void set_access_observer(AccessObserver* observer) {
    access_observer_ = observer;
    unified_.set_observer(observer);
  }
  AccessObserver* access_observer() const { return access_observer_; }

  /// Attaches a gpusim-check sanitizer (memcheck/initcheck/racecheck; see
  /// docs/SANITIZER.md), replacing any previous one — including the
  /// GPUSIM_CHECK env-var instance, whose abort-on-finding mode is thereby
  /// cleared for tests that inject faults deliberately. Everything already
  /// allocated is shadowed as baseline state: treated as initialized and
  /// exempt from the leak sweep. The sanitizer is pure shadow state and
  /// never perturbs cycles or DeviceStats.
  void EnableSanitizer(Sanitizer::Options options);

  /// The attached checker, or nullptr (the common case: zero overhead when
  /// off beyond this pointer test at attributed call sites).
  Sanitizer* sanitizer() const { return sanitizer_.get(); }

  /// Latest adaptivity readings, sampled into gamma.metrics.v1 as the
  /// `unified_page_count` / `adaptivity_regret_cycles` gauges. The hybrid
  /// accessor updates the page count at every plan; the audit (when
  /// attached) updates the cumulative regret as records close. Both stay
  /// zero for pure placements or when the machinery is off.
  struct AdaptivityGauges {
    std::size_t unified_page_count = 0;
    double regret_cycles = 0;
  };
  AdaptivityGauges& adaptivity_gauges() { return adaptivity_gauges_; }
  const AdaptivityGauges& adaptivity_gauges() const {
    return adaptivity_gauges_;
  }

  // -- gamma-prof -------------------------------------------------------------

  /// Command log: one record per timeline command (see gpusim/critpath.h)
  /// and the device's only per-kernel record. The critical-path and plan
  /// profiles and the run profile's kernel trace are all views over it.
  /// Disabled by default; `SimParams::record_commands` or
  /// `critpath().set_enabled(true)` turns it on. Recording is pure
  /// observation — simulated results are identical with it on or off.
  prof::CommandLog& critpath() { return critpath_; }
  const prof::CommandLog& critpath() const { return critpath_; }

  /// Resource class a generic compute charge lands in right now: kCompute
  /// normally, kSort inside a SortActivityScope. Memory classes pass
  /// through unchanged so link/DRAM accounting stays honest during sorts.
  ResourceClass EffectiveClass(ResourceClass cls) const {
    if (sort_depth_ > 0 && cls == ResourceClass::kCompute) {
      return ResourceClass::kSort;
    }
    return cls;
  }

  /// Sort-activity bracket (see SortActivityScope): while open, compute
  /// charges are attributed to kSort. Nestable.
  void BeginSortActivity() { ++sort_depth_; }
  void EndSortActivity() { --sort_depth_; }

  /// Phase bracket, driven by PhaseScope. The stack is always maintained
  /// (cheap); begin/end marker records are appended only while the command
  /// log is enabled, so the analyzer can attribute spans to phases.
  void BeginPhaseMark(const std::string& name) {
    if (critpath_.enabled()) {
      critpath_.Append(MakeCommand(prof::CommandRecord::Kind::kPhaseBegin,
                                   kDefaultStream, name, clock_cycles_,
                                   clock_cycles_));
    }
    phase_stack_.push_back(name);
  }
  void EndPhaseMark() {
    if (phase_stack_.empty()) return;
    std::string name = std::move(phase_stack_.back());
    phase_stack_.pop_back();
    if (critpath_.enabled()) {
      critpath_.Append(MakeCommand(prof::CommandRecord::Kind::kPhaseEnd,
                                   kDefaultStream, std::move(name),
                                   clock_cycles_, clock_cycles_));
    }
  }

  /// Innermost open phase name, or "" outside every phase.
  const std::string& current_phase() const {
    static const std::string kEmpty;
    return phase_stack_.empty() ? kEmpty : phase_stack_.back();
  }

  // -- Streams and events -----------------------------------------------------

  /// The stream timelines and the shared PCIe link.
  const StreamSet& streams() const { return streams_; }

  /// Creates a new stream whose clock starts at the current join point.
  StreamId CreateStream() {
    StreamId id = streams_.CreateStream();
    if (critpath_.enabled()) {
      critpath_.Append(MakeCommand(prof::CommandRecord::Kind::kCreateStream,
                                   id, "create-stream", streams_.cycles(id),
                                   streams_.cycles(id)));
    }
    return id;
  }

  /// Persistent worker stream `i` (0-based), created on first use. Engine
  /// primitives reuse these across calls instead of growing the stream set
  /// on every invocation.
  StreamId WorkerStream(int i);

  /// When the stream's last command finished (its clock).
  double stream_cycles(StreamId stream) const {
    return streams_.cycles(stream);
  }

  /// Captures `stream`'s current position as a joinable timestamp.
  Event RecordEvent(StreamId stream) {
    Event e = streams_.Record(stream);
    if (sanitizer_ != nullptr) e.san_seq_ = sanitizer_->OnEventRecord(stream);
    if (critpath_.enabled()) e.cp_cmd_ = critpath_.last_on_stream(stream);
    return e;
  }

  /// Stalls `stream` until `event` (no-op for never-recorded events).
  void WaitEvent(StreamId stream, const Event& event) {
    const bool log = critpath_.enabled() && event.valid();
    const double before = log ? streams_.cycles(stream) : 0.0;
    streams_.Wait(stream, event);
    clock_cycles_ = streams_.now_cycles();
    if (sanitizer_ != nullptr) sanitizer_->OnEventWait(stream, event.san_seq_);
    if (log) {
      prof::CommandRecord rec =
          MakeCommand(prof::CommandRecord::Kind::kEventWait, stream,
                      "wait-event", before, streams_.cycles(stream));
      rec.wait_pred = event.cp_cmd_;
      rec.wait_cycles = event.cycles();
      critpath_.Append(std::move(rec));
    }
  }

  /// Joins every stream (cudaDeviceSynchronize); returns the join point.
  double Synchronize() {
    clock_cycles_ = streams_.Synchronize();
    metrics_.MaybeSample(*this);
    if (sanitizer_ != nullptr) sanitizer_->OnSynchronize();
    if (critpath_.enabled()) {
      critpath_.Append(MakeCommand(prof::CommandRecord::Kind::kSynchronize,
                                   kDefaultStream, "synchronize",
                                   clock_cycles_, clock_cycles_));
    }
    return clock_cycles_;
  }

  /// Advances an idle stream to "now" so its next command follows
  /// everything already submitted (start of an async phase).
  void FastForwardStream(StreamId stream) {
    const bool log = critpath_.enabled();
    const double before = log ? streams_.cycles(stream) : 0.0;
    streams_.FastForward(stream);
    if (sanitizer_ != nullptr) sanitizer_->OnFastForward(stream);
    if (log) {
      critpath_.Append(MakeCommand(prof::CommandRecord::Kind::kFastForward,
                                   stream, "fast-forward", before,
                                   streams_.cycles(stream)));
    }
  }

  /// Total simulated time since construction (cycles / seconds / ms): the
  /// join of all stream clocks.
  double now_cycles() const { return clock_cycles_; }
  double ElapsedSeconds() const {
    return params_.CyclesToSeconds(clock_cycles_);
  }
  double ElapsedMillis() const {
    return params_.CyclesToMillis(clock_cycles_);
  }

  /// Rewinds the whole timeline to zero: every stream clock, the PCIe-link
  /// state, and all time-derived observability state (command log,
  /// timeline events, metrics samples) reset together. A partial rewind
  /// would leave recorder/sampler state stamped with timestamps from the
  /// abandoned timeline and let them emit non-monotonic series afterwards.
  void ResetClock() {
    streams_.Reset();
    clock_cycles_ = 0;
    trace_recorder_.Clear();
    metrics_.Clear();
    critpath_.Clear();
  }

  /// Adds host-side (CPU) work to the simulated timeline, e.g. flushing and
  /// reorganizing buffers between kernels. `stream` orders the work against
  /// that stream's commands (default: the synchronous timeline).
  void ChargeHostWork(double cycles, StreamId stream = kDefaultStream) {
    const bool log = critpath_.enabled();
    const double before = log ? streams_.cycles(stream) : 0.0;
    streams_.set_cycles(stream, streams_.cycles(stream) + cycles);
    clock_cycles_ = streams_.now_cycles();
    metrics_.MaybeSample(*this);
    if (log) {
      prof::CommandRecord rec =
          MakeCommand(prof::CommandRecord::Kind::kHostWork, stream,
                      "host-work", before, streams_.cycles(stream));
      rec.charge = cycles;
      rec.host_class =
          static_cast<int8_t>(EffectiveClass(ResourceClass::kCompute));
      critpath_.Append(std::move(rec));
    }
  }

  /// Explicit cudaMemcpy-style transfer on the default stream; advances the
  /// clock and returns the cycles spent. Used by baselines with explicit
  /// data movement.
  double CopyHostToDevice(std::size_t bytes) {
    return CopyHostToDeviceAsync(kDefaultStream, bytes);
  }
  double CopyDeviceToHost(std::size_t bytes) {
    return CopyDeviceToHostAsync(kDefaultStream, bytes);
  }

  /// Explicit transfer ordered on `stream`. The transfer occupies the
  /// shared PCIe link: it starts once the stream reaches it (plus link
  /// latency) *and* the link is free, so concurrent streams contend instead
  /// of double-counting bandwidth. Returns the cycles the stream advanced
  /// (including any stall waiting for the link).
  double CopyHostToDeviceAsync(StreamId stream, std::size_t bytes);
  double CopyDeviceToHostAsync(StreamId stream, std::size_t bytes);

  /// Peak device-memory usage including the UM page buffer reservation.
  std::size_t PeakDeviceBytes() const { return memory_.peak_used_bytes(); }

  /// Warp tasks of one launch that may have run but not yet been replayed:
  /// the executor's log-slot count, or 1 without a pool. Task t's deferred
  /// callbacks run before task t + task_window() starts, so a kernel that
  /// hands per-task state to its callbacks needs only this many buffers,
  /// reused as slot t % task_window().
  std::size_t task_window() const {
    return task_logs_.empty() ? 1 : task_logs_.size();
  }

  /// Runs `num_tasks` warp tasks through `fn(WarpCtx&, task_id)` on the
  /// default stream. Returns the kernel's simulated cycles (also added to
  /// the clock). `name` labels the kernel in the trace.
  template <typename Fn>
  double LaunchKernel(std::size_t num_tasks, Fn&& fn,
                      const char* name = "kernel") {
    return LaunchKernelAsync(kDefaultStream, num_tasks,
                             std::forward<Fn>(fn), name);
  }

  /// Runs a kernel ordered on `stream`: it starts at the stream's clock and
  /// advances only that stream. The kernel's folded PCIe traffic (zero-copy
  /// transactions, UM migrations, mid-kernel pool drains — summed per
  /// launch from each warp task) reserves a window on the shared link, so
  /// transfers on other streams contend with it; the kernel completes when
  /// both its compute makespan and its link window have finished.
  template <typename Fn>
  double LaunchKernelAsync(StreamId stream, std::size_t num_tasks, Fn&& fn,
                           const char* name = "kernel") {
    ++stats_.kernel_launches;
    stats_.warp_tasks += num_tasks;
    // The kernel is one command on `stream`: the sanitizer bumps the
    // stream's epoch and attributes warp accesses to this kernel until
    // EndKernel.
    if (sanitizer_ != nullptr) sanitizer_->BeginKernel(stream, name);
    const double start_cycles = streams_.cycles(stream);

    const int slots = std::max(1, params_.num_warp_slots);
    // Min-heap of (finish time, slot) pairs: greedy list scheduling gives
    // the makespan of the warp tasks over the resident-warp slots; the
    // slot index lets the timeline recorder draw per-slot occupancy. The
    // pairs are distinct, so the order is total and the root sequence is
    // that of any min-priority queue. Ascending slots already form a heap.
    std::vector<SlotTime> finish(static_cast<std::size_t>(slots));
    for (int i = 0; i < slots; ++i) {
      finish[static_cast<std::size_t>(i)] = {0.0, i};
    }
    const bool record_slots = trace_recorder_.enabled();
    // Per-slot busy intervals, coalesced: adjacent tasks merge into one
    // run, but a gap (a slot idle between tasks) starts a new run, so the
    // exported occupancy never paints idle time as busy.
    std::vector<std::vector<std::pair<double, double>>> slot_runs;
    if (record_slots) slot_runs.resize(static_cast<std::size_t>(slots));
    const bool record_cmds = critpath_.enabled();
    // Per-slot stall cycles split by resource class; the busiest slot's
    // split becomes the kernel's what-if handle (scaling it is scaling the
    // makespan).
    std::vector<ResourceCycles> slot_busy;
    if (record_cmds) slot_busy.resize(static_cast<std::size_t>(slots));
    double task_max = 0.0;
    double task_total = 0.0;
    std::size_t launch_pcie_bytes = 0;
    // One task's accounting, in task order: its PCIe bytes, its place on
    // the slot heap, its resource-class split and its slot run.
    auto account = [&](const WarpCtx& warp) {
      launch_pcie_bytes += warp.pcie_bytes();
      const auto [start, slot] = finish.front();
      const double end = start + warp.cycles();
      ReplaceHeapRoot(finish, {end, slot});
      if (record_cmds) {
        auto& busy = slot_busy[static_cast<std::size_t>(slot)];
        const ResourceCycles& task = warp.class_cycles();
        for (int c = 0; c < kNumResourceClasses; ++c) busy[c] += task[c];
        const double task_cycles = warp.cycles();
        task_max = std::max(task_max, task_cycles);
        task_total += task_cycles;
      }
      if (record_slots && end > start) {
        auto& runs = slot_runs[static_cast<std::size_t>(slot)];
        if (!runs.empty() && runs.back().second == start) {
          runs.back().second = end;
        } else {
          runs.push_back({start, end});
        }
      }
    };
    if (executor_ != nullptr && num_tasks > 1) {
      // Record/replay: task functions run on the pool with a *recording*
      // context (charges append to the log in slot t % window; shared
      // simulator state is untouched), while this thread replays each log
      // in ascending task order through the immediate-mode charges as soon
      // as it is recorded. Identical functions applied to identical state
      // in the serial order make every simulated quantity (stats, doubles,
      // UM pages, traces, sanitizer epochs) bit-identical to a serial run,
      // whatever schedule the pool picked. Recording overlaps the replay
      // of earlier tasks, so a task function must read no state replay
      // writes.
      executor_->OrderedFor(
          num_tasks,
          [this, &fn](std::size_t t) {
            WarpCtx warp(this, t, &task_logs_[t % task_logs_.size()]);
            fn(warp, t);
          },
          [this, &account](std::size_t t) {
            WarpTaskLog& log = task_logs_[t % task_logs_.size()];
            WarpCtx warp(this, t);
            warp.Replay(log);
            // The slot keeps its capacity for the task that reuses it.
            log.ops.clear();
            log.callbacks.clear();
            account(warp);
          });
    } else {
      for (std::size_t t = 0; t < num_tasks; ++t) {
        WarpCtx warp(this, t);
        fn(warp, t);
        account(warp);
      }
    }
    if (sanitizer_ != nullptr) sanitizer_->EndKernel();
    // The last slot to finish; a tie goes to the larger slot index.
    const auto [makespan, busiest_slot] =
        *std::max_element(finish.begin(), finish.end());
    const double work_start = start_cycles + params_.kernel_launch_cycles;
    double pcie_cycles = static_cast<double>(launch_pcie_bytes) /
                         params_.pcie_bytes_per_cycle;
    double end_cycles = work_start + makespan;
    // Snapshot link state before acquiring so the command record carries
    // the exact window-start arithmetic (max(ready, free) + transfer).
    const double link_free_before =
        record_cmds ? streams_.link_free_cycles() : 0.0;
    const int32_t link_pred = record_cmds ? critpath_.last_link() : -1;
    double pcie_end = 0.0;
    if (pcie_cycles > 0) {
      // The kernel's link traffic starts once the kernel does and must
      // fit behind transfers already on the link.
      pcie_end = streams_.AcquireLink(work_start, pcie_cycles);
      end_cycles = std::max(end_cycles, pcie_end);
    }
    streams_.set_cycles(stream, end_cycles);
    clock_cycles_ = streams_.now_cycles();
    if (record_cmds) {
      prof::CommandRecord rec =
          MakeCommand(prof::CommandRecord::Kind::kKernel, stream, name,
                      start_cycles, end_cycles);
      rec.launch_cycles = params_.kernel_launch_cycles;
      rec.makespan = makespan;
      rec.busy = slot_busy[static_cast<std::size_t>(busiest_slot)];
      rec.slot_busy_cycles.reserve(slot_busy.size());
      for (const ResourceCycles& busy : slot_busy) {
        double total = 0.0;
        for (int c = 0; c < kNumResourceClasses; ++c) total += busy[c];
        rec.slot_busy_cycles.push_back(total);
      }
      rec.tasks = num_tasks;
      rec.task_max_cycles = task_max;
      rec.task_total_cycles = task_total;
      if (pcie_cycles > 0) {
        rec.link_transfer = pcie_cycles;
        rec.link_ready = work_start;
        rec.link_start = std::max(work_start, link_free_before);
        rec.link_end = pcie_end;
        rec.link_pred = link_pred;
      }
      critpath_.Append(std::move(rec));
    }
    if (record_slots) {
      trace_recorder_.RecordSpan(TraceRecorder::Kind::kKernel, name,
                                 start_cycles, end_cycles, stream);
      // Slot busy runs start after the launch overhead; they always nest
      // inside the kernel span.
      for (int slot = 0; slot < slots; ++slot) {
        for (const auto& [lo, hi] : slot_runs[static_cast<std::size_t>(slot)]) {
          trace_recorder_.RecordSpan(TraceRecorder::Kind::kWarpSlot, name,
                                     work_start + lo, work_start + hi, slot);
        }
      }
    }
    metrics_.MaybeSample(*this);
    return end_cycles - start_cycles;
  }

 private:
  /// A warp slot's finish time and index, ordered lexicographically.
  using SlotTime = std::pair<double, int>;

  /// Replaces the root of the min-heap `heap` by `x` and sifts it down.
  static void ReplaceHeapRoot(std::vector<SlotTime>& heap, SlotTime x) {
    const std::size_t n = heap.size();
    std::size_t i = 0;
    for (std::size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && heap[child + 1] < heap[child]) ++child;
      if (!(heap[child] < x)) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = x;
  }

  /// A command record with the fields every kind shares: kind, stream,
  /// name, the innermost open phase, and the [start, end] window. Callers
  /// add their kind's cost decomposition before appending it.
  prof::CommandRecord MakeCommand(prof::CommandRecord::Kind kind,
                                  StreamId stream, std::string name,
                                  double start, double end) const {
    prof::CommandRecord rec;
    rec.kind = kind;
    rec.stream = stream;
    rec.name = std::move(name);
    rec.phase = current_phase();
    rec.start = start;
    rec.end = end;
    return rec;
  }

  /// Shared body of the explicit-transfer APIs: link acquisition, clock
  /// advance, trace span, and the gamma-prof command record.
  double CopyAsync(StreamId stream, std::size_t bytes, const char* name);

  SimParams params_;
  DeviceMemory memory_;
  DeviceStats stats_;
  UnifiedMemory unified_;
  HostMemoryTracker host_tracker_;
  RunProfile profile_;
  TraceRecorder trace_recorder_;
  MetricsSampler metrics_;
  DeviceBuffer um_buffer_reservation_;
  // Record/replay for host_threads > 1: the pool and its window of task
  // log slots, reused across tasks and launches.
  std::unique_ptr<HostExecutor> executor_;
  std::vector<WarpTaskLog> task_logs_;
  std::unique_ptr<Sanitizer> sanitizer_;
  AccessObserver* access_observer_ = nullptr;
  AdaptivityGauges adaptivity_gauges_;
  StreamSet streams_;
  std::vector<StreamId> worker_streams_;
  // Cached join of all stream clocks; UnifiedMemory::BindTrace holds a
  // pointer to it for stamping page events.
  double clock_cycles_ = 0;
  prof::CommandLog critpath_;
  int sort_depth_ = 0;
  std::vector<std::string> phase_stack_;
};

/// RAII bracket marking a sort subtree (multi-merge sort and friends):
/// compute charges made while one is open are attributed to the kSort
/// resource class. Attribution-only — never perturbs charges.
class SortActivityScope {
 public:
  explicit SortActivityScope(Device* device) : device_(device) {
    device_->BeginSortActivity();
  }
  ~SortActivityScope() { device_->EndSortActivity(); }

  SortActivityScope(const SortActivityScope&) = delete;
  SortActivityScope& operator=(const SortActivityScope&) = delete;

 private:
  Device* device_;
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_DEVICE_H_
