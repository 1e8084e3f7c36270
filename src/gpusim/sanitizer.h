#ifndef GAMMA_GPUSIM_SANITIZER_H_
#define GAMMA_GPUSIM_SANITIZER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gpusim/shadow.h"
#include "gpusim/stream.h"
#include "gpusim/unified_memory.h"

namespace gpm::gpusim {

class Device;

/// compute-sanitizer analog for the simulated device.
///
/// An opt-in checker attached to a Device that validates every *attributed*
/// simulated memory operation as it happens, mirroring the three
/// compute-sanitizer tools:
///
///  - memcheck:  every access must land inside a live allocation (bounds,
///               use-after-free, unknown handles), plus leak and double-free
///               detection over DeviceBuffer/pool lifetimes.
///  - initcheck: per-byte shadow of which bytes were ever written; reads of
///               never-written device bytes are flagged.
///  - racecheck: a vector-clock happens-before graph over streams/events;
///               overlapping cross-stream accesses to the same object
///               without an ordering event (at least one a write) race.
///
/// The sanitizer is pure shadow state: it never charges cycles, never
/// touches DeviceStats, and never alters control flow, so cycle totals are
/// bit-identical with it on or off (test-enforced). Sites that cannot
/// attribute an access to an allocation pass handle 0 and are skipped.
class Sanitizer {
 public:
  struct Options {
    bool memcheck = true;
    bool initcheck = true;
    bool racecheck = true;
    /// Distinct findings kept; repeats of the same (kind, object, kernel,
    /// phase) dedupe into `Finding::occurrences`, further distinct findings
    /// beyond the cap are counted in `dropped_findings()`.
    std::size_t max_findings = 256;
    /// Print the report to stderr and abort when the Device is destroyed
    /// with findings outstanding. Set by the GPUSIM_CHECK env-var mode so
    /// whole test suites fail loudly under the sanitizer.
    bool abort_on_finding = false;
  };

  enum class Kind : uint8_t {
    kOutOfBounds,
    kInvalidAccess,
    kUninitRead,
    kRace,
    kLeak,
    kDoubleFree,
  };
  static const char* KindName(Kind kind);
  /// The compute-sanitizer tool the kind belongs to
  /// (memcheck / initcheck / racecheck).
  static const char* CheckerName(Kind kind);

  /// One deduplicated finding with its attribution at first occurrence.
  struct Finding {
    Kind kind = Kind::kOutOfBounds;
    std::string message;
    std::string object;  ///< allocation label, e.g. "memory-pool" or "alloc#3"
    std::string kernel;  ///< kernel name or copy tag; empty outside kernels
    std::string phase;   ///< innermost open PhaseScope, empty outside phases
    std::size_t task = 0;
    StreamId stream = kDefaultStream;
    std::size_t offset = 0;
    std::size_t bytes = 0;
    uint64_t occurrences = 1;
    double first_cycles = 0;
  };

  /// Work the sanitizer has validated, exported under "checked" so a clean
  /// report is distinguishable from a report that checked nothing.
  struct Activity {
    uint64_t device_accesses = 0;
    uint64_t unified_accesses = 0;
    uint64_t bulk_accesses = 0;
    uint64_t allocations = 0;
    uint64_t frees = 0;
    uint64_t events_recorded = 0;
    uint64_t event_waits = 0;
  };

  /// Handle namespaces: device allocations use their raw
  /// DeviceMemory::AllocId; UM regions and shadow-only scratch buffers are
  /// offset into disjoint ranges so one map shadows all three.
  static constexpr uint64_t kScratchHandleBase = uint64_t{1} << 61;
  static constexpr uint64_t kRegionHandleBase = uint64_t{1} << 62;
  static uint64_t RegionHandle(UnifiedMemory::RegionId region) {
    return kRegionHandleBase | region;
  }

  /// Parses a GPUSIM_CHECK / --check= checker list. Empty, "1", "on",
  /// "true", and "all" enable everything; otherwise a comma-separated
  /// subset of memcheck/initcheck/racecheck. Returns false (leaving *out
  /// untouched) on unknown tokens or an empty selection.
  static bool ParseCheckList(std::string_view spec, Options* out);

  explicit Sanitizer(Options options) : options_(options) {}

  Sanitizer(const Sanitizer&) = delete;
  Sanitizer& operator=(const Sanitizer&) = delete;

  const Options& options() const { return options_; }
  const Activity& activity() const { return activity_; }
  const std::vector<Finding>& findings() const { return findings_; }
  uint64_t total_occurrences() const { return total_occurrences_; }
  uint64_t dropped_findings() const { return dropped_findings_; }

  /// Stamps findings with the device clock at first occurrence (attribution
  /// only — the sanitizer never advances it). The pointer must outlive this
  /// object; Device::EnableSanitizer binds its own clock.
  void BindClock(const double* now_cycles) { now_cycles_ = now_cycles; }
  /// Attributes findings to the innermost phase open on `phases` (the
  /// device's PhaseScope stack). Same lifetime rule as BindClock.
  void BindPhases(const std::vector<std::string>* phases) {
    phases_ = phases;
  }

  // -- Allocation lifetime (DeviceMemory / UnifiedMemory hooks) -------------

  void OnAlloc(uint64_t handle, std::size_t bytes, bool baseline = false);
  void OnFree(uint64_t handle);
  void OnResize(uint64_t handle, std::size_t new_bytes);
  /// Free of an id DeviceMemory does not know: double-free when the shadow
  /// saw it die, invalid free otherwise.
  void OnBadFree(uint64_t handle);
  void OnRegionRegister(UnifiedMemory::RegionId region, std::size_t bytes,
                        bool baseline = false);
  void OnRegionResize(UnifiedMemory::RegionId region, std::size_t new_bytes);

  /// Attaches a human-readable name ("memory-pool", "device-csr", ...) used
  /// in findings instead of "alloc#N". No-op for unknown handles.
  void LabelObject(uint64_t handle, std::string label);

  /// Marks the whole object as initialized *without* recording an access —
  /// for buffers whose contents are materialized at creation (device CSR
  /// copies, device-resident columns), where modelling the fill as a
  /// default-stream write would fabricate races against worker streams.
  void MarkInitialized(uint64_t handle);

  /// Shadow-only allocations for buffers the cost model charges
  /// conceptually without a DeviceMemory reservation (sort scratch).
  uint64_t RegisterScratch(std::string label, std::size_t bytes);
  void ReleaseScratch(uint64_t handle);

  // -- Execution context (Device hooks) --------------------------------------

  void BeginKernel(StreamId stream, const char* name);
  void EndKernel();

  /// A non-kernel command (explicit copy) was submitted on `stream`:
  /// advances the stream's vector-clock epoch.
  void OnCommand(StreamId stream);
  /// An event was recorded on `stream`; returns the sequence id the Event
  /// carries so a later OnEventWait can join against the snapshot.
  uint64_t OnEventRecord(StreamId stream);
  /// `stream` waited on the event with sequence id `seq` (0 = unrecorded
  /// event, a no-op like the simulator's own Wait).
  void OnEventWait(StreamId stream, uint64_t seq);
  /// Every stream joined (cudaDeviceSynchronize).
  void OnSynchronize();
  /// `stream` fast-forwarded to "now": ordered after everything submitted.
  void OnFastForward(StreamId stream);

  // -- Accesses ---------------------------------------------------------------

  /// A warp task inside the current kernel touched
  /// [offset, offset+bytes) of allocation `handle` (0 = unattributed, skip).
  void OnWarpAccess(std::size_t task, uint64_t handle, std::size_t offset,
                    std::size_t bytes, bool is_write);
  /// A warp task read [offset, offset+bytes) of UM region `region`.
  void OnUnifiedWarpAccess(std::size_t task, UnifiedMemory::RegionId region,
                           std::size_t offset, std::size_t bytes);
  /// A bulk transfer (H2D/D2H copy, pool flush) on `stream` touched the
  /// object. Counts as its own command (bumps the stream's epoch). Writes
  /// mark bytes initialized; reads skip initcheck — copies move whole
  /// buffers including legitimately-unwritten tails.
  void OnBulkAccess(StreamId stream, uint64_t handle, std::size_t offset,
                    std::size_t bytes, bool is_write, const char* what);
  /// Bulk transfer issued from inside the current kernel (mid-kernel pool
  /// drain): shares the kernel's stream and epoch.
  void OnKernelBulkAccess(uint64_t handle, std::size_t offset,
                          std::size_t bytes, bool is_write, const char* what);

  // -- Reporting ---------------------------------------------------------------

  /// Sweeps live non-baseline allocations into kLeak findings. Idempotent;
  /// call after the last owner released its buffers.
  void FinalizeLeakCheck();

  /// Human-readable report (one line per finding).
  std::string ReportText() const;

  /// Versioned gamma.check.v1 JSON document.
  std::string ToJson() const;

  /// Test hook: forgets that the object's bytes were ever written, so reads
  /// of host-initialized UM regions can exercise initcheck.
  void TestOnlyPoison(uint64_t handle);

 private:
  ShadowObject* FindObject(uint64_t handle);
  void EnsureStream(StreamId stream);
  /// True when the access recorded at (stream `t`, epoch `k`) happens
  /// before whatever stream `s` is doing now.
  bool OrderedBefore(StreamId t, uint64_t k, StreamId s) const;
  void CheckAccess(uint64_t handle, std::size_t offset, std::size_t bytes,
                   bool is_write, bool check_init, StreamId stream,
                   const std::string& context, std::size_t task);
  void RecordAccess(ShadowObject* obj, StreamId stream, std::size_t begin,
                    std::size_t end, bool is_write, std::size_t task,
                    const std::string& context);
  void AddFinding(Kind kind, const ShadowObject* obj,
                  const std::string& context, std::size_t task,
                  StreamId stream, std::size_t offset, std::size_t bytes,
                  std::string message, const std::string& extra_key = "");
  std::string ObjectName(const ShadowObject* obj) const;
  std::string CurrentPhase() const {
    return phases_ == nullptr || phases_->empty() ? std::string()
                                                  : phases_->back();
  }

  Options options_;
  Activity activity_;
  const double* now_cycles_ = nullptr;
  const std::vector<std::string>* phases_ = nullptr;

  std::unordered_map<uint64_t, ShadowObject> objects_;
  uint64_t next_scratch_ = kScratchHandleBase + 1;

  // Square vector-clock matrix: vc_[s][t] = the latest epoch of stream t
  // that stream s has synchronized with; vc_[s][s] is s's own epoch,
  // bumped once per submitted command.
  std::vector<std::vector<uint64_t>> vc_;
  // Event sequence ids -> vector-clock snapshot of the recording stream.
  std::vector<std::pair<StreamId, std::vector<uint64_t>>> event_snapshots_;

  bool in_kernel_ = false;
  StreamId kernel_stream_ = kDefaultStream;
  std::string kernel_name_;

  std::vector<Finding> findings_;
  std::unordered_map<std::string, std::size_t> finding_index_;
  uint64_t total_occurrences_ = 0;
  uint64_t dropped_findings_ = 0;
  bool leak_check_done_ = false;
};

/// RAII shadow-only allocation: registers a scratch object on the device's
/// sanitizer (when one is attached) and releases it on destruction. When no
/// sanitizer is attached, handle() is 0 and everything downstream is a
/// no-op — the pattern keeps call sites free of sanitizer conditionals.
class SanitizerScratch {
 public:
  SanitizerScratch(Device* device, std::string label, std::size_t bytes);
  ~SanitizerScratch();

  SanitizerScratch(const SanitizerScratch&) = delete;
  SanitizerScratch& operator=(const SanitizerScratch&) = delete;

  uint64_t handle() const { return handle_; }

 private:
  Sanitizer* sanitizer_ = nullptr;
  uint64_t handle_ = 0;
};

}  // namespace gpm::gpusim

#endif  // GAMMA_GPUSIM_SANITIZER_H_
