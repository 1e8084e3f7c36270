#ifndef GAMMA_CORE_PLAN_PROFILER_H_
#define GAMMA_CORE_PLAN_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pattern_compiler.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "gpusim/resource_class.h"
#include "gpusim/stats.h"

namespace gpm::core {

/// The strategy actually in effect while one plan level executed: the
/// plan's per-level override when present, otherwise the engine option it
/// inherited. `*_from_plan` records which of the two it was.
struct PlanProfStrategy {
  std::string write_strategy;
  bool write_strategy_from_plan = false;
  bool pre_merge = false;
  bool pre_merge_from_plan = false;
  bool count_only = false;
};

/// Planner-side inputs for one profiled segment, passed by CompiledEngine
/// when it opens the segment.
struct PlanProfLevelInput {
  std::string label;  ///< "L<depth>" / "it<i>" / "e<k>" / "start"
  int depth = 0;
  bool has_estimate = false;  ///< the planner's model covers this segment
  double est_rows = 0;        ///< estimated rows after the segment
  int intersect_width = 0;    ///< matched adjacency lists intersected
  bool union_extension = false;
  bool has_strategy = false;  ///< vertex levels carry strategy choices
  PlanProfStrategy strategy;
};

/// One profiled segment of a CompiledEngine::Run — the start-table build
/// or one extension level/iteration — with estimate-vs-actual counts, the
/// execution window's counter deltas, the per-warp-slot work histogram,
/// and (when the command log was recording) critpath resource attribution.
struct PlanProfSegment {
  // Planner side (copied from PlanProfLevelInput).
  std::string label;
  int depth = 0;
  bool has_estimate = false;
  double est_rows = 0;
  int intersect_width = 0;
  bool union_extension = false;
  bool has_strategy = false;
  PlanProfStrategy strategy;

  // Actuals.
  uint64_t input_rows = 0;
  uint64_t candidates = 0;
  uint64_t rows = 0;  ///< rows after the segment (or count-only tally)
  /// max(est', act') / min(est', act') with both clamped at 1; always
  /// >= 1 when has_estimate, 0 otherwise.
  double q_error = 0;
  double selectivity = 0;  ///< rows / candidates (0 when no candidates)

  // Execution window.
  double cycles = 0;
  gpusim::DeviceStats counters;  ///< DeviceStats delta over the window
  /// The window's stretch of the command log (empty while the log is off).
  prof::LogWindow window;

  // Per-warp-slot work histogram, summed over the window's kernels.
  // imbalance = max / mean busy cycles across slots (>= 1; 0 = no work).
  std::vector<double> slot_busy_cycles;
  uint64_t kernels = 0;
  uint64_t tasks = 0;
  double task_max_cycles = 0;
  double task_total_cycles = 0;
  double slot_max_cycles = 0;
  double slot_mean_cycles = 0;
  double imbalance = 0;

  // Critpath resource attribution of the window (fold-exact to `cycles`);
  // only valid when `attributed`.
  bool attributed = false;
  gpusim::ResourceCycles attribution{};
  gpusim::ResourceClass binding = gpusim::ResourceClass::kSyncIdle;
};

/// Compact per-run digest embedded in gamma.bench.v1 documents.
struct PlanProfSummary {
  bool enabled = false;
  double worst_q_error = 0;  ///< 0 when no segment had an estimate
  int worst_q_error_depth = -1;
  double imbalance = 0;  ///< max/mean over the run-total slot histogram
  struct Level {
    std::string label;
    int depth = 0;
    bool has_estimate = false;
    double est_rows = 0;
    uint64_t rows = 0;
    double q_error = 0;
  };
  std::vector<Level> levels;  ///< start segment first, then each level
};

/// Per-level estimate-vs-actual audit of one CompiledEngine::Run: Q-error
/// against the planner's cardinality model, the strategy in effect and the
/// inputs that drove it, per-level resource-class attribution (over each
/// level's window of the command log), and a per-warp-slot load-imbalance
/// histogram.
///
/// Observation only: the profiler reads the clock, counter snapshots, and
/// the command log, and writes nothing into any of them, so a profiled run
/// is bit-identical in cycles and DeviceStats to an unprofiled one
/// (enforced by planprof_test) and every other document of the run is
/// unchanged. Attribution and slot histograms additionally need
/// SimParams::record_commands; without it the run still profiles rows,
/// Q-error, cycles, and counters.
class PlanProfiler {
 public:
  // -- Hooks driven by CompiledEngine ---------------------------------------

  /// Starts a fresh audit (discarding any previous run's data).
  void BeginRun(const CompiledPlan& plan, gpusim::Device* device);
  /// Opens one segment; EndSegment closes it before the next Begin. A run
  /// that fails leaves its last segment open and never finishes.
  void BeginSegment(PlanProfLevelInput input);
  void EndSegment(uint64_t input_rows, uint64_t candidates, uint64_t rows);
  /// Collects attribution and totals; the run becomes readable.
  void FinishRun();

  // -- Results --------------------------------------------------------------

  /// True once a run finished; a run that returned an error never does.
  bool has_run() const { return finished_; }
  const std::vector<PlanProfSegment>& segments() const { return segments_; }
  PlanProfSummary Summary() const;
  /// gamma.planprof.v1 JSON document (empty run => minimal document).
  std::string ToJson() const;

 private:
  gpusim::Device* device_ = nullptr;
  std::string kind_;
  std::string start_mode_;
  std::vector<int> order_;
  std::vector<PlanProfSegment> segments_;

  bool in_run_ = false;
  bool finished_ = false;
  bool attribution_available_ = false;
  bool partial_ = false;
  uint64_t dropped_commands_ = 0;
  double run_begin_cycles_ = 0;
  double total_cycles_ = 0;

  // Open-segment bookkeeping.
  bool segment_open_ = false;
  gpusim::DeviceStats seg_begin_stats_;
};

}  // namespace gpm::core

#endif  // GAMMA_CORE_PLAN_PROFILER_H_
