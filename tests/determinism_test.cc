// Determinism guarantees of the simulated device:
//
//  * running the same workload twice in one process yields bit-identical
//    hardware counters and cycle totals (no hidden global state, no
//    address- or hash-order-dependent arithmetic), and
//  * running warp tasks on a host thread pool (SimParams::host_threads)
//    changes nothing: the record/replay executor must reproduce the
//    serial schedule's counters and cycles bit-for-bit, and its pattern
//    tables down to each exemplar's vertex numbering, whatever
//    interleaving the pool picked.
//
// Also pins the stream attribution of count-only extension kernels: they
// launch on the pipeline's compute stream like every other extension
// strategy, not on the default stream (a regression a trace comparison
// catches but aggregate counters cannot).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "baselines/cpu_ref.h"
#include "core/compiled_engine.h"
#include "core/extension.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "core/pattern_table.h"
#include "graph/canonical.h"
#include "graph/generators.h"
#include "graph/pattern.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"

namespace gpm {
namespace {

gpusim::SimParams TestParams(int host_threads) {
  gpusim::SimParams p;
  p.device_memory_bytes = 16 << 20;
  p.um_device_buffer_bytes = 2 << 20;
  p.host_threads = host_threads;
  return p;
}

graph::Graph TestGraph() {
  Rng rng(7);
  graph::Graph g = graph::ErdosRenyi(80, 400, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.3, &rng);
  g.EnsureEdgeIndex();
  return g;
}

enum class Algo { kKcl, kMotif, kFpm, kSm };

const char* AlgoName(Algo a) {
  switch (a) {
    case Algo::kKcl:
      return "kcl";
    case Algo::kMotif:
      return "motif";
    case Algo::kFpm:
      return "fpm";
    case Algo::kSm:
      return "sm";
  }
  return "?";
}

struct RunOutcome {
  gpusim::DeviceStats stats;
  double cycles = 0;
  uint64_t embeddings = 0;
  // FPM: the pattern table, in entry order. Motif census: one entry per
  // census row (exemplar, instance count), coded canonically.
  std::vector<core::PatternEntry> patterns;
};

Result<core::CompiledPlan> CompileAlgo(Algo algo, const graph::Graph& g) {
  core::PatternCompiler compiler(&g);
  switch (algo) {
    case Algo::kKcl:
      return compiler.CompileKClique(4, false);
    case Algo::kMotif:
      return compiler.CompileMotifCensus(3);
    case Algo::kFpm:
      return compiler.CompileFpm(/*max_edges=*/3, /*min_support=*/20);
    case Algo::kSm:
      return compiler.CompileMatch(
          graph::Pattern::SmQuery(1, g.num_labels()), {});
  }
  return Status::Internal("unknown algorithm");
}

// Every primitive call lands in exactly one engine phase, so the phase
// records tile the run: each counter's phase deltas sum exactly to its
// total, and the phase cycles sum to the clock up to rounding.
void ExpectPhasesTileRun(const gpusim::Device& device,
                         const std::string& label) {
  gpusim::DeviceStats sum;
  double cycles = 0;
  for (const gpusim::PhaseRecord& ph : device.profile().phases()) {
    for (const auto& f : gpusim::DeviceStats::Fields()) {
      sum.*f.member += ph.delta.*f.member;
    }
    cycles += ph.cycles;
  }
  for (const auto& f : gpusim::DeviceStats::Fields()) {
    EXPECT_EQ(sum.*f.member, device.stats().*f.member)
        << label << ": counter " << f.name << " is not tiled by the phases";
  }
  EXPECT_NEAR(cycles, device.now_cycles(), 1e-9 * device.now_cycles())
      << label << ": phase cycles do not tile the clock";
}

// Runs one algorithm end-to-end on a fresh device and returns the final
// counters and clock.
RunOutcome RunAlgo(Algo algo, const graph::Graph& g, int host_threads) {
  auto plan = CompileAlgo(algo, g);
  gpusim::Device device(TestParams(host_threads));
  core::GammaEngine engine(&device, &g, {});
  EXPECT_TRUE(engine.Prepare().ok());
  EXPECT_TRUE(plan.ok());
  auto run = core::CompiledEngine(&engine).Run(plan.value());
  EXPECT_TRUE(run.ok());
  ExpectPhasesTileRun(device, AlgoName(algo));
  RunOutcome out{device.stats().Snapshot(), device.now_cycles(), 0, {}};
  if (!run.ok()) return out;
  out.embeddings = run.value().embeddings;
  out.patterns = run.value().patterns.entries();
  for (const auto& [shape, count] : run.value().motifs) {
    out.patterns.push_back(
        {.code = graph::CanonicalCode(shape), .exemplar = shape,
         .support = count});
  }
  return out;
}

void ExpectBitIdentical(const RunOutcome& a, const RunOutcome& b,
                        const std::string& label) {
  for (const auto& f : gpusim::DeviceStats::Fields()) {
    EXPECT_EQ(a.stats.*f.member, b.stats.*f.member)
        << label << ": counter " << f.name << " diverged";
  }
  // Exact double equality on purpose: the determinism contract is
  // bit-identity of the cycle arithmetic, not closeness.
  EXPECT_EQ(a.cycles, b.cycles) << label << ": clock diverged";
  // Pattern tables match entry for entry: code, support, validity and the
  // exemplar's exact vertex numbering, which gamma_cli prints.
  ASSERT_EQ(a.patterns.size(), b.patterns.size()) << label;
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    const core::PatternEntry& x = a.patterns[i];
    const core::PatternEntry& y = b.patterns[i];
    EXPECT_EQ(x.code, y.code) << label << ": entry " << i;
    EXPECT_EQ(x.support, y.support) << label << ": entry " << i;
    EXPECT_EQ(x.valid, y.valid) << label << ": entry " << i;
    EXPECT_TRUE(x.exemplar == y.exemplar)
        << label << ": entry " << i << " exemplar "
        << x.exemplar.DebugString() << " vs " << y.exemplar.DebugString();
  }
}

TEST(DeterminismTest, DoubleRunIsBitIdentical) {
  graph::Graph g = TestGraph();
  for (Algo algo : {Algo::kKcl, Algo::kMotif, Algo::kFpm, Algo::kSm}) {
    RunOutcome first = RunAlgo(algo, g, /*host_threads=*/1);
    RunOutcome second = RunAlgo(algo, g, /*host_threads=*/1);
    ExpectBitIdentical(first, second,
                       std::string(AlgoName(algo)) + " serial double-run");
  }
}

// At 3 threads the window (64 slots per thread) is not a power of two and
// launches end mid-block; 2 is the benchmark's threaded setting.
constexpr int kPoolSizes[] = {2, 3, 4};

TEST(DeterminismTest, HostThreadPoolIsBitIdentical) {
  graph::Graph g = TestGraph();
  for (Algo algo : {Algo::kKcl, Algo::kMotif, Algo::kFpm, Algo::kSm}) {
    RunOutcome serial = RunAlgo(algo, g, /*host_threads=*/1);
    // The aggregation map codes rows on every pool thread, each task with
    // its own pattern memo and exemplars.
    if (algo == Algo::kFpm || algo == Algo::kMotif) {
      EXPECT_FALSE(serial.patterns.empty()) << AlgoName(algo);
    }
    for (int host_threads : kPoolSizes) {
      RunOutcome pooled = RunAlgo(algo, g, host_threads);
      ExpectBitIdentical(serial, pooled,
                         std::string(AlgoName(algo)) + " 1 vs " +
                             std::to_string(host_threads) + " host threads");
    }
  }
}

// Pre-merge groups mark their hoisted prefix in a scratch bitmap that
// each host thread keeps across runs, sized for the largest graph it has
// seen and unmarked word by word, never cleared wholesale. A large graph,
// a small one, then the large one again must leave no mark behind, on one
// thread and on pools: counts match the CPU oracle, and the counters and
// clock match the serial run and the large graph's first run. The large
// graph's kcl-4 launches span many executor windows.
TEST(DeterminismTest, ScratchBitmapCarriesNothingAcrossRuns) {
  Rng rng(11);
  const graph::Graph large = graph::PowerLaw(3000, 24000, 0.6, &rng);
  const graph::Graph small = TestGraph();
  const graph::Graph* graphs[] = {&large, &small, &large};
  std::vector<RunOutcome> serial;
  for (int host_threads : {1, 2, 3, 4}) {
    for (std::size_t i = 0; i < std::size(graphs); ++i) {
      const graph::Graph& g = *graphs[i];
      const std::string label = "run " + std::to_string(i) + " at " +
                                std::to_string(host_threads) + " threads";
      RunOutcome run = RunAlgo(Algo::kKcl, g, host_threads);
      EXPECT_EQ(run.embeddings, baselines::CpuKClique(g, 4, {}).count)
          << label;
      if (host_threads == 1) {
        serial.push_back(run);
      } else {
        ExpectBitIdentical(serial[i], run, label + " vs serial");
      }
    }
  }
  ExpectBitIdentical(serial[0], serial[2], "large graph, first vs last run");
}

// Extension results cross from a task's recording to its replay in emit
// slots that tasks and launches reuse: task t of a launch fills slot
// t % task_window(). Every write strategy, with and without pre-merge, at
// rows_per_warp 1 and 16, through vertex extensions (two materializing
// levels, then a count-only one) and an edge extension. At rows_per_warp 1
// the launches run thousands of tasks, far more than the 256 slots of
// four host threads; small chunks make each extension several launches;
// and most rows of the clique levels emit nothing. The tables, counters,
// clock and command log must be bit-identical to one thread.
struct SlotRun {
  gpusim::DeviceStats stats;
  double cycles = 0;
  std::size_t counted = 0;
  std::vector<std::vector<core::Unit>> vertex_rows;
  std::vector<std::vector<core::Unit>> edge_rows;
  std::vector<prof::CommandRecord> commands;
};

SlotRun RunExtensions(const graph::Graph& g, core::WriteStrategy strategy,
                      bool pre_merge, std::size_t rows_per_warp,
                      int host_threads) {
  gpusim::SimParams params = TestParams(host_threads);
  params.record_commands = true;
  gpusim::Device device(params);
  core::GammaOptions options;
  options.extension.write_strategy = strategy;
  options.extension.pre_merge = pre_merge;
  options.extension.rows_per_warp = rows_per_warp;
  options.extension.chunk_rows = 1500;
  core::GammaEngine engine(&device, &g, options);
  EXPECT_TRUE(engine.Prepare().ok());
  SlotRun out;
  auto vt = engine.InitVertexTable();
  EXPECT_TRUE(vt.ok());
  if (!vt.ok()) return out;
  for (int len = 1; len <= 3; ++len) {
    core::CompiledLevel level;
    for (int j = 0; j < len; ++j) level.intersect_positions.push_back(j);
    level.require_ascending = true;
    level.count_only = len == 3;
    auto r = engine.VertexExtension(vt.value().get(), level);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok() && level.count_only) out.counted = r.value().results;
  }
  out.vertex_rows = vt.value()->Materialize();
  auto et = engine.InitEdgeTable();
  EXPECT_TRUE(et.ok());
  if (!et.ok()) return out;
  auto r = engine.EdgeExtension(et.value().get(), core::EdgeExtensionSpec{});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  out.edge_rows = et.value()->Materialize();
  out.stats = device.stats().Snapshot();
  out.cycles = device.now_cycles();
  out.commands = device.critpath().commands();
  return out;
}

void ExpectSameCommands(const std::vector<prof::CommandRecord>& a,
                        const std::vector<prof::CommandRecord>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const prof::CommandRecord& x = a[i];
    const prof::CommandRecord& y = b[i];
    const std::string at = label + ": command " + std::to_string(i);
    EXPECT_EQ(x.kind, y.kind) << at;
    EXPECT_EQ(x.stream, y.stream) << at;
    EXPECT_EQ(x.name, y.name) << at;
    EXPECT_EQ(x.phase, y.phase) << at;
    EXPECT_EQ(x.start, y.start) << at;
    EXPECT_EQ(x.end, y.end) << at;
    EXPECT_EQ(x.makespan, y.makespan) << at;
    EXPECT_TRUE(x.busy == y.busy) << at;
    EXPECT_EQ(x.charge, y.charge) << at;
    EXPECT_EQ(x.link_transfer, y.link_transfer) << at;
    EXPECT_EQ(x.link_start, y.link_start) << at;
    EXPECT_EQ(x.link_end, y.link_end) << at;
    EXPECT_EQ(x.slot_busy_cycles, y.slot_busy_cycles) << at;
    EXPECT_EQ(x.tasks, y.tasks) << at;
    EXPECT_EQ(x.task_max_cycles, y.task_max_cycles) << at;
    EXPECT_EQ(x.task_total_cycles, y.task_total_cycles) << at;
  }
}

TEST(DeterminismTest, EmitSlotReuseIsBitIdentical) {
  Rng rng(13);
  graph::Graph g = graph::PowerLaw(1500, 9000, 0.6, &rng);
  g.EnsureEdgeIndex();
  for (core::WriteStrategy strategy :
       {core::WriteStrategy::kNaiveTwoPass, core::WriteStrategy::kPreAlloc,
        core::WriteStrategy::kDynamicAlloc}) {
    for (bool pre_merge : {false, true}) {
      for (std::size_t rows_per_warp : {std::size_t{1}, std::size_t{16}}) {
        const std::string config =
            std::string(core::WriteStrategyName(strategy)) +
            (pre_merge ? ", pre-merge" : "") + ", rows_per_warp " +
            std::to_string(rows_per_warp);
        const SlotRun serial =
            RunExtensions(g, strategy, pre_merge, rows_per_warp, 1);
        EXPECT_EQ(serial.counted, baselines::CpuKClique(g, 4, {}).count)
            << config;
        EXPECT_FALSE(serial.vertex_rows.empty()) << config;
        EXPECT_FALSE(serial.edge_rows.empty()) << config;
        for (int host_threads : kPoolSizes) {
          const std::string label = config + ", 1 vs " +
                                    std::to_string(host_threads) +
                                    " host threads";
          const SlotRun pooled =
              RunExtensions(g, strategy, pre_merge, rows_per_warp,
                            host_threads);
          for (const auto& f : gpusim::DeviceStats::Fields()) {
            EXPECT_EQ(serial.stats.*f.member, pooled.stats.*f.member)
                << label << ": counter " << f.name << " diverged";
          }
          EXPECT_EQ(serial.cycles, pooled.cycles) << label;
          EXPECT_EQ(serial.counted, pooled.counted) << label;
          EXPECT_TRUE(serial.vertex_rows == pooled.vertex_rows) << label;
          EXPECT_TRUE(serial.edge_rows == pooled.edge_rows) << label;
          ExpectSameCommands(serial.commands, pooled.commands, label);
        }
      }
    }
  }
}

// With the double-buffered pipeline (num_streams >= 2) every extension
// kernel belongs on the compute stream. Count-only launches used to go
// through the synchronous default-stream API, which skewed stream clocks
// and trace attribution relative to the materializing strategies.
TEST(DeterminismTest, CountOnlyExtensionRunsOnComputeStream) {
  graph::Graph g = TestGraph();
  gpusim::Device device(TestParams(/*host_threads=*/1));
  device.trace().set_enabled(true);
  core::GammaOptions options;
  options.extension.num_streams = 2;
  core::GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(core::CompiledEngine(&engine)
                  .Run(core::PatternCompiler(&g)
                           .CompileKClique(3, /*count_only_last=*/true)
                           .value())
                  .ok());

  std::set<int> count_only_tracks;
  std::set<int> materializing_tracks;
  for (const auto& e : device.trace().events()) {
    if (e.kind != gpusim::TraceRecorder::Kind::kKernel) continue;
    if (e.name == "extension-count-only") count_only_tracks.insert(e.track);
    if (e.name == "extension-dynamic") materializing_tracks.insert(e.track);
  }
  ASSERT_FALSE(count_only_tracks.empty());
  ASSERT_FALSE(materializing_tracks.empty());
  EXPECT_EQ(count_only_tracks, materializing_tracks)
      << "count-only extension kernels must share the materializing "
         "strategies' compute stream";
}

}  // namespace
}  // namespace gpm
