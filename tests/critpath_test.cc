// Tests for the gamma-prof critical-path analyzer: malformed-input
// rejection (forward dependency edges, unbalanced phase markers), the
// structural DAG property (every binding edge points backwards), span
// containment within phase windows, the bit-exact identity between
// critical-path length and the end-to-end clock on single-stream runs
// (and <= on multi-stream), the exact fold-sum decomposition of phase
// attributions, the what-if factor-1.0 identity projection, and window
// attribution: a reader-kept window of the log gets exactly the
// attribution Analyze gives a phase instance over the same interval.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "graph/generators.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "gpusim/resource_class.h"

namespace gpm::prof {
namespace {

using gpusim::kNumResourceClasses;
using gpusim::ResourceClass;
using gpusim::ResourceCycles;
using Kind = CommandRecord::Kind;

gpusim::SimParams RecordingParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 16ull << 20;
  p.record_commands = true;
  return p;
}

/// The canonical left-to-right fold every exact-sum assertion uses — the
/// same order Analyze closes residuals against.
double FoldSum(const ResourceCycles& a) {
  double s = 0.0;
  for (int c = 0; c < kNumResourceClasses; ++c) {
    s += a[static_cast<std::size_t>(c)];
  }
  return s;
}

/// The report's entry for phase `name`, or nullptr.
const PhaseBottleneck* FindPhase(const CritpathReport& report,
                                 const std::string& name) {
  for (const PhaseBottleneck& ph : report.phases) {
    if (ph.name == name) return &ph;
  }
  return nullptr;
}

CommandRecord HostWork(double start, double charge) {
  CommandRecord rec;
  rec.kind = Kind::kHostWork;
  rec.name = "host-work";
  rec.start = start;
  rec.end = start + charge;
  rec.charge = charge;
  return rec;
}

CommandRecord Marker(Kind kind, const std::string& name, double at) {
  CommandRecord rec;
  rec.kind = kind;
  rec.name = name;
  rec.start = at;
  rec.end = at;
  return rec;
}

TEST(CommandLogTest, CapacityDropsAndCountsExactly) {
  CommandLog log;
  log.set_enabled(true);
  log.set_capacity(2);
  EXPECT_GE(log.Append(HostWork(0, 10)), 0);
  EXPECT_GE(log.Append(HostWork(10, 10)), 0);
  EXPECT_EQ(log.Append(HostWork(20, 10)), -1);
  EXPECT_EQ(log.commands().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  log.Clear();
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_TRUE(log.commands().empty());
}

TEST(CommandLogTest, DisabledRecordsNothing) {
  CommandLog log;
  EXPECT_EQ(log.Append(HostWork(0, 10)), -1);
  EXPECT_TRUE(log.commands().empty());
  EXPECT_EQ(log.dropped(), 0u);  // disabled != dropped
}

TEST(CritpathAnalyzeTest, RejectsForwardWaitEdge) {
  CommandLog log;
  log.set_enabled(true);
  CommandRecord wait;
  wait.kind = Kind::kEventWait;
  wait.name = "wait-event";
  wait.wait_pred = 5;  // points past the end of the log
  log.Append(wait);
  auto analyzed = Analyze(log, {});
  ASSERT_FALSE(analyzed.ok());
  EXPECT_NE(analyzed.status().ToString().find("forward"), std::string::npos)
      << analyzed.status().ToString();
}

TEST(CritpathAnalyzeTest, RejectsForwardLinkEdge) {
  CommandLog log;
  log.set_enabled(true);
  CommandRecord copy;
  copy.kind = Kind::kCopy;
  copy.name = "h2d";
  copy.link_transfer = 8;
  copy.link_pred = 0;  // self-reference: still not strictly backwards
  log.Append(copy);
  auto analyzed = Analyze(log, {});
  ASSERT_FALSE(analyzed.ok());
  EXPECT_NE(analyzed.status().ToString().find("forward"), std::string::npos)
      << analyzed.status().ToString();
}

TEST(CritpathAnalyzeTest, RejectsUnbalancedPhaseMarkers) {
  {
    // End without a begin.
    CommandLog log;
    log.set_enabled(true);
    log.Append(Marker(Kind::kPhaseEnd, "lonely", 0));
    auto analyzed = Analyze(log, {});
    ASSERT_FALSE(analyzed.ok());
    EXPECT_NE(analyzed.status().ToString().find("unbalanced"),
              std::string::npos)
        << analyzed.status().ToString();
  }
  {
    // Begin that never closes.
    CommandLog log;
    log.set_enabled(true);
    log.Append(Marker(Kind::kPhaseBegin, "open", 0));
    log.Append(HostWork(0, 10));
    auto analyzed = Analyze(log, {});
    ASSERT_FALSE(analyzed.ok());
    EXPECT_NE(analyzed.status().ToString().find("never closed"),
              std::string::npos)
        << analyzed.status().ToString();
  }
  {
    // Interleaved (non-nesting) markers.
    CommandLog log;
    log.set_enabled(true);
    log.Append(Marker(Kind::kPhaseBegin, "a", 0));
    log.Append(Marker(Kind::kPhaseBegin, "b", 0));
    log.Append(Marker(Kind::kPhaseEnd, "a", 0));
    auto analyzed = Analyze(log, {});
    ASSERT_FALSE(analyzed.ok());
    EXPECT_NE(analyzed.status().ToString().find("nest"), std::string::npos)
        << analyzed.status().ToString();
  }
}

TEST(CritpathAnalyzeTest, HandBuiltSerialChainIsExact) {
  CommandLog log;
  log.set_enabled(true);
  log.Append(Marker(Kind::kPhaseBegin, "p", 0));
  log.Append(HostWork(0, 10));
  log.Append(HostWork(10, 5));
  log.Append(Marker(Kind::kPhaseEnd, "p", 15));
  auto analyzed = Analyze(log, {});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const CritpathReport& report = analyzed.value();
  EXPECT_EQ(report.critical_path_cycles, 15.0);
  EXPECT_EQ(report.resource_cycles[static_cast<std::size_t>(
                ResourceClass::kCompute)],
            15.0);
  EXPECT_EQ(FoldSum(report.resource_cycles), report.critical_path_cycles);
  ASSERT_NE(FindPhase(report, "p"), nullptr);
  EXPECT_EQ(FindPhase(report, "p")->cycles, 15.0);
  EXPECT_EQ(FoldSum(FindPhase(report, "p")->attribution), 15.0);
  EXPECT_EQ(FindPhase(report, "p")->binding, ResourceClass::kCompute);
  // Both real commands sit on the (only) chain: zero slack.
  for (const SpanInfo& s : report.spans) EXPECT_EQ(s.slack, 0.0);
  // Identity what-if reproduces the total exactly.
  ASSERT_FALSE(report.whatifs.empty());
  EXPECT_EQ(report.whatifs.front().cost_factor, 1.0);
  EXPECT_EQ(report.whatifs.front().projected_cycles,
            report.critical_path_cycles);
}

// A span's phase is the innermost phase its markers have open.
TEST(CritpathAnalyzeTest, SpanPhaseIsInnermostOpenMarker) {
  CommandLog log;
  log.set_enabled(true);
  log.Append(HostWork(0, 1));
  log.Append(Marker(Kind::kPhaseBegin, "outer", 1));
  log.Append(HostWork(1, 1));
  log.Append(Marker(Kind::kPhaseBegin, "inner", 2));
  log.Append(HostWork(2, 1));
  log.Append(Marker(Kind::kPhaseEnd, "inner", 3));
  log.Append(HostWork(3, 1));
  log.Append(Marker(Kind::kPhaseEnd, "outer", 4));
  log.Append(HostWork(4, 1));
  auto analyzed = Analyze(log, {});
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::vector<std::string> phases;
  for (const SpanInfo& s : analyzed.value().spans) phases.push_back(s.phase);
  EXPECT_EQ(phases, (std::vector<std::string>{"", "outer", "inner", "outer",
                                              ""}));
}

TEST(CritpathAnalyzeTest, PartialLogSuppressesWhatIfs) {
  // Cut between two commands.
  CommandLog between;
  between.set_enabled(true);
  between.set_capacity(1);
  between.Append(HostWork(0, 10));
  between.Append(HostWork(10, 10));  // dropped

  // Cut inside a phase: its end marker is dropped, so the log is a prefix
  // with an open phase, not a malformed log.
  CommandLog inside;
  inside.set_enabled(true);
  inside.set_capacity(5);
  inside.Append(Marker(Kind::kPhaseBegin, "closed", 0));
  inside.Append(HostWork(0, 10));
  inside.Append(Marker(Kind::kPhaseEnd, "closed", 10));
  inside.Append(Marker(Kind::kPhaseBegin, "cut", 10));
  inside.Append(HostWork(10, 10));
  inside.Append(HostWork(20, 10));                    // dropped
  inside.Append(Marker(Kind::kPhaseEnd, "cut", 30));  // dropped

  for (const CommandLog* log : {&between, &inside}) {
    ASSERT_GT(log->dropped(), 0u);
    auto analyzed = Analyze(*log, {});
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_TRUE(analyzed.value().partial);
    EXPECT_EQ(analyzed.value().dropped_commands, log->dropped());
    EXPECT_TRUE(analyzed.value().whatifs.empty());
  }

  // A phase closed before the cut keeps its exact entry; the phase open
  // at the cut gets none.
  auto analyzed = Analyze(inside, {});
  ASSERT_TRUE(analyzed.ok());
  const PhaseBottleneck* closed = FindPhase(analyzed.value(), "closed");
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(closed->cycles, 10.0);
  EXPECT_EQ(FoldSum(closed->attribution), 10.0);
  EXPECT_EQ(FindPhase(analyzed.value(), "cut"), nullptr);
}

/// Runs triangle counting through the engine on a recording device and
/// returns the analyzed report (asserting a complete log).
CritpathReport EngineReport(std::size_t streams, gpusim::Device* device) {
  Rng rng(42);
  graph::Graph g = graph::Rmat(10, 6000, &rng);
  core::GammaOptions options;
  if (streams > 1) {
    options.extension.num_streams = streams;
    options.sort.num_streams = streams;
  }
  core::GammaEngine engine(device, &g, options);
  EXPECT_TRUE(engine.Prepare().ok());
  auto result = core::CompiledEngine(&engine).Run(
      core::PatternCompiler(&g).CompileKClique(3, false).value());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(device->critpath().dropped(), 0u)
      << "raise the capacity: these assertions need a complete log";
  auto analyzed = Analyze(*device);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  return std::move(analyzed).value();
}

TEST(CritpathEngineTest, SingleStreamIdentityIsBitExact) {
  gpusim::Device device(RecordingParams());
  CritpathReport report = EngineReport(1, &device);
  EXPECT_FALSE(report.partial);

  // The acceptance identity: critical-path length equals the end-to-end
  // simulated cycle count with tolerance zero.
  EXPECT_EQ(report.critical_path_cycles, device.now_cycles());
  EXPECT_EQ(report.total_cycles, device.now_cycles());

  // Whole-run attribution folds exactly to the critical path.
  EXPECT_EQ(FoldSum(report.resource_cycles), report.critical_path_cycles);

  // Per-phase attribution folds exactly to each phase's wall cycles —
  // which in turn match the RunProfile's accounting for the same phase.
  ASSERT_FALSE(report.phases.empty());
  for (const PhaseBottleneck& ph : report.phases) {
    EXPECT_EQ(FoldSum(ph.attribution), ph.cycles) << ph.name;
    const gpusim::PhaseRecord* profiled = device.profile().Find(ph.name);
    ASSERT_NE(profiled, nullptr) << ph.name;
    EXPECT_EQ(ph.cycles, profiled->cycles) << ph.name;
    EXPECT_EQ(ph.invocations, profiled->invocations) << ph.name;
  }

  // What-if identity: factor 1.0 reproduces the actual cycles exactly.
  ASSERT_FALSE(report.whatifs.empty());
  EXPECT_EQ(report.whatifs.front().cost_factor, 1.0);
  EXPECT_EQ(report.whatifs.front().projected_cycles,
            report.critical_path_cycles);
  // Speedup what-ifs are lower bounds: never slower than actual.
  for (const WhatIf& wi : report.whatifs) {
    EXPECT_LE(wi.projected_cycles, report.critical_path_cycles)
        << gpusim::ResourceClassName(wi.resource);
  }
}

TEST(CritpathEngineTest, DagIsAcyclicAndSpansNestInPhases) {
  gpusim::Device device(RecordingParams());
  CritpathReport report = EngineReport(1, &device);

  // Structural DAG property: every dependency edge points backwards.
  for (const SpanInfo& s : report.spans) {
    EXPECT_LT(s.binding_pred, s.index);
    EXPECT_GE(s.start, 0.0);
    EXPECT_LE(s.end, report.total_cycles);
    EXPECT_LE(s.start, s.end);
    EXPECT_GE(s.slack, 0.0);
  }

  // Child spans are contained in their parent phase window: every command
  // tagged with a phase lies inside one of that phase's marker windows.
  const std::vector<CommandRecord>& cmds = device.critpath().commands();
  struct Window {
    std::string name;
    double begin = 0;
    double end = 0;
  };
  std::vector<Window> windows;
  std::vector<Window> open;
  for (const CommandRecord& rec : cmds) {
    if (rec.kind == Kind::kPhaseBegin) {
      open.push_back({rec.name, rec.start, 0});
    } else if (rec.kind == Kind::kPhaseEnd) {
      ASSERT_FALSE(open.empty());
      open.back().end = rec.start;
      windows.push_back(open.back());
      open.pop_back();
    }
  }
  ASSERT_TRUE(open.empty());
  ASSERT_FALSE(windows.empty());
  int contained = 0;
  for (const SpanInfo& s : report.spans) {
    if (s.phase.empty()) continue;
    bool found = false;
    for (const Window& win : windows) {
      if (win.name == s.phase && win.begin <= s.start && s.end <= win.end) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "span " << s.index << " (" << s.name << ") ["
                       << s.start << ", " << s.end
                       << "] escapes its phase '" << s.phase << "'";
    ++contained;
  }
  EXPECT_GT(contained, 0);

  // The critical path itself is ordered and ends at the sink.
  ASSERT_FALSE(report.critical_path.empty());
  for (std::size_t i = 1; i < report.critical_path.size(); ++i) {
    EXPECT_LT(report.critical_path[i - 1], report.critical_path[i]);
  }
}

TEST(CritpathEngineTest, MultiStreamPathBoundedByTotal) {
  gpusim::Device device(RecordingParams());
  CritpathReport report = EngineReport(4, &device);
  EXPECT_GT(report.streams, 1);
  EXPECT_LE(report.critical_path_cycles, device.now_cycles());
  EXPECT_EQ(FoldSum(report.resource_cycles), report.critical_path_cycles);
}

TEST(CritpathEngineTest, ReportJsonCarriesSchemaAndIdentity) {
  gpusim::Device device(RecordingParams());
  CritpathReport report = EngineReport(1, &device);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\": \"gamma.critpath.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"whatif\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"sync_idle\""), std::string::npos);
}

// --- Window attribution --------------------------------------------------

// Every PhaseScope instance, read as a window between its markers, gets
// the attribution Analyze gives a phase that ran once, bit for bit.
TEST(AttributeWindowsTest, PhaseScopeWindowsMatchAnalyze) {
  gpusim::Device device(RecordingParams());
  CritpathReport report = EngineReport(1, &device);
  const std::vector<CommandRecord>& cmds = device.critpath().commands();
  std::vector<LogWindow> windows;
  std::vector<std::string> names;
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    if (cmds[i].kind == Kind::kPhaseBegin) open.push_back(i);
    if (cmds[i].kind != Kind::kPhaseEnd) continue;
    windows.push_back(
        {open.back(), i, cmds[open.back()].start, cmds[i].start, true});
    names.push_back(cmds[i].name);
    open.pop_back();
  }
  auto attributed = AttributeWindows(device.critpath(), windows);
  ASSERT_TRUE(attributed.ok()) << attributed.status().ToString();
  ASSERT_EQ(attributed.value().size(), windows.size());
  int single = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const PhaseBottleneck& got = attributed.value()[w];
    EXPECT_EQ(got.invocations, 1u) << names[w];
    EXPECT_EQ(FoldSum(got.attribution), got.cycles) << names[w];
    const PhaseBottleneck* ph = FindPhase(report, names[w]);
    ASSERT_NE(ph, nullptr) << names[w];
    if (ph->invocations != 1) continue;
    ++single;
    EXPECT_EQ(got.cycles, ph->cycles) << names[w];
    EXPECT_TRUE(got.attribution == ph->attribution) << names[w];
    EXPECT_EQ(got.binding, ph->binding) << names[w];
  }
  EXPECT_GT(single, 0) << "the run needs a phase that ran once";
}

// A window ends where the log stood at its close: a later command on
// another stream that ends after the window is not its sink.
TEST(AttributeWindowsTest, WindowEndsAtItsClose) {
  CommandLog log;
  log.set_enabled(true);
  log.Append(HostWork(0, 10));
  CommandRecord later = HostWork(5, 10);
  later.stream = 1;
  log.Append(later);
  auto attributed = AttributeWindows(log, {{0, 1, 0, 10, true}});
  ASSERT_TRUE(attributed.ok()) << attributed.status().ToString();
  const PhaseBottleneck& ph = attributed.value()[0];
  EXPECT_EQ(ph.invocations, 1u);
  EXPECT_EQ(ph.cycles, 10.0);
  EXPECT_EQ(ph.attribution[static_cast<std::size_t>(ResourceClass::kCompute)],
            10.0);
  EXPECT_EQ(FoldSum(ph.attribution), 10.0);
  EXPECT_EQ(ph.binding, ResourceClass::kCompute);
}

// Only a window that closed before the log's cut is attributed.
TEST(AttributeWindowsTest, WindowClosedAfterCutIsNotAttributed) {
  CommandLog log;
  log.set_enabled(true);
  log.set_capacity(2);
  log.Append(HostWork(0, 10));
  const LogWindow before{0, log.commands().size(), 0, 10,
                         log.dropped() == 0};
  log.Append(HostWork(10, 10));
  log.Append(HostWork(20, 10));  // dropped
  const LogWindow after{1, log.commands().size(), 10, 30,
                        log.dropped() == 0};
  ASSERT_TRUE(before.complete);
  ASSERT_FALSE(after.complete);
  auto attributed = AttributeWindows(log, {before, after});
  ASSERT_TRUE(attributed.ok()) << attributed.status().ToString();
  EXPECT_EQ(attributed.value()[0].invocations, 1u);
  EXPECT_EQ(FoldSum(attributed.value()[0].attribution), 10.0);
  EXPECT_EQ(attributed.value()[1].invocations, 0u);
  EXPECT_EQ(FoldSum(attributed.value()[1].attribution), 0.0);
}

TEST(AttributeWindowsTest, RejectsForwardEdges) {
  CommandLog log;
  log.set_enabled(true);
  CommandRecord wait;
  wait.kind = Kind::kEventWait;
  wait.name = "wait-event";
  wait.wait_pred = 5;
  log.Append(wait);
  auto attributed = AttributeWindows(log, {{0, 1, 0, 0, true}});
  ASSERT_FALSE(attributed.ok());
  EXPECT_NE(attributed.status().ToString().find("forward"),
            std::string::npos)
      << attributed.status().ToString();
}

}  // namespace
}  // namespace gpm::prof
