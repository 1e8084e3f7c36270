// Plan-profiler tests: per-level actual rows/candidates and Q-error are
// checked against hand-computed ground truth on tiny fixture graphs for
// all four workload presets (k-clique, motif census, FPM, subgraph
// matching) plus a labeled SM query; the observation-only contract is
// enforced (a profiled run is bit-identical in cycles and every
// DeviceStats counter to an unprofiled one, and its critpath document is
// byte-identical); the gamma.planprof.v1 document is parsed back and
// cross-checked; a failed run never finishes; and an overflowed log
// attributes only the windows closed before its cut.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "core/plan_profiler.h"
#include "graph/csr.h"
#include "graph/pattern.h"
#include "gpusim/critpath.h"
#include "gpusim/device.h"
#include "gpusim/resource_class.h"
#include "gpusim/sim_params.h"
#include "minijson.h"

namespace gpm::core {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 1 << 20;
  return p;
}

// K4 on {0,1,2,3} plus a pendant vertex 4 attached to 0.
//   |V| = 5, |E| = 7, degrees = {4, 3, 3, 3, 1}.
//   Triangles: the 4 inside K4. Wedges (2-edge connected sets):
//   sum_v C(deg(v), 2) = 6 + 3*3 + 0 = 15.
graph::Graph PendantK4() {
  graph::Graph g = graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 4}});
  g.EnsureEdgeIndex();
  return g;
}

// A labeled triangle query fixture: triangle {0,1,2} labeled (0,1,2) and
// a second label-1 vertex 3 adjacent to 0 and 2, closing a second
// labeled triangle (0,3,2).
//   N(0)={1,2,3}  N(1)={0,2}  N(2)={0,1,3}  N(3)={0,2}
graph::Graph LabeledTwoTriangles() {
  graph::Graph g = graph::Graph::FromEdges(
      4, {{0, 1}, {0, 2}, {1, 2}, {0, 3}, {2, 3}});
  g.SetLabels({0, 1, 2, 1});
  g.EnsureEdgeIndex();
  return g;
}

// The profiler's Q-error convention, applied by hand: both sides clamped
// at one row.
double HandQ(double est, double act) {
  const double e = std::max(est, 1.0);
  const double a = std::max(act, 1.0);
  return std::max(e / a, a / e);
}

// Engine with an attached profiler (and command-log recording, so the
// attribution path is exercised too).
struct ProfiledRun {
  gpusim::Device device;
  GammaEngine engine;

  explicit ProfiledRun(const graph::Graph& g, bool profile = true,
                       gpusim::SimParams params = TestParams())
      : device(params),
        engine(&device, &g, [&] {
          GammaOptions o;
          o.plan_profile = profile;
          return o;
        }()) {
    device.critpath().set_enabled(true);
    EXPECT_TRUE(engine.Prepare().ok());
  }

  PlanProfiler* prof() { return engine.plan_profiler(); }

  Result<CompiledRunResult> Run(const Result<CompiledPlan>& plan) {
    if (!plan.ok()) return plan.status();
    return CompiledEngine(&engine).Run(plan.value());
  }
};

// --- Hand-computed actuals, preset by preset --------------------------------

TEST(PlanProfTest, KCliqueLevelsMatchHandCounts) {
  graph::Graph g = PendantK4();
  ProfiledRun run(g);
  auto r = run.Run(PatternCompiler(&g).CompileKClique(3, false));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().embeddings, 4u);

  PlanProfiler* prof = run.prof();
  ASSERT_NE(prof, nullptr);
  ASSERT_TRUE(prof->has_run());
  const auto& segs = prof->segments();
  ASSERT_EQ(segs.size(), 3u);  // start, L1, L2

  // start: one row per vertex.
  EXPECT_EQ(segs[0].label, "start");
  EXPECT_EQ(segs[0].rows, 5u);

  // L1: candidates = every directed arc (sum of degrees = 2|E| = 14),
  // ascending filter keeps one orientation per edge.
  EXPECT_EQ(segs[1].label, "L1");
  EXPECT_EQ(segs[1].depth, 1);
  EXPECT_EQ(segs[1].input_rows, 5u);
  EXPECT_EQ(segs[1].candidates, 14u);
  EXPECT_EQ(segs[1].rows, 7u);
  EXPECT_DOUBLE_EQ(segs[1].selectivity, 7.0 / 14.0);
  EXPECT_EQ(segs[1].intersect_width, 1);

  // L2: per edge (u<v), |N(u) ∩ N(v)| — 2 for each of the 6 K4 edges,
  // 0 for the pendant edge — and the ascending filter keeps each
  // triangle once.
  EXPECT_EQ(segs[2].label, "L2");
  EXPECT_EQ(segs[2].input_rows, 7u);
  EXPECT_EQ(segs[2].candidates, 12u);
  EXPECT_EQ(segs[2].rows, 4u);
  EXPECT_EQ(segs[2].intersect_width, 2);

  // Q-error: the reported value must be exactly the hand-applied formula
  // over the plan's own estimate and the hand-counted actual.
  for (const PlanProfSegment& seg : segs) {
    if (seg.has_estimate) {
      EXPECT_EQ(seg.q_error,
                HandQ(seg.est_rows, static_cast<double>(seg.rows)))
          << seg.label;
      EXPECT_GE(seg.q_error, 1.0) << seg.label;
    } else {
      EXPECT_EQ(seg.q_error, 0.0) << seg.label;
    }
  }
}

TEST(PlanProfTest, MotifLevelsMatchHandCounts) {
  graph::Graph g = PendantK4();
  ProfiledRun run(g);
  auto r = run.Run(PatternCompiler(&g).CompileMotifCensus(3));
  ASSERT_TRUE(r.ok());

  PlanProfiler* prof = run.prof();
  ASSERT_TRUE(prof->has_run());
  const auto& segs = prof->segments();
  ASSERT_EQ(segs.size(), 4u);  // start, L1, L2, aggregate

  EXPECT_EQ(segs[0].rows, 5u);

  // L1: union extension over position 0 — N(v0) — so candidates are the
  // 14 directed arcs, all injective.
  EXPECT_EQ(segs[1].candidates, 14u);
  EXPECT_EQ(segs[1].rows, 14u);
  EXPECT_TRUE(segs[1].union_extension);

  // L2: per ordered adjacent pair, |N(u) ∪ N(v)| (u and v are both in
  // the union and removed by injectivity). Unordered unions: 5 for the
  // four edges touching vertex 0, 4 for the three K4 edges among
  // {1,2,3}; doubled for orientation = 64 candidates, 64 - 2*14 = 36
  // connected ordered triples.
  EXPECT_EQ(segs[2].candidates, 64u);
  EXPECT_EQ(segs[2].rows, 36u);

  // aggregate: triangle + wedge = 2 pattern-table entries from the 36
  // ordered prefixes.
  EXPECT_EQ(segs[3].label, "aggregate");
  EXPECT_EQ(segs[3].input_rows, 36u);
  EXPECT_EQ(segs[3].rows, 2u);
}

TEST(PlanProfTest, FpmIterationsMatchHandCounts) {
  graph::Graph g = PendantK4();
  ProfiledRun run(g);
  auto r = run.Run(PatternCompiler(&g).CompileFpm(2, 2));
  ASSERT_TRUE(r.ok());

  PlanProfiler* prof = run.prof();
  ASSERT_TRUE(prof->has_run());
  const auto& segs = prof->segments();
  ASSERT_EQ(segs.size(), 3u);  // start, it1, it2

  // start: the edge table, one row per undirected edge.
  EXPECT_EQ(segs[0].label, "start");
  EXPECT_EQ(segs[0].rows, 7u);

  // it1: the single-edge pattern is frequent (support 7 >= 2), and the
  // extension materializes each connected 2-edge set once = 15 wedges.
  EXPECT_EQ(segs[1].label, "it1");
  EXPECT_EQ(segs[1].input_rows, 7u);
  EXPECT_EQ(segs[1].rows, 15u);
  EXPECT_GE(segs[1].candidates, 15u);

  // it2: final audit round, no extension.
  EXPECT_EQ(segs[2].label, "it2");
  EXPECT_EQ(segs[2].input_rows, 15u);
  EXPECT_EQ(segs[2].candidates, 0u);
  EXPECT_EQ(segs[2].rows, 15u);

  // FPM has no cardinality model, so no segment carries an estimate and
  // the summary's worst-Q is identically zero.
  for (const PlanProfSegment& seg : segs) {
    EXPECT_FALSE(seg.has_estimate);
    EXPECT_EQ(seg.q_error, 0.0);
  }
  EXPECT_EQ(prof->Summary().worst_q_error, 0.0);
}

TEST(PlanProfTest, LabeledSmQueryMatchesHandCounts) {
  graph::Graph g = LabeledTwoTriangles();
  graph::Pattern q = graph::Pattern::Triangle();
  q.SetLabel(0, 0);
  q.SetLabel(1, 1);
  q.SetLabel(2, 2);

  ProfiledRun run(g);
  auto r = run.Run(PatternCompiler(&g).CompileMatch(q, {}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().embeddings, 2u);

  PlanProfiler* prof = run.prof();
  ASSERT_TRUE(prof->has_run());
  const auto& segs = prof->segments();
  ASSERT_EQ(segs.size(), 3u);

  // start: only vertex 0 carries label 0.
  EXPECT_EQ(segs[0].rows, 1u);

  // L1: candidates = N(0) = {1,2,3}; the label-1 filter keeps {1,3}.
  EXPECT_EQ(segs[1].candidates, 3u);
  EXPECT_EQ(segs[1].rows, 2u);

  // L2: |N(0) ∩ N(1)| = |{2}| and |N(0) ∩ N(3)| = |{2}|; vertex 2
  // carries label 2, so both survive.
  EXPECT_EQ(segs[2].input_rows, 2u);
  EXPECT_EQ(segs[2].candidates, 2u);
  EXPECT_EQ(segs[2].rows, 2u);

  // Strategy provenance: no per-level plan overrides here, so every
  // vertex level inherits the engine's options.
  for (std::size_t i = 1; i < segs.size(); ++i) {
    ASSERT_TRUE(segs[i].has_strategy);
    EXPECT_FALSE(segs[i].strategy.write_strategy_from_plan);
    EXPECT_FALSE(segs[i].strategy.pre_merge_from_plan);
    EXPECT_EQ(segs[i].strategy.write_strategy, "dynamic-alloc");
  }
}

// --- The observation-only contract ------------------------------------------

struct RunFingerprint {
  uint64_t count = 0;
  double now_cycles = 0;
  gpusim::DeviceStats stats;
};

RunFingerprint FingerprintKClique(const graph::Graph& g, bool profile) {
  ProfiledRun run(g, profile);
  auto r = run.Run(PatternCompiler(&g).CompileKClique(3, false));
  EXPECT_TRUE(r.ok());
  RunFingerprint fp;
  fp.count = r.ok() ? r.value().embeddings : 0;
  fp.now_cycles = run.device.now_cycles();
  fp.stats = run.device.stats().Snapshot();
  return fp;
}

TEST(PlanProfTest, ProfilerOnOffIsBitIdentical) {
  graph::Graph g = PendantK4();
  RunFingerprint off = FingerprintKClique(g, /*profile=*/false);
  RunFingerprint on = FingerprintKClique(g, /*profile=*/true);

  EXPECT_EQ(off.count, on.count);
  // Bit-identical clock: no tolerance of any kind.
  EXPECT_EQ(off.now_cycles, on.now_cycles);
  // Every DeviceStats counter, enumerated so new counters cannot escape
  // the contract.
  for (const auto& f : gpusim::DeviceStats::Fields()) {
    EXPECT_EQ(off.stats.*(f.member), on.stats.*(f.member)) << f.name;
  }
}

// --- Attribution, imbalance, and the JSON document --------------------------

TEST(PlanProfTest, AttributionFoldsExactlyToSegmentCycles) {
  graph::Graph g = PendantK4();
  ProfiledRun run(g);
  auto r = run.Run(PatternCompiler(&g).CompileKClique(3, false));
  ASSERT_TRUE(r.ok());

  PlanProfiler* prof = run.prof();
  ASSERT_TRUE(prof->has_run());
  for (const PlanProfSegment& seg : prof->segments()) {
    ASSERT_TRUE(seg.attributed) << seg.label;
    double fold = 0.0;
    for (int c = 0; c < gpusim::kNumResourceClasses; ++c) {
      fold += seg.attribution[static_cast<std::size_t>(c)];
    }
    EXPECT_EQ(fold, seg.cycles) << seg.label;
    // The slot histogram is consistent: max/mean reproduce the stored
    // extremes and the imbalance ratio.
    if (seg.slot_max_cycles > 0) {
      EXPECT_EQ(seg.imbalance, seg.slot_max_cycles / seg.slot_mean_cycles)
          << seg.label;
      EXPECT_GE(seg.imbalance, 1.0) << seg.label;
    } else {
      EXPECT_EQ(seg.imbalance, 0.0) << seg.label;
    }
  }
}

TEST(PlanProfTest, JsonDocumentRoundTrips) {
  graph::Graph g = PendantK4();
  ProfiledRun run(g);
  auto r = run.Run(PatternCompiler(&g).CompileKClique(3, false));
  ASSERT_TRUE(r.ok());

  PlanProfiler* prof = run.prof();
  ASSERT_TRUE(prof->has_run());
  const std::string json = prof->ToJson();
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parser(json).Parse(&doc)) << json;
  ASSERT_EQ(doc.type, minijson::Value::kObject);

  const minijson::Value* schema = doc.Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "gamma.planprof.v1");
  EXPECT_EQ(doc.Find("kind")->str, "subgraph-match");
  EXPECT_TRUE(doc.Find("finished")->boolean);
  EXPECT_TRUE(doc.Find("attribution_available")->boolean);

  const minijson::Value* levels = doc.Find("levels");
  ASSERT_NE(levels, nullptr);
  ASSERT_EQ(levels->array.size(), prof->segments().size());
  for (std::size_t i = 0; i < levels->array.size(); ++i) {
    const minijson::Value& level = levels->array[i];
    const PlanProfSegment& seg = prof->segments()[i];
    EXPECT_EQ(level.Find("label")->str, seg.label);
    EXPECT_EQ(level.Find("rows")->number,
              static_cast<double>(seg.rows));
    EXPECT_EQ(level.Find("q_error")->number, seg.q_error);
    const minijson::Value* slots = level.Find("slots");
    ASSERT_NE(slots, nullptr);
    EXPECT_EQ(slots->Find("busy_cycles")->array.size(),
              seg.slot_busy_cycles.size());
    EXPECT_EQ(slots->Find("imbalance")->number, seg.imbalance);
  }

  // The summary digest must agree with Summary().
  PlanProfSummary summary = prof->Summary();
  ASSERT_TRUE(summary.enabled);
  const minijson::Value* sum = doc.Find("summary");
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(sum->Find("worst_q_error")->number, summary.worst_q_error);
  EXPECT_EQ(sum->Find("imbalance")->number, summary.imbalance);
  ASSERT_EQ(sum->Find("levels")->array.size(), summary.levels.size());
}

TEST(PlanProfTest, SummaryPicksWorstEstimatedLevel) {
  graph::Graph g = PendantK4();
  ProfiledRun run(g);
  auto r = run.Run(PatternCompiler(&g).CompileKClique(3, false));
  ASSERT_TRUE(r.ok());

  PlanProfiler* prof = run.prof();
  PlanProfSummary summary = prof->Summary();
  ASSERT_TRUE(summary.enabled);
  double worst = 0.0;
  int worst_depth = -1;
  for (const PlanProfSegment& seg : prof->segments()) {
    if (seg.has_estimate && seg.q_error > worst) {
      worst = seg.q_error;
      worst_depth = seg.depth;
    }
  }
  EXPECT_EQ(summary.worst_q_error, worst);
  EXPECT_EQ(summary.worst_q_error_depth, worst_depth);
  ASSERT_EQ(summary.levels.size(), prof->segments().size());
}

// A fresh BeginRun discards the previous run: running two workloads
// back-to-back on one engine leaves only the second run's segments.
TEST(PlanProfTest, SecondRunReplacesFirst) {
  graph::Graph g = PendantK4();
  ProfiledRun run(g);
  ASSERT_TRUE(run.Run(PatternCompiler(&g).CompileKClique(3, false)).ok());
  ASSERT_TRUE(run.Run(PatternCompiler(&g).CompileMotifCensus(3)).ok());

  PlanProfiler* prof = run.prof();
  ASSERT_TRUE(prof->has_run());
  ASSERT_EQ(prof->segments().size(), 4u);
  EXPECT_EQ(prof->segments().back().label, "aggregate");
}

// --- Independence, failed runs and overflowed logs ---------------------------

// The profiler only reads the log: a plan run's critpath document is
// byte-identical without the profiler and for each of two profiled runs
// in one process.
TEST(PlanProfTest, CritpathDocumentIgnoresProfiler) {
  graph::Graph g = PendantK4();
  auto critpath_json = [&g](bool profile) {
    ProfiledRun run(g, profile);
    EXPECT_TRUE(run.Run(PatternCompiler(&g).CompileKClique(4, false)).ok());
    EXPECT_EQ(run.prof() != nullptr && run.prof()->has_run(), profile);
    auto report = prof::Analyze(run.device);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report.value().ToJson() : std::string();
  };
  const std::string off = critpath_json(false);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(critpath_json(true), off);
  EXPECT_EQ(critpath_json(true), off);
}

// A run that fails never finishes: the log stays analyzable, and the next
// run on the same engine profiles every level from a clean start.
TEST(PlanProfTest, FailedRunNeverFinishes) {
  graph::Graph g = PendantK4();
  gpusim::SimParams params = TestParams();
  params.device_memory_bytes = 4 << 20;  // no room for the 4 MiB pool
  ProfiledRun run(g, /*profile=*/true, params);
  auto plan = PatternCompiler(&g).CompileKClique(3, false);
  ASSERT_TRUE(plan.ok());
  auto failed = run.Run(plan);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kDeviceOutOfMemory)
      << failed.status().ToString();
  EXPECT_FALSE(run.prof()->has_run());
  auto analyzed = prof::Analyze(run.device);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();

  // The naive two-pass strategy reserves no pool.
  CompiledPlan naive = plan.value();
  for (CompiledLevel& level : naive.levels) {
    level.write_strategy = WriteStrategy::kNaiveTwoPass;
  }
  auto r = CompiledEngine(&run.engine).Run(naive);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().embeddings, 4u);
  ASSERT_TRUE(run.prof()->has_run());
  ASSERT_EQ(run.prof()->segments().size(), 3u);
  for (const PlanProfSegment& seg : run.prof()->segments()) {
    EXPECT_TRUE(seg.attributed) << seg.label;
  }
}

// On an overflowed log only the windows that closed before the cut are
// attributed, each exactly as on a complete log.
TEST(PlanProfTest, OverflowAttributesOnlyWindowsClosedBeforeCut) {
  graph::Graph g = PendantK4();
  auto plan = PatternCompiler(&g).CompileKClique(3, false);
  ProfiledRun full(g);
  ASSERT_TRUE(full.Run(plan).ok());
  const std::vector<PlanProfSegment> complete = full.prof()->segments();
  ASSERT_EQ(complete.size(), 3u);
  ASSERT_GT(complete[1].window.end, complete[1].window.begin + 1);

  // Cut the log after L1's first record.
  ProfiledRun cut(g);
  cut.device.critpath().set_capacity(complete[1].window.begin + 1);
  ASSERT_TRUE(cut.Run(plan).ok());
  PlanProfiler* prof = cut.prof();
  ASSERT_TRUE(prof->has_run());
  const std::vector<PlanProfSegment>& segs = prof->segments();
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_TRUE(segs[0].attributed);
  EXPECT_TRUE(segs[0].attribution == complete[0].attribution);
  EXPECT_EQ(segs[0].binding, complete[0].binding);
  for (std::size_t i = 1; i < segs.size(); ++i) {
    EXPECT_FALSE(segs[i].attributed) << segs[i].label;
    EXPECT_EQ(segs[i].cycles, complete[i].cycles) << segs[i].label;
  }
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parser(prof->ToJson()).Parse(&doc));
  EXPECT_TRUE(doc.Find("partial")->boolean);
  EXPECT_TRUE(doc.Find("attribution_available")->boolean);
}

}  // namespace
}  // namespace gpm::core
